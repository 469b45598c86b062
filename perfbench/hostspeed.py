"""Host-speed reference: a fixed probe timed between operations.

On a shared host the same campaign runs up to twice as slow while other
tenants load the machine, in episodes of seconds to tens of seconds, so a
run's median wall time depends on how much of its window falls in such
episodes.  The benchmark therefore times a probe — a kernel of small-array
NumPy steps and a JSON round trip, the same kinds of work as the
campaigns, but none of the program's code — whenever no operation is in
flight, and scales each operation's wall time by
``REFERENCE_S / probe time`` (the probes before and after it, averaged).
Reported times are in *reference seconds*: the wall time the operation
would take on a host that runs the probe in :data:`REFERENCE_S`.

Probe time tracks slowdowns of computation, not of thread hand-offs: a
probe that added socket round trips between two threads read up to twice
as slow at times when the HTTP workload did not slow at all (the cost of
a hand-off depends on whether both threads share a CPU).

A change to the program moves the operations, not the probe, so it still
shows in full — unless it leaves work running while no operation is in
flight (a busy background thread), which slows the probes too; the
unscaled wall times printed alongside, and the traced run, still show
that.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: Probe time taken as the reference host speed: about what the probe
#: takes on a quiet 2-vCPU x86 cloud host.
REFERENCE_S = 0.005
#: Timings per probe; the probe reports their median.
REPS = 3
_STEPS = 200

_CENTER = np.array([-3.0, 0.0, 2.5])
_WIDTH = np.array([1.0, 1.5, 0.8])
_AMP = np.array([5.0, -4.0, 3.0])


def _kernel() -> float:
    rng = np.random.default_rng(0)
    z = np.zeros(2)
    t0 = perf_counter()
    for i in range(_STEPS):
        u = (z[:, None] - _CENTER[None, :]) / _WIDTH[None, :]
        g = np.exp(-0.5 * u ** 2) * (-u / _WIDTH[None, :])
        z += 0.001 * (10.0 * (0.01 * i - z) - g @ _AMP)
        z += 0.05 * rng.standard_normal(z.shape)
    doc = {"z": z.tolist(), "cells": [{"n": k, "pmf": [0.5 * k] * 8}
                                      for k in range(8)]}
    for _ in range(_STEPS // 4):
        doc = json.loads(json.dumps(doc, sort_keys=True))
    return perf_counter() - t0


def probe() -> float:
    """Seconds the probe takes now (median of :data:`REPS` timings)."""
    return statistics.median(_kernel() for _ in range(REPS))


class Probes:
    """Probes taken one after another over a run."""

    def __init__(self) -> None:
        self.last = probe()

    def next(self) -> float:
        """Probe again; return the factor from wall to reference seconds
        for the operation since the last probe (the two probes averaged)."""
        now = probe()
        factor = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return factor
