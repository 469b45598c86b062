"""The campaign workloads and the output checks every operation passes.

An operation is one campaign: POST a study spec, fetch its PMF document.
Every fetched document is checked (finite PMF, the spec's cell count and
shape, RMS against the analytic reference within :data:`RMS_TOL`); a miss
counts as a failed operation, never a skipped sample.

* ``fig4_cold`` — the paper's Fig. 4 kappa x v grid on a fresh store per
  campaign, in-process with the inline runner: the step loop dominates.
* ``service_warm`` — a real HTTP server over a prefilled store, two
  closed-loop clients: every task is a store hit, no physics runs, so the
  HTTP layer, the state/event log and store reads dominate.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from hostspeed import Probes
from tracer import Campaign, Tracer

#: One bearer token per closed-loop client: the demo operator and admin
#: principals, so each holds at most one active campaign and the
#: four-campaign quota never refuses.
TOKENS = ("spice-operator-token", "spice-admin-token")

#: The cheap cell ``service_warm`` prefills and serves.
CHEAP_CELL = {"kappas": [10.0], "velocities": [100.0], "distance": 1.0,
              "equilibration_ns": 0.0, "n_records": 5, "samples_per_task": 2}

#: Campaigns whose per-layer counters are reported as exact counts.
COUNTER_CAMPAIGNS = 2
#: Fresh campaigns per client whose PMF RMS is reported: a fixed,
#: seed-determined set, so pmf_rms_kcal is the same for the same seed.
RMS_CAMPAIGNS = 24
#: Largest RMS (kcal/mol) of a fetched PMF against the reference.
RMS_TOL = 6.0
#: Fresh-process service starts before a cold run's first campaign; one
#: more follows every COLD_START_EVERY-th campaign, so the median (setup_s)
#: samples the whole run rather than the host's load in its first seconds.
COLD_STARTS = 4
COLD_START_EVERY = 3


@dataclass(frozen=True)
class Workload:
    """One workload; why it exists is stated in BENCHMARK.json."""

    name: str
    #: Largest share of traced campaign wall time left unattributed.
    unattributed_max: float
    #: ``specs(seed, client)`` yields that client's spec sequence.
    specs: Callable[[int, int], Iterator[Dict[str, Any]]]
    #: Traced calls (tracer span names) that must each fire at least once
    #: in a traced run: a wrapper that never fires fails the run.
    traced_calls: Tuple[str, ...]
    http: bool = False


def _fig4_specs(seed: int, client: int) -> Iterator[Dict[str, Any]]:
    rng = random.Random(f"fig4_cold:{seed}")
    while True:
        yield {"kappas": [10.0, 100.0],
               "velocities": [12.5, 25.0, 50.0, 100.0],
               "n_samples": 2, "samples_per_task": 2, "n_records": 21,
               "seed": rng.randrange(2 ** 31)}


#: service_warm prefills the largest spec for each of WARM_SEEDS seeds;
#: every drawn spec is a prefix of one of them (same seed, fewer samples),
#: so its tasks are all store hits.
WARM_MAX_SAMPLES = 192
#: Enough prefilled streams that a client's share of the spec space (seeds
#: x sample counts x estimators) outlasts a run: cycling it would turn
#: every later campaign into a result-cache hit.
WARM_SEEDS = 3
#: Each client analyses with its own pair of estimators, so fresh specs of
#: the two clients never coincide; repeats come only from WARM_REPEAT.
WARM_ESTIMATORS = (("exponential", "cumulant"), ("block", "parallel-pull"))
#: Every WARM_REPEAT-th campaign of a client resubmits the other client's
#: latest spec: coalesced if still running, else a result-cache hit.
WARM_REPEAT = 8


def _warm_seeds(seed: int) -> List[int]:
    rng = random.Random(f"service_warm:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(WARM_SEEDS)]


def _warm_specs(seed: int, client: int) -> Iterator[Dict[str, Any]]:
    """A seeded shuffle of the client's share of the spec space, cycled."""
    space = [(s, n, estimator) for s in _warm_seeds(seed)
             for n in range(32, WARM_MAX_SAMPLES + 1, 2)
             for estimator in WARM_ESTIMATORS[client]]
    rng = random.Random(f"service_warm:{seed}:{client}")
    while True:
        rng.shuffle(space)
        for s, n, estimator in space:
            yield dict(CHEAP_CELL, n_samples=n, estimator=estimator, seed=s)


#: Traced calls every campaign makes, whatever its transport.
_SERVICE_CALLS = ("api.handle", "runner.submit", "state.create",
                  "state.transition", "state.append_event", "workflow.study",
                  "workflow.tasks", "store.fingerprints", "store.fingerprint",
                  "core.estimate")

WORKLOADS = {
    w.name: w for w in (
        Workload("fig4_cold", unattributed_max=0.05, specs=_fig4_specs,
                 traced_calls=_SERVICE_CALLS + (
                     "store.put", "smd.ensemble", "pore.equilibrate",
                     "pore.step", "pore.derivative")),
        Workload("service_warm", unattributed_max=0.10, specs=_warm_specs,
                 traced_calls=_SERVICE_CALLS + (
                     "client.submit", "client.events", "client.result",
                     "store.get"),
                 http=True),
    )
}


# -- checks --------------------------------------------------------------------


class Checker:
    """Validates fetched PMF documents against the analytic reference."""

    def __init__(self, tolerance: float) -> None:
        from repro.pore import (ReducedTranslocationModel,
                                default_reduced_potential)

        self.model = ReducedTranslocationModel(default_reduced_potential())
        self.tolerance = tolerance

    def __call__(self, doc: Any, spec: Dict[str, Any]
                 ) -> Tuple[Optional[float], str]:
        """``(rms, "")`` for a valid document, ``(None, reason)`` otherwise."""
        import numpy as np

        if not isinstance(doc, dict):
            return None, "no result document"
        n_cells = len(spec["kappas"]) * len(spec["velocities"])
        n_tasks = n_cells * spec["n_samples"] // spec["samples_per_task"]
        if doc.get("n_cells") != n_cells or len(doc.get("cells", ())) != n_cells:
            return None, f"expected {n_cells} cells"
        if doc.get("n_tasks") != n_tasks or doc.get("degraded"):
            return None, f"expected {n_tasks} tasks, none dead"
        if not isinstance(doc.get("content_digest"), str):
            return None, "no content_digest"
        start = spec.get("start_z", -5.0)
        errors = []
        for cell in doc["cells"]:
            d = np.asarray(cell["displacements"], dtype=float)
            pmf = np.asarray(cell["pmf"], dtype=float)
            if d.shape != (spec["n_records"],) or pmf.shape != d.shape:
                return None, f"cell shape {pmf.shape} != ({spec['n_records']},)"
            if not (np.all(np.isfinite(pmf)) and np.all(np.isfinite(d))):
                return None, "non-finite PMF"
            if cell["n_samples"] != spec["n_samples"]:
                return None, "wrong sample count"
            errors.append(pmf - self.model.reference_pmf(start + d))
        rms = float(np.sqrt(np.mean(np.concatenate(errors) ** 2)))
        if not rms <= self.tolerance:
            return None, f"PMF RMS {rms:.3f} > {self.tolerance} kcal/mol"
        return rms, ""


@dataclass
class Op:
    """One campaign's outcome."""

    spec: Dict[str, Any]
    wall_s: float = 0.0
    tasks: int = 0
    rms: Optional[float] = None
    error: str = ""
    body: str = ""
    traced: bool = False
    repeat: bool = False
    campaign: Optional[Campaign] = None
    #: Wall seconds -> reference seconds (see hostspeed); 1 when traced.
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def ref_s(self) -> float:
        """The campaign's time in reference seconds."""
        return self.wall_s * self.scale


@dataclass
class RunResult:
    ops: List[Op]
    #: The measured interval in reference seconds, and in wall seconds.
    interval_s: float
    wall_interval_s: float
    #: Set-up times in reference seconds.
    setup_s: List[float]
    tasks: int
    reruns_ok: bool
    rms: List[float]
    counters: Optional[Dict[str, Any]] = None


def canonical(doc: Any) -> str:
    from repro.store.fingerprint import canonical_json

    return canonical_json(doc)


# -- in-process campaigns (fig4_cold) ------------------------------------------


_COLD_START = """\
import sys
sys.path.insert(0, sys.argv[1])
from repro.service import build_service
build_service(sys.argv[2], inline=True, sync=True).runner.store.fingerprints()
"""


def cold_start(root: str) -> float:
    """Seconds for a fresh process to import the service stack, build the
    service over an empty store at ``root`` and open the store."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _COLD_START, src, root],
                   check=True, timeout=120, capture_output=True)
    return perf_counter() - t0


def inline_op(root: str, spec: Dict[str, Any], check: Checker) -> Op:
    """One campaign on a fresh store at ``root`` (left in place: deleting
    it here would put the unlinks into the next campaign's fsyncs)."""
    from repro.service import Request, build_service

    auth = {"Authorization": f"Bearer {TOKENS[0]}"}
    app = build_service(root, inline=True, sync=True)
    t1 = perf_counter()
    op = Op(spec)
    post = app.handle(Request("POST", "/v1/campaigns", headers=auth,
                              body=json.dumps(spec).encode("utf-8")))
    result = None
    campaign_id = ""
    if post.status in (200, 201):
        campaign_id = post.json()["id"]
        result = app.handle(Request(
            "GET", f"/v1/campaigns/{campaign_id}/result", headers=auth))
    t2 = perf_counter()
    op.wall_s = t2 - t1
    op.campaign = Campaign(t1, t2, threading.get_ident(), TOKENS[0],
                           campaign_id)
    store = app.runner.store
    op.tasks = store.hits + store.writes
    if result is None or result.status != 200:
        status = post.status if result is None else result.status
        op.error = f"HTTP {status}"
    else:
        op.body = result.body.decode("utf-8")
        op.rms, op.error = check(json.loads(op.body), spec)
    return op


def run_inline(workload: Workload, seed: int, seconds: float, workdir: str,
               tracer: Optional[Tracer]) -> RunResult:
    """Closed loop of fresh-store campaigns for ``seconds``.

    Untraced, a host-speed probe follows every campaign and a fresh-process
    service start (setup_s) every :data:`COLD_START_EVERY`-th; both are
    left out of the measured interval.  With a tracer, every spec runs
    twice — untraced and traced, in alternating order — so the tracing
    overhead is measured on identical inputs and the two PMF documents
    must be byte-identical.
    """
    check = Checker(RMS_TOL)
    specs = workload.specs(seed, 0)
    ops: List[Op] = []
    counters = None
    probes = Probes() if tracer is None else None
    starts = (os.path.join(workdir, f"start{n}") for n in itertools.count())
    setups = ([cold_start(next(starts)) * probes.next()
               for _ in range(COLD_STARTS)] if probes is not None else [])
    stores = (os.path.join(workdir, f"store{n}") for n in itertools.count())
    # Warm-up: the first spec, run once untimed; the timed run of the same
    # spec must give a byte-identical PMF document.
    warmup = inline_op(next(stores), next(workload.specs(seed, 0)), check)
    if probes is not None:
        probes.next()
    measured = scaled = 0.0  # the measured interval, wall and reference
    i = 0
    while measured < seconds:
        spec = next(specs)
        t0 = perf_counter()
        if probes is not None:
            op = inline_op(next(stores), spec, check)
            elapsed = perf_counter() - t0
            op.scale = probes.next()
            ops.append(op)
            scaled += elapsed * op.scale
            if (i + 1) % COLD_START_EVERY == 0:
                setups.append(cold_start(next(starts)) * probes.next())
        else:
            pair = []
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                tracer.enabled = traced
                op = inline_op(next(stores), spec, check)
                tracer.enabled = False
                op.traced = traced
                pair.append(op)
            if pair[0].ok and pair[1].ok and pair[0].body != pair[1].body:
                pair[1].error = "traced PMF differs from untraced PMF"
            ops.extend(pair)
            elapsed = perf_counter() - t0
            scaled += elapsed
            if i + 1 == COUNTER_CAMPAIGNS:
                counters = tracer.snapshot()
        measured += elapsed
        i += 1
    reruns_ok = warmup.ok and warmup.body == ops[0].body
    rms = [op.rms for op in ops[:RMS_CAMPAIGNS] if op.ok]
    return RunResult(ops, scaled, measured, setups,
                     sum(op.tasks for op in ops), reruns_ok, rms, counters)


# -- HTTP campaigns (service_warm) ---------------------------------------------


class _ServerThread:
    """A ServiceServer on localhost, its event loop on one thread."""

    def __init__(self, app: Any) -> None:
        from repro.service import ServiceServer

        self.loop = asyncio.new_event_loop()
        self.server = ServiceServer(app, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self._serve,
                                       name="perfbench-server")
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.start())
        except OSError as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> str:
        self.thread.start()
        self._ready.wait(60)
        if self._error is not None or not self._ready.is_set():
            self.thread.join(60)
            self.loop.close()
            raise RuntimeError(f"server did not start: {self._error}")
        return f"http://127.0.0.1:{self.server.port}"

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(120)
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


#: Setups before the measured interval (the last one is served) and, in
#: untraced runs, after it; setup_s is their median, so it samples the
#: host's load at both ends of the run.
WARM_SETUPS = 3
WARM_SETUPS_AFTER = 2
#: Longest a client waits for one campaign to end; a campaign still
#: running then counts as failed, so a stuck run cannot hang the benchmark.
CAMPAIGN_TIMEOUT_S = 60.0
#: Campaigns per client per phase.  Phases are separated by a barrier at
#: which no campaign is in flight: untraced runs probe the host's speed
#: there, traced runs switch tracing on or off.
WARM_PHASE = 4


def _warm_setup(root: str, seed: int, check: Checker, tracer: Optional[Tracer],
                probes: Optional[Probes]
                ) -> Tuple[Any, "_ServerThread", str, float, bool]:
    """Prefill a store through the service, then serve it over HTTP.

    The set-up time is summed over its steps (each prefill campaign, then
    the build and start of the served service), each scaled to reference
    seconds by the probes around it when ``probes`` is given.  The prefill
    writes without fsync: its records only make the store warm, and the
    latency of fsync on a shared disk drifts by tens of percent within
    minutes (fig4_cold measures the fsync'd write path).
    """
    from repro.service import Request, build_service

    setup_s = 0.0
    t0 = perf_counter()

    def step_done() -> None:
        nonlocal setup_s, t0
        elapsed = perf_counter() - t0
        setup_s += elapsed * (probes.next() if probes is not None else 1.0)
        t0 = perf_counter()

    prefill = build_service(root, inline=True, sync=False)
    auth = {"Authorization": f"Bearer {TOKENS[0]}"}
    ok = True
    for stream_seed in _warm_seeds(seed):
        spec = dict(CHEAP_CELL, n_samples=WARM_MAX_SAMPLES, seed=stream_seed)
        post = prefill.handle(Request("POST", "/v1/campaigns", headers=auth,
                                      body=json.dumps(spec).encode("utf-8")))
        result = prefill.handle(Request(
            "GET", f"/v1/campaigns/{post.json().get('id')}/result",
            headers=auth))
        ok = (ok and post.status == 201 and result.status == 200
              and check(result.json(), spec)[0] is not None)
        step_done()
    app = build_service(root, inline=False, sync=True)
    if tracer is not None:
        tracer.enabled = True
    app.runner.store.fingerprints()  # store open: load the shard indexes
    if tracer is not None:
        tracer.enabled = False
    server = _ServerThread(app)
    url = server.start()
    step_done()
    return app, server, url, setup_s, ok


def _wait_for(client: Any, campaign_id: str) -> Dict[str, Any]:
    """``ServiceClient.wait_for`` with a deadline: long-poll ``/events``
    until the campaign is terminal or :data:`CAMPAIGN_TIMEOUT_S` passes;
    returns the last campaign resource fetched."""
    deadline = perf_counter() + CAMPAIGN_TIMEOUT_S
    since = 0
    while True:
        for event in client.events(campaign_id, since=since, wait=True):
            since = max(since, event.get("seq", since))
        doc = client.campaign(campaign_id)
        if doc["state"] in ("completed", "degraded", "failed", "cancelled") \
                or perf_counter() > deadline:
            return doc


def run_http(workload: Workload, seed: int, seconds: float, workdir: str,
             tracer: Optional[Tracer]) -> RunResult:
    """Two closed-loop HTTP clients against a warm server for ``seconds``.

    The clients run phases of :data:`WARM_PHASE` campaigns each, separated
    by a barrier.  Untraced, the host's speed is probed at each barrier and
    the probes are left out of the measured interval; with a tracer, the
    phases alternate untraced/traced, so both halves see the same server
    age.
    """
    from repro.service import ServiceClient, ServiceClientError

    check = Checker(RMS_TOL)
    setups: List[float] = []
    setup_ok = True
    probes = Probes() if tracer is None else None

    def set_up(k: int, served: bool) -> Tuple[Any, "_ServerThread", str]:
        nonlocal setup_ok
        app, server, url, setup_s, ok = _warm_setup(
            os.path.join(workdir, f"warm{k}"), seed, check,
            tracer if served else None, probes)
        setups.append(setup_s)
        setup_ok = setup_ok and ok
        if not served:
            server.stop()
        return app, server, url

    for k in range(WARM_SETUPS):
        app, server, url = set_up(k, served=k == WARM_SETUPS - 1)
    store = app.runner.store
    tasks_before = store.hits + store.writes
    ops: List[List[Op]] = [[], []]
    first_body: Dict[str, str] = {}
    latest: Dict[int, Dict[str, Any]] = {}
    lock = threading.Lock()
    stop = threading.Event()
    # The measured interval, wall and reference seconds, and where the
    # current phase began (its start and each client's op count).
    measured = [0.0, 0.0]
    phase = [perf_counter(), 0, 0]

    def next_phase() -> None:
        elapsed = perf_counter() - phase[0]
        if probes is not None:
            factor = probes.next()
            for k in (0, 1):
                for op in ops[k][phase[1 + k]:]:
                    op.scale = factor
        else:
            factor = 1.0
            tracer.enabled = not tracer.enabled
        measured[0] += elapsed
        measured[1] += elapsed * factor
        if measured[0] >= seconds:
            stop.set()
        phase[:] = [perf_counter(), len(ops[0]), len(ops[1])]

    barrier = threading.Barrier(2, action=next_phase, timeout=60)

    def client_loop(k: int) -> None:
        try:
            run_client(k)
        except Exception as exc:  # a dead client must not hang the other
            ops[k].append(Op({}, error=f"client crashed: {exc!r}"))
        finally:
            stop.set()
            barrier.abort()

    def run_client(k: int) -> None:
        specs = workload.specs(seed, k)
        client = ServiceClient(url, TOKENS[k], timeout=60)
        n = 0
        while not stop.is_set():
            with lock:
                other = latest.get(1 - k)
            repeat = n % WARM_REPEAT == WARM_REPEAT - 1 and other is not None
            spec = dict(other) if repeat else next(specs)
            with lock:
                latest[k] = spec
            op = Op(spec, traced=tracer is not None and tracer.enabled,
                    repeat=repeat)
            t0 = perf_counter()
            try:
                doc = client.submit(spec)
                campaign_id = doc["id"]
                final = _wait_for(client, campaign_id)
                result, _etag = client.result(campaign_id)
                t1 = perf_counter()
                op.campaign = Campaign(t0, t1, threading.get_ident(),
                                       TOKENS[k],
                                       doc["coalesced_with"] or campaign_id)
                op.wall_s = t1 - t0
                if final["state"] != "completed":
                    op.error = (f"campaign {final['state']} after the "
                                f"client's wait")
                else:
                    op.rms, op.error = check(result, spec)
                    op.body = canonical(result)
            except (ServiceClientError, KeyError, TypeError) as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            if op.ok:
                with lock:
                    seen = first_body.setdefault(
                        result["spec_fingerprint"], op.body)
                if seen != op.body:
                    op.error = "PMF differs between fetches of one spec"
            ops[k].append(op)
            n += 1
            if n % WARM_PHASE == 0:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    return

    threads = [threading.Thread(target=client_loop, args=(k,),
                                name=f"perfbench-client{k}")
               for k in range(len(TOKENS))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if tracer is not None:
        tracer.enabled = False
    server.stop()
    tasks = store.hits + store.writes - tasks_before
    if tracer is None:
        for k in range(WARM_SETUPS, WARM_SETUPS + WARM_SETUPS_AFTER):
            set_up(k, served=False)
    merged = sorted(ops[0] + ops[1], key=lambda op: op.campaign.t0
                    if op.campaign else math.inf)
    # A PMF served from store hits must equal one computed afresh.
    reruns_ok = False
    if setup_ok and merged and merged[0].ok:
        rerun = inline_op(os.path.join(workdir, "rerun"), merged[0].spec,
                          check)
        reruns_ok = rerun.ok and canonical(json.loads(rerun.body)) == \
            merged[0].body
    rms = [op.rms for client_ops in ops
           for op in [o for o in client_ops if not o.repeat][:RMS_CAMPAIGNS]
           if op.ok]
    return RunResult(merged, measured[1], measured[0], setups, tasks,
                     reruns_ok, rms)


def run_workload(workload: Workload, seed: int, seconds: float, workdir: str,
                 tracer: Optional[Tracer]) -> RunResult:
    runner = run_http if workload.http else run_inline
    return runner(workload, seed, seconds, workdir, tracer)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it — the 11th largest — or the maximum when n < 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(values: List[float]) -> float:
    """The median, or 0.0 when every operation failed."""
    return statistics.median(values) if values else 0.0
