"""Spec-to-PMF campaign benchmark for the SPICE reproduction's service stack.

Run from the repository root::

    python3 perfbench/run.py --workload fig4_cold --seed 1 --seconds 45 --trace 0

Each operation submits a study spec through the service's public entry
points (``repro.service.build_service`` -> ``ServiceApp.handle``, or a
real ``ServiceServer`` + ``ServiceClient``) and fetches the PMF document,
which is checked against the analytic reference.  ``--trace 0`` reports
the end-to-end metrics (tracing off), their timings in reference seconds:
wall time scaled by the host's speed, probed between operations with a
fixed kernel (``hostspeed.py``), so that load from other tenants of a
shared host does not move them; the wall-clock figures are printed too.
``--trace 1`` reports the per-layer metrics from spans wrapped around each
layer's public calls, and checks that traced PMFs are bit-identical to
untraced ones.

Exact counters: on the in-process workload ``fig4_cold``, ``pore.steps``,
``smd.ensemble_calls``, ``store.fingerprint_calls_per_task``,
``store.fsyncs_per_record``, ``store.bytes_per_record``,
``service.requests_per_campaign`` and
``service.event_appends_per_campaign`` are counted over a fixed,
seed-determined set of campaigns and repeat exactly between two runs of
the same code with the same seed; a change may cite them as counts.  On
``service_warm`` the request and event counts depend on long-poll timing.
A traced run fails when a wrapped call the workload must make never fires.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Stores and the span dump live under ``.perfbench_work/`` next to this
directory.  Without the program's ``src/`` tree the script exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
#: Seconds beyond --seconds after which a run counts as hung.
WATCHDOG_S = 120


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _why(name: str) -> str:
    """The workload's one-line reason, as BENCHMARK.json states it."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            listed = json.load(f)["workloads"]
    except (OSError, ValueError, KeyError):
        return "unknown (no BENCHMARK.json)"
    return next((w["why"] for w in listed if w.get("name") == name),
                "unknown (not in BENCHMARK.json)")


def _environment(workload, seed: int, workdir: str) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "why": _why(workload.name),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_fs": _fs_type(workdir),
    }


def _end_to_end(result, workloads) -> dict:
    """Timings in reference seconds (see hostspeed.py)."""
    ok = [op for op in result.ops if op.ok]
    times = [op.ref_s for op in ok]
    tail, pct, n = workloads.tail(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (workloads.median(result.setup_s), "s"),
        "campaign_p50_s": (workloads.median(times), "s"),
        "campaign_tail_s": (tail, "s", f"p{pct:.0f} of {n} campaigns"),
        "tasks_per_s": (result.tasks / result.interval_s
                        if result.interval_s else 0.0, "tasks/s"),
        "pmf_rms_kcal": (workloads.median(result.rms), "kcal/mol"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _write_spans(path: str, env: dict, tracer, campaigns) -> None:
    doc = {
        "env": env,
        "campaigns": [[c.t0, c.t1, c.tid, c.primary] for c in campaigns],
        "spans": [[s.name, s.layer, s.tid, s.t0, s.t1, s.self_s,
                   s.tag if isinstance(s.tag, str) else list(s.tag or ()),
                   s.folded] for s in tracer.spans()],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A hung run prints every thread's stack and exits 1, well before the
    # 180 s a run may take, instead of being killed without a word.
    faulthandler.dump_traceback_later(args.seconds + WATCHDOG_S, exit=True)
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = _environment(workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            result = workloads.run_workload(workload, args.seed, args.seconds,
                                            workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op.ok for op in result.ops) + (not result.reruns_ok)
    attempted = len(result.ops) + 1
    notes = []
    if tracer is None:
        metrics = _end_to_end(result, workloads)
    else:
        traced = [op for op in result.ops if op.traced and op.campaign]
        plain = [op.wall_s for op in result.ops
                 if op.ok and not op.traced]
        overhead = (workloads.median([op.wall_s for op in traced if op.ok])
                    / workloads.median(plain) - 1.0
                    if plain and any(op.ok for op in traced) else 0.0)
        campaigns = [op.campaign for op in traced]
        metrics = layer_metrics(tracer, campaigns, overhead, result.counters,
                                workloads.COUNTER_CAMPAIGNS)
        fired = tracer.snapshot()["totals"]
        silent = [name for name in workload.traced_calls if name not in fired]
        if silent:
            notes.append(f"no traced calls into {', '.join(silent)}")
        unattributed = metrics["trace.unattributed_frac"][0]
        if unattributed > workload.unattributed_max:
            notes.append(f"unattributed {unattributed:.3f} > "
                         f"{workload.unattributed_max}")
        spans_path = os.path.join(
            WORK, f"spans-{workload.name}-s{args.seed}.json")
        _write_spans(spans_path, env, tracer, campaigns)
        env["spans"] = os.path.relpath(spans_path, ROOT)

    for key, value in env.items():
        print(f"env.{key}: {value}")
    if env["store_fs"] in ("tmpfs", "ramfs"):
        print("WARNING: the stores are memory-backed, which hides fsync cost")
    for op in result.ops:
        if not op.ok:
            notes.append(op.error)
    if not result.reruns_ok:
        notes.append("re-run of the first operation gave a different PMF")
    for note in sorted(set(notes)):
        print(f"FAILED: {note}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    if tracer is None:
        ok = [op for op in result.ops if op.ok]
        print(f"wall clock: campaign p50 "
              f"{workloads.median([op.wall_s for op in ok]):.6g} s over "
              f"{result.wall_interval_s:.6g} s measured; median scale "
              f"{workloads.median([op.scale for op in ok]):.4g} reference "
              f"s per wall s")
    for name, entry in metrics.items():
        extra = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"{name}: {entry[0]:.6g} {entry[1]}{extra}")
    print(json.dumps({
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry[0], "unit": entry[1]}
                    for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
