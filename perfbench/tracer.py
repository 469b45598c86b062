"""Span tracer wrapped around the public calls into each ``repro`` layer.

The benchmark never edits the program: :meth:`Tracer.install` replaces a
fixed list of public functions and methods with thin wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  A wrapper costs one
flag test while tracing is off, so traced and untraced campaigns run the
same code in one process.

Spans are kept in memory, per thread, and written out once at the end.
Each span records its name, layer, thread, start, end and *self* time
(duration minus the time its child spans on the same thread cover).  The
hot leaves of the step loop (``step_ensemble``, ``derivative``) are timed
and counted but not stored one by one: their self time is folded into
the nearest stored ancestor, so a 50k-step campaign keeps a few hundred
spans, not 100k.

Cross-thread attribution (the HTTP workload) is done after the run by
:func:`attribute_campaign`: a client call is matched to the server's
``ServiceApp.handle`` span for the same bearer token (each client holds
one request in flight), and the long-poll wait inside ``/events`` is
attributed to the runner worker's spans for the campaign being waited on.
"""

from __future__ import annotations

import bisect
import functools
import os
import statistics
import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ServiceState methods timed as the ``service.state`` layer.
_STATE_METHODS = ("create", "transition", "append_event", "set_result_digest",
                  "set_error", "save_result", "load_result", "read_events",
                  "find_by_spec", "active_count", "list")

_TERMINAL = ("completed", "degraded", "failed", "cancelled")


@dataclass
class Span:
    name: str
    layer: str
    tid: int
    t0: float
    t1: float
    self_s: float
    tag: Any
    folded: Dict[str, float]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass
class _Thread:
    tid: int
    stack: List[list] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    #: name -> [calls, total seconds, self seconds]
    totals: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    counters: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    campaign: Optional[str] = None


class Tracer:
    """Records spans and counters while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._opened: "weakref.WeakSet[Any]" = weakref.WeakSet()

    # -- recording -----------------------------------------------------------

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _Thread(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, fn: Callable, name: str, layer: str, *, store: bool = True,
             tag: Optional[Callable] = None,
             on_exit: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span of ``layer`` when tracing is on."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            th = tracer._thread()
            span_tag = tag(args, kwargs) if tag is not None else th.campaign
            frame = [name, layer, perf_counter(), 0.0, store, {}, span_tag]
            th.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                th.stack.pop()
                dur = t1 - frame[2]
                self_s = dur - frame[3]
                total = th.totals[name]
                total[0] += 1
                total[1] += dur
                total[2] += self_s
                if th.stack:
                    th.stack[-1][3] += dur
                if store:
                    th.spans.append(Span(name, layer, th.tid, frame[2], t1,
                                         self_s, span_tag, frame[5]))
                else:
                    # Fold the leaf's self time into the nearest stored
                    # ancestor, so attribution still sees it by layer.
                    for parent in reversed(th.stack):
                        if parent[4]:
                            folded = parent[5]
                            folded[layer] = folded.get(layer, 0.0) + self_s
                            break
            if on_exit is not None:
                on_exit(th, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a per-thread counter (no lock on the hot path)."""
        self._thread().counters[name] += amount

    def in_span(self, name: str) -> bool:
        """True when the calling thread is inside a span called ``name``."""
        return any(frame[0] == name for frame in self._thread().stack)

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str, layer: str,
               **kwargs) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, **kwargs))

    def install(self) -> None:
        """Wrap the public entry points of every layer (idempotent)."""
        if self._patches:
            return
        import repro.core
        import repro.smd.ensemble
        import repro.store.fingerprint
        import repro.store.record
        import repro.workflow.streaming
        from repro.pore.landscape import AxialLandscape
        from repro.pore.reduced import ReducedTranslocationModel
        from repro.service.api import ServiceApp
        from repro.service.client import ServiceClient
        from repro.service.runner import CampaignRunner
        from repro.service.state import ServiceState
        from repro.store.store import ResultStore

        tracer = self

        # service: client calls (HTTP round trips), the sans-IO handler,
        # the runner's submission path and the durable state layer.
        for method in ("submit", "events", "campaign", "result"):
            self._patch(ServiceClient, method, f"client.{method}",
                        "service.http", tag=lambda a, k: a[0].token)
        self._patch(ServiceApp, "handle", "api.handle", "service.api",
                    tag=_request_tag)
        self._patch(CampaignRunner, "submit", "runner.submit",
                    "service.runner")
        for method in _STATE_METHODS:
            self._patch(ServiceState, method, f"state.{method}",
                        "service.state",
                        on_exit=_note_transition if method == "transition"
                        else None)

        # workflow: the streaming executor.
        self._patch(repro.workflow.streaming, "run_streamed_study",
                    "workflow.study", "workflow")
        self._patch(repro.workflow.streaming, "run_streamed_tasks",
                    "workflow.tasks", "workflow", on_exit=_note_stream)

        # store: writes, reads, membership and fingerprinting.
        def note_put(th, args, kwargs, fingerprint):
            path = args[0].path_for(fingerprint)
            th.counters["store.bytes"] += os.path.getsize(path)

        def note_get(th, args, kwargs, ensemble):
            if ensemble is not None:
                th.counters["store.hits"] += 1

        def note_open(th, args, kwargs, fingerprints):
            if args[0] not in tracer._opened:  # first call on this instance
                tracer._opened.add(args[0])
                th.counters["store.opens"] += 1
                th.counters["store.open_s"] += th.spans[-1].dur

        def note_miss(th, args, kwargs, result):
            th.counters["store.misses"] += 1

        self._patch(ResultStore, "put", "store.put", "store",
                    on_exit=note_put)
        self._patch(ResultStore, "get", "store.get", "store",
                    on_exit=note_get)
        self._patch(ResultStore, "fingerprints", "store.fingerprints",
                    "store", on_exit=note_open)
        self._patch(ResultStore, "note_miss", "store.note_miss", "store",
                    on_exit=note_miss)
        for module in (repro.store.fingerprint, repro.store.record):
            self._patch(module, "task_fingerprint", "store.fingerprint",
                        "store")

        fsync = os.fsync

        def counted_fsync(fd):
            if tracer.enabled and tracer.in_span("store.put"):
                tracer.count("store.put_fsyncs")
            return fsync(fd)

        self._patches.append((os, "fsync", fsync))
        os.fsync = counted_fsync

        # smd: the pulling-ensemble runner; pore: the step loop and its force.
        self._patch(repro.smd.ensemble, "run_pulling_ensemble",
                    "smd.ensemble", "smd")
        self._patch(ReducedTranslocationModel, "equilibrate",
                    "pore.equilibrate", "pore")
        self._patch(ReducedTranslocationModel, "step_ensemble", "pore.step",
                    "pore", store=False)
        self._patch(AxialLandscape, "derivative", "pore.derivative", "pore",
                    store=False)

        # core: the estimator.
        self._patch(repro.core, "estimate_pmf", "core.estimate", "core")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Merged per-name totals and counters across threads, so far."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        counters: Dict[str, float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for th in threads:
            for name, (calls, dur, self_s) in list(th.totals.items()):
                merged = totals[name]
                merged[0] += calls
                merged[1] += dur
                merged[2] += self_s
            for name, value in list(th.counters.items()):
                counters[name] += value
        return {"totals": totals, "counters": counters}

    def spans(self) -> List[Span]:
        """Every stored span, ordered by start time."""
        with self._lock:
            threads = list(self._threads)
        out = [span for th in threads for span in th.spans]
        out.sort(key=lambda s: s.t0)
        return out


def _request_tag(args, kwargs) -> Tuple[str, str]:
    """(bearer token, request kind) for a ``ServiceApp.handle`` span."""
    request = args[1]
    if request.method == "POST" and request.path.rstrip("/").endswith(
            "/campaigns"):
        kind = "submit"
    elif request.path.endswith("/events") and \
            request.query.get("wait") in ("1", "true"):
        kind = "wait"
    else:
        kind = "other"
    return (request.header("Authorization") or "", kind)


def _note_transition(th: _Thread, args, kwargs, record) -> None:
    """Tag the runner worker's spans with the campaign it is executing.

    ``transition(id, "running")`` outside any request handler is the
    worker starting a primary run; its terminal transition ends it.
    """
    campaign_id, to = args[1], args[2] if len(args) > 2 else kwargs["to"]
    if any(frame[0] == "api.handle" for frame in th.stack):
        return
    if to == "running":
        th.campaign = campaign_id
    elif to in _TERMINAL and th.campaign == campaign_id:
        th.campaign = None


def _note_stream(th: _Thread, args, kwargs, report) -> None:
    th.counters["workflow.tasks"] += report.total


# -- attribution ---------------------------------------------------------------


@dataclass
class Campaign:
    """One measured campaign, as the client saw it."""

    t0: float
    t1: float
    tid: int
    token: str
    primary: str


class SpanIndex:
    """Spans grouped by thread (start-ordered) and by worker campaign tag."""

    def __init__(self, spans: List[Span]) -> None:
        self.by_thread: Dict[int, List[Span]] = defaultdict(list)
        self.by_tag: Dict[Any, List[Span]] = defaultdict(list)
        self.handles: Dict[str, List[Span]] = defaultdict(list)
        #: Worker-side executor runs, tagged with their primary campaign.
        self.studies: List[Span] = []
        for span in spans:
            self.by_thread[span.tid].append(span)
            if isinstance(span.tag, str):
                self.by_tag[span.tag].append(span)
                if span.name == "workflow.study":
                    self.studies.append(span)
            if span.name == "api.handle":
                self.handles[span.tag[0]].append(span)
        self._starts = {tid: [s.t0 for s in group]
                        for tid, group in self.by_thread.items()}
        self._handle_starts = {tok: [s.t0 for s in group]
                               for tok, group in self.handles.items()}

    def within(self, tid: int, t0: float, t1: float) -> List[Span]:
        """Spans on thread ``tid`` lying inside ``[t0, t1]``."""
        group = self.by_thread.get(tid, [])
        lo = bisect.bisect_left(self._starts.get(tid, []), t0)
        out = []
        for span in group[lo:]:
            if span.t0 > t1:
                break
            if span.t1 <= t1:
                out.append(span)
        return out

    def handle_for(self, token: str, t0: float, t1: float) -> Optional[Span]:
        """The server handle span of ``token``'s request inside a call."""
        group = self.handles.get(f"Bearer {token}", [])
        starts = self._handle_starts.get(f"Bearer {token}", [])
        for span in group[bisect.bisect_left(starts, t0):]:
            if span.t0 > t1:
                return None
            if span.t1 <= t1:
                return span
        return None


def _add(path: Dict[str, float], span: Span, scale: float = 1.0) -> None:
    path[span.layer] += span.self_s * scale
    for layer, value in span.folded.items():
        path[layer] += value * scale


def attribute_campaign(index: SpanIndex, c: Campaign) -> Dict[str, float]:
    """Split one campaign's wall time into per-layer critical-path seconds.

    Returns ``{layer: seconds, ..., "unattributed": seconds}`` summing to
    the campaign's wall time.  Everything on the client thread counts by
    its own self time.  A client HTTP call counts as ``service.http``
    minus the server handler's duration; the handler's subtree counts by
    layer; the self time of a long-poll handler is waiting, which is
    charged to the worker's spans for the awaited primary campaign (scaled
    down if the worker was busy for less than the wait) and then to
    ``service.runner`` for as long as the worker ran another campaign's
    study (queueing).  Wait that neither explains — worker code outside
    every wrapped call, wake-up latency — stays unattributed, as do gaps
    between the client's calls.  A span's self time absorbs the unwrapped
    code it calls, so in-process (inline) campaigns leave only those gaps.
    """
    path: Dict[str, float] = defaultdict(float)
    wait = 0.0
    for span in index.within(c.tid, c.t0, c.t1):
        _add(path, span)
        if span.layer != "service.http":
            continue
        handle = index.handle_for(c.token, span.t0, span.t1)
        if handle is None:
            continue
        path["service.http"] -= handle.dur
        for inner in index.within(handle.tid, handle.t0, handle.t1):
            _add(path, inner)
        if handle.tag[1] == "wait":
            path["service.api"] -= handle.self_s
            wait += handle.self_s
    if wait > 0.0:
        worker = [s for s in index.by_tag.get(c.primary, [])
                  if s.tid != c.tid and c.t0 <= s.t0 and s.t1 <= c.t1]
        busy = sum(s.self_s + sum(s.folded.values()) for s in worker)
        scale = min(1.0, wait / busy) if busy > 0.0 else 0.0
        for span in worker:
            _add(path, span, scale)
        rest = wait - busy * scale
        # The single worker running another campaign meanwhile is queueing
        # at the runner.
        queued = sum(max(0.0, min(s.t1, c.t1) - max(s.t0, c.t0))
                     for s in index.studies if s.tag != c.primary)
        path["service.runner"] += min(rest, queued)
    wall = c.t1 - c.t0
    path["unattributed"] = wall - sum(path.values())
    return dict(path)


# -- per-layer metrics ---------------------------------------------------------

#: Critical-path groups reported as ``path.<group>_s``.
PATH_GROUPS = ("service", "workflow", "store", "smd", "pore", "core")


def layer_metrics(tracer: Tracer, campaigns: List[Campaign], overhead: float,
                  exact: Optional[Dict[str, Any]], exact_campaigns: int
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Times are seconds per traced campaign.  The counts that must repeat
    exactly come from ``exact`` — a snapshot taken after a fixed,
    seed-determined set of ``exact_campaigns`` campaigns — when given.
    """
    snap = tracer.snapshot()
    totals, counters = snap["totals"], snap["counters"]
    n = max(1, len(campaigns))
    if exact is None:
        exact, exact_campaigns = snap, n

    def calls(name: str, s: Dict[str, Any] = snap) -> float:
        return s["totals"][name][0] if name in s["totals"] else 0

    def dur(name: str) -> float:
        return totals[name][1] if name in totals else 0.0

    def self_s(prefix: str) -> float:
        return sum(t[2] for name, t in totals.items()
                   if name.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    spans = tracer.spans()
    index = SpanIndex(spans)
    wall = sum(c.t1 - c.t0 for c in campaigns)
    paths = [attribute_campaign(index, c) for c in campaigns]
    submits = [s.dur for s in spans
               if s.name == "api.handle" and s.tag[1] == "submit"]
    quarter = max(1, len(submits) // 4)
    waits = sum(s.dur for s in spans
                if s.name == "api.handle" and s.tag[1] == "wait")
    ec = exact["counters"]
    m = exact_campaigns
    puts = calls("store.put", exact)
    out = {
        "pore.steps": (calls("pore.step", exact) / m, "count"),
        "pore.step_s": (dur("pore.step") / n, "s"),
        "pore.step_us": (1e6 * ratio(dur("pore.step"), calls("pore.step")),
                         "us"),
        "pore.derivative_s": (dur("pore.derivative") / n, "s"),
        "pore.equilibrate_s": (dur("pore.equilibrate") / n, "s"),
        "smd.ensemble_calls": (calls("smd.ensemble", exact) / m, "count"),
        "smd.ensemble_s": (dur("smd.ensemble") / n, "s"),
        "smd.self_s": (self_s("smd.") / n, "s"),
        "store.puts": (calls("store.put") / n, "count"),
        "store.put_s": (dur("store.put") / n, "s"),
        "store.fsyncs_per_record": (ratio(ec["store.put_fsyncs"], puts),
                                    "count"),
        "store.bytes_per_record": (ratio(ec["store.bytes"], puts), "B"),
        "store.gets": (calls("store.get") / n, "count"),
        "store.get_s": (dur("store.get") / n, "s"),
        "store.open_s": (ratio(counters["store.open_s"],
                               counters["store.opens"]), "s"),
        "store.fingerprint_calls_per_task": (
            ratio(calls("store.fingerprint", exact), ec["workflow.tasks"]),
            "count"),
        "store.fingerprint_s": (dur("store.fingerprint") / n, "s"),
        "store.hit_ratio": (ratio(counters["store.hits"],
                                  counters["store.hits"]
                                  + counters["store.misses"]), "ratio"),
        "workflow.stream_s": (dur("workflow.tasks") / n, "s"),
        "workflow.self_s": (self_s("workflow.") / n, "s"),
        "workflow.tasks": (counters["workflow.tasks"] / n, "count"),
        "service.requests_per_campaign": (calls("api.handle", exact) / m,
                                          "count"),
        "service.submit_s": (_median(submits), "s"),
        "service.submit_drift": (ratio(_median(submits[-quarter:]),
                                       _median(submits[:quarter])), "ratio"),
        "service.events_wait_s": (waits / n, "s"),
        "service.event_appends_per_campaign": (
            calls("state.append_event", exact) / m, "count"),
        "service.state_s": (self_s("state.") / n, "s"),
        "core.estimate_calls": (calls("core.estimate") / n, "count"),
        "core.estimate_s": (dur("core.estimate") / n, "s"),
        "trace.campaign_s": (wall / n, "s"),
        "trace.unattributed_frac": (
            ratio(sum(p["unattributed"] for p in paths), wall), "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    for group in PATH_GROUPS:
        seconds = sum(v for p in paths for layer, v in p.items()
                      if layer.split(".")[0] == group)
        out[f"path.{group}_s"] = (seconds / n, "s")
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
