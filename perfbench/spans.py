"""Spans recorded from benchmark code around calls into each layer.

Nothing inside ``src/`` is instrumented.  :class:`LayerProbes` replaces,
for the duration of a traced operation, each layer's public function
(or method) with a wrapper that records a span and then calls the
original; :meth:`LayerProbes.remove` restores every binding.  A
function is rebound in every loaded ``repro`` module that holds it, so
call sites that imported it by name see the wrapper too.

Spans carry a trace id shared by one plan, request or simulation; a
span opened on a thread with no open span takes as parent the root
span registered for the current trace id (the client round trip, for
work the daemon's threads do on its behalf).  :func:`write_perfetto`
writes the spans as Chrome trace events, which Perfetto loads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span store (written out at the end)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: trace id of the operation in progress (set by the workload)
        self.trace_id = 0
        #: trace id -> span id adopted by spans opened on other threads
        self.roots: Dict[int, int] = {}
        #: span names that hand their trace to other threads (the client
        #: round trip hands a request to the daemon's threads)
        self.handoff = {"service.client.request"}
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        if stack:
            parent, trace = stack[-1].span_id, stack[-1].trace_id
        else:
            trace = self.trace_id
            parent = self.roots.get(trace)
        span = Span(
            next(self._ids), parent, trace, name, time.perf_counter(),
            thread=threading.get_ident(), attrs=dict(attrs),
        )
        stack.append(span)
        if name in self.handoff:
            self.roots[trace] = span.span_id
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, **attrs: Any) -> "_SpanCtx":
        return _SpanCtx(self, name, attrs)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, float]:
        """span id -> duration minus the part its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(s.span_id, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.span_id] = max(0.0, s.dur - covered)
        return out

    def ancestors(self) -> Dict[int, List[str]]:
        """span id -> names of its ancestors, nearest first."""
        index = {s.span_id: s for s in self.spans}
        out = {}
        for s in self.spans:
            names, pid = [], s.parent_id
            while pid is not None and pid in index:
                names.append(index[pid].name)
                pid = index[pid].parent_id
            out[s.span_id] = names
        return out


class _SpanCtx:
    def __init__(self, rec: SpanRecorder, name: str, attrs: Dict[str, Any]):
        self.rec, self.name, self.attrs = rec, name, attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.rec.open(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc: Any) -> None:
        assert self.span is not None
        self.rec.close(self.span)


# ----------------------------------------------------------------------
# probes around layer entry points
# ----------------------------------------------------------------------
AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]


def _len_result(key: str) -> AttrFn:
    return lambda args, kwargs, result: {key: len(result)}


def _search_attrs(args, kwargs, result) -> Dict[str, Any]:
    if result is None:
        return {}
    return {
        "dp_calls": result.dp_calls,
        "candidates": result.candidates_tried,
        "states": args[0].states_evaluated,
    }


def _handle_attrs(args, kwargs, result) -> Dict[str, Any]:
    method = args[1] if len(args) > 1 else kwargs.get("method")
    meta = result.get("meta", {}) if isinstance(result, dict) else {}
    if method == "repair":
        kind = "repair"
    elif meta.get("coalesced"):
        kind = "coalesced"
    else:
        kind = meta.get("cache", method)
    return {"method": method, "class": kind}


def _repair_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {
        "full_replan": bool(result.used_full_replan),
        "migrated_pairs": result.migrated_pairs,
    }


def _get_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _stats_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"memo_hit_rate": float(result["memo_hit_rate"])}


def _sim_attrs(args, kwargs, result) -> Dict[str, Any]:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return {"requests": len(requests)}


def _sweep_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"sweep_points": len(result.sweep)}


#: (span name, module, attribute, attrs from (args, kwargs, result));
#: functions are rebound wherever loaded, see LayerProbes
FUNCTION_PROBES: Tuple[Tuple[str, str, str, Optional[AttrFn]], ...] = (
    ("graph.validate", "repro.graph.validate", "validate_graph", None),
    ("partitioner.atomic", "repro.partitioner.atomic", "atomic_partition",
     _len_result("components")),
    ("partitioner.blocks.coarsen", "repro.partitioner.blocks",
     "block_partition", _len_result("k")),
    ("partitioner.search", "repro.partitioner.search", "form_stage",
     _search_attrs),
    ("partitioner.allocation", "repro.partitioner.allocation",
     "allocate_devices", None),
    ("pipeline.evaluate", "repro.pipeline.hybrid", "evaluate_plan", None),
    ("pipeline.timeline", "repro.pipeline.timeline", "plan_timeline", None),
    ("verify", "repro.verify.plan_checks", "check_plan", None),
    ("partitioner.deployment.encode", "repro.partitioner.deployment",
     "plan_to_json", None),
    ("partitioner.deployment.decode", "repro.partitioner.deployment",
     "plan_from_json", None),
    ("planner.store.materialize", "repro.planner.store",
     "materialize_for_reuse", None),
    ("planner.plan_graph", "repro.planner", "plan_graph", None),
    ("planner.repair", "repro.planner.repair", "repair", _repair_attrs),
    ("service.protocol.normalize", "repro.service.protocol",
     "normalize_plan_request", None),
    ("serving.run", "repro.serving.api", "run_serving_sim", None),
    ("serving.workload", "repro.serving.workload", "poisson_arrivals",
     _len_result("requests")),
    ("serving.simulator", "repro.serving.simulator", "simulate_serving",
     _sim_attrs),
    ("serving.autoscale", "repro.serving.autoscale", "autoscale_replicas",
     _sweep_attrs),
)

#: (span name or None for "planner.pass.<instance name>", module, class,
#: method, attrs)
METHOD_PROBES: Tuple[Tuple[Optional[str], str, str, str, Optional[AttrFn]], ...] = (
    ("service.engine.handle", "repro.service.engine", "PlanEngine",
     "handle", _handle_attrs),
    ("service.client.request", "repro.service.client", "ServiceClient",
     "request", None),
    ("planner.store.get", "repro.planner.store", "ArtifactStore", "get",
     _get_attrs),
    ("planner.store.put", "repro.planner.store", "ArtifactStore", "put", None),
    ("planner.store.refresh", "repro.planner.store", "ArtifactStore",
     "refresh", None),
    ("profiler.stats", "repro.profiler.profiler", "GraphProfiler", "stats",
     _stats_attrs),
) + tuple(
    (None, mod, cls, "run", None)
    for mod, cls in (
        ("repro.planner.passes", "ValidatePass"),
        ("repro.planner.passes", "AtomicPartitionPass"),
        ("repro.planner.passes", "CoarsenPass"),
        ("repro.planner.passes", "ProfileTensorsPass"),
        ("repro.planner.passes", "StageSearchPass"),
        ("repro.planner.passes", "AllocatePass"),
        ("repro.planner.passes", "EvaluatePass"),
        ("repro.planner.passes", "VerifyPass"),
        ("repro.planner.cache", "CachePass"),
    )
)


class LayerProbes:
    """Install / remove the span-recording wrappers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn, name_of: Callable[[tuple], str], attrs: Optional[AttrFn]):
        rec = self.rec

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = rec.open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                rec.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return probe

    def install(self) -> "LayerProbes":
        import importlib

        for name, modname, attr, attrs in FUNCTION_PROBES:
            original = getattr(importlib.import_module(modname), attr)
            probe = self._wrap(original, lambda _a, n=name: n, attrs)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, probe)
        for name, modname, clsname, meth, attrs in METHOD_PROBES:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[meth]
            if name is None:
                def name_of(args):
                    return f"planner.pass.{args[0].name}"
            else:
                def name_of(args, n=name):
                    return n
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name_of, attrs))
        return self

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "LayerProbes":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.remove()


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def write_perfetto(path, recorder: SpanRecorder) -> int:
    """Write the spans as Chrome trace events; returns the event count."""
    self_times = recorder.self_times()
    threads: Dict[int, int] = {}
    events = []
    for s in sorted(recorder.spans, key=lambda s: s.start):
        tid = threads.setdefault(s.thread, len(threads) + 1)
        args = {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "self_us": self_times[s.span_id] * 1e6,
        }
        args.update({k: v for k, v in s.attrs.items()})
        events.append({
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": (s.start - recorder.origin) * 1e6,
            "dur": s.dur * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(events)
