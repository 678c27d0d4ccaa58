"""Per-layer metrics computed from a traced run's spans.

Every workload reports every metric below; a layer the workload never
calls reads 0 (no calls, no time), which is itself the prediction for
layers a workload bypasses.  Durations are medians per call unless the
name says otherwise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from host import median
from spans import SpanRecorder

#: the passes of ``repro.planner.default_passes()``, in order
PASSES = (
    "validate",
    "cache_load",
    "atomic_partition",
    "coarsen",
    "profile_tensors",
    "stage_search",
    "allocate",
    "evaluate",
    "verify",
    "cache_store",
)

#: span name -> per-layer duration metric (median ms per call)
DURATIONS = {
    "graph.validate": "graph.validate_ms",
    "partitioner.atomic": "partitioner.atomic.ms",
    "partitioner.blocks.coarsen": "partitioner.blocks.coarsen_ms",
    "planner.pass.profile_tensors": "partitioner.stage_dp.profile_ms",
    "partitioner.search": "partitioner.search.ms",
    "partitioner.allocation": "partitioner.allocation.ms",
    "pipeline.evaluate": "pipeline.evaluate_ms",
    "pipeline.timeline": "pipeline.timeline_ms",
    "verify": "verify.ms",
    "partitioner.deployment.encode": "partitioner.deployment.encode_ms",
    "service.protocol.normalize": "service.protocol.normalize_ms",
    "planner.repair": "planner.repair.ms",
    "planner.store.put": "planner.store.put_ms",
    "planner.store.refresh": "planner.store.refresh_ms",
    "serving.workload": "serving.workload.ms",
    "serving.simulator": "serving.simulator.ms",
    "serving.autoscale": "serving.autoscale.ms",
}

#: span name -> (metric, attribute) whose per-call median is reported
COUNTS = {
    "partitioner.atomic": ("partitioner.atomic.components", "components"),
    "partitioner.blocks.coarsen": ("partitioner.blocks.k", "k"),
    "partitioner.search": [
        ("partitioner.search.dp_calls", "dp_calls"),
        ("partitioner.search.candidates", "candidates"),
        ("partitioner.search.states", "states"),
    ],
    "profiler.stats": ("profiler.memo_hit_rate", "memo_hit_rate"),
    "serving.autoscale": ("serving.autoscale.sweep_points", "sweep_points"),
}

UNITS: Dict[str, str] = {}
for _metric in DURATIONS.values():
    UNITS[_metric] = "ms"
UNITS.update({
    "partitioner.atomic.components": "count",
    "partitioner.blocks.k": "count",
    "partitioner.search.dp_calls": "count",
    "partitioner.search.candidates": "count",
    "partitioner.search.states": "count",
    "partitioner.search.ms_per_dp_call": "ms",
    "profiler.memo_hit_rate": "ratio",
    "planner.store.reuse_ms": "ms",
    "planner.store.hit_ratio": "ratio",
    "service.engine.warm_ms": "ms",
    "service.engine.delta_ms": "ms",
    "service.engine.repair_ms": "ms",
    "service.engine.coalesced_share": "ratio",
    "service.server.http_ms": "ms",
    "planner.repair.fallback_share": "ratio",
    "planner.repair.migrated_pairs": "count",
    "obs.spans_retained": "count",
    "serving.plan_ms": "ms",
    "serving.simulator.requests_per_s": "1/s",
    "serving.autoscale.sweep_points": "count",
    "obs.trace_overhead_share": "ratio",
    "failed_share": "ratio",
    # workload-level figures the traced run reports per layer
    "plan_iter_s": "pred_s",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "delta_p50_ms": "ms",
    "delta_p90_ms": "ms",
    "repair_p50_ms": "ms",
    "serve_replicas": "count",
})
for _p in PASSES:
    UNITS[f"planner.pass.{_p}.self_ms"] = "ms"

Metric = Tuple[float, str, int]


def _med(values: List[float]) -> Tuple[float, int]:
    return (median(values), len(values)) if values else (0.0, 0)


def span_metrics(rec: SpanRecorder) -> Dict[str, Metric]:
    """Every span-derived per-layer metric of a traced run."""
    out: Dict[str, Metric] = {}
    by_name: Dict[str, list] = defaultdict(list)
    for s in rec.spans:
        by_name[s.name].append(s)
    self_times = rec.self_times()
    ancestors = rec.ancestors()

    def put(metric: str, value: float, n: int) -> None:
        out[metric] = (value, UNITS[metric], n)

    for span_name, metric in DURATIONS.items():
        put(metric, *_med([s.dur * 1e3 for s in by_name[span_name]]))
    for span_name, specs in COUNTS.items():
        for metric, attr in specs if isinstance(specs, list) else [specs]:
            put(metric, *_med([
                float(s.attrs[attr]) for s in by_name[span_name]
                if attr in s.attrs
            ]))
    searches = [s for s in by_name["partitioner.search"] if "dp_calls" in s.attrs]
    calls = sum(s.attrs["dp_calls"] for s in searches)
    put(
        "partitioner.search.ms_per_dp_call",
        sum(s.dur for s in searches) * 1e3 / calls if calls else 0.0,
        calls,
    )
    for p in PASSES:
        put(f"planner.pass.{p}.self_ms", *_med([
            self_times[s.span_id] * 1e3 for s in by_name[f"planner.pass.{p}"]
        ]))

    # store reuse: per trace, the time spent answering passes from the
    # store (hits + rebinding the reused payloads)
    reuse: Dict[int, float] = defaultdict(float)
    gets = by_name["planner.store.get"]
    for s in gets:
        if s.attrs.get("hit"):
            reuse[s.trace_id] += s.dur
    for s in by_name["planner.store.materialize"]:
        reuse[s.trace_id] += s.dur
    put("planner.store.reuse_ms", *_med([v * 1e3 for v in reuse.values()]))
    hits = sum(1 for s in gets if s.attrs.get("hit"))
    put("planner.store.hit_ratio", hits / len(gets) if gets else 0.0, len(gets))

    # engine time per request class, and the HTTP share of warm requests
    handles = by_name["service.engine.handle"]
    for kind in ("warm", "delta", "repair"):
        put(f"service.engine.{kind}_ms", *_med([
            s.dur * 1e3 for s in handles if s.attrs.get("class") == kind
        ]))
    engine_by_trace: Dict[int, float] = defaultdict(float)
    warm_traces = set()
    for s in handles:
        engine_by_trace[s.trace_id] += s.dur
        if s.attrs.get("class") == "warm":
            warm_traces.add(s.trace_id)
    put("service.server.http_ms", *_med([
        (s.dur - engine_by_trace[s.trace_id]) * 1e3
        for s in by_name["service.client.request"]
        if s.trace_id in warm_traces
    ]))

    repairs = by_name["planner.repair"]
    put(
        "planner.repair.fallback_share",
        sum(1 for s in repairs if s.attrs.get("full_replan")) / len(repairs)
        if repairs else 0.0,
        len(repairs),
    )
    put(
        "planner.repair.migrated_pairs",
        sum(s.attrs.get("migrated_pairs", 0) for s in repairs) / len(repairs)
        if repairs else 0.0,
        len(repairs),
    )

    put("serving.plan_ms", *_med([
        s.dur * 1e3 for s in by_name["planner.plan_graph"]
        if "serving.run" in ancestors[s.span_id]
    ]))
    sims = by_name["serving.simulator"]
    busy = sum(s.dur for s in sims)
    put(
        "serving.simulator.requests_per_s",
        sum(s.attrs.get("requests", 0) for s in sims) / busy if busy else 0.0,
        len(sims),
    )
    return out


def pass_self_table(rec: SpanRecorder) -> List[Tuple[str, float, float, int]]:
    """``(pass, median wall ms, median self ms, calls)`` per pass."""
    self_times = rec.self_times()
    rows = []
    for p in PASSES:
        spans = rec.by_name(f"planner.pass.{p}")
        if spans:
            rows.append((
                p,
                median([s.dur * 1e3 for s in spans]),
                median([self_times[s.span_id] * 1e3 for s in spans]),
                len(spans),
            ))
    return rows


def layer_self_table(rec: SpanRecorder) -> List[Tuple[str, float, float, int]]:
    """``(span name, total wall ms, total self ms, calls)``, all spans."""
    self_times = rec.self_times()
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for s in rec.spans:
        row = totals[s.name]
        row[0] += s.dur * 1e3
        row[1] += self_times[s.span_id] * 1e3
        row[2] += 1
    return sorted(
        ((n, r[0], r[1], int(r[2])) for n, r in totals.items()),
        key=lambda r: -r[2],
    )

