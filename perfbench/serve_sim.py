"""serve-sim: in-process ``repro.serving.run_serving_sim`` calls.

A fixed grid of gpt-small and gpt-medium on ``v100x8`` at fixed request
rates, one simulated window and one p99 SLO.  The rates span the cases
where the autoscaler stops early and where it sweeps to
``max_replicas`` without meeting the SLO.  The simulator, batcher,
router and autoscaler do most of the work; no other workload touches
``repro.serving``.  The seed picks each grid point's arrival-stream
seed.  One operation is one ``run_serving_sim`` call.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, List, Tuple

from harness import Run, finish_trace, paired, subprocess_setup_s

CLUSTER = "v100x8"
#: (model preset, offered requests per second)
GRID: Tuple[Tuple[str, float], ...] = (
    ("gpt-small", 50.0),
    ("gpt-small", 150.0),
    ("gpt-small", 600.0),
    ("gpt-medium", 5.0),
    ("gpt-medium", 20.0),
    ("gpt-medium", 50.0),
)
SLO_MS = 1000.0
DURATION_S = 40.0
MAX_REPLICAS = 8

SETUP_CODE = (
    "import repro.serving\n"
    "from repro.planner import PlannerConfig, PlanningContext, plan_graph\n"
    "from repro.service.protocol import build_cluster, build_model\n"
    "print('ready', flush=True)\n"
)


def _points(run: Run) -> List[Dict[str, Any]]:
    rng = random.Random(run.seed)
    points = [
        {"model": model, "rps": rps, "seed": rng.randrange(2**31)}
        for model, rps in GRID
    ]
    run.params = {
        "cluster": CLUSTER,
        "slo_ms": SLO_MS,
        "duration_s": DURATION_S,
        "max_replicas": MAX_REPLICAS,
        "grid": points,
    }
    return points


def _check(run: Run, point: Dict[str, Any], summary: Dict[str, Any],
           first: Dict[int, str], index: int, op: int) -> None:
    label = f"{point['model']}@{point['rps']:g}rps"
    run.check(
        summary["requests"] == summary["workload"]["requests"],
        f"{label}: served {summary['requests']} of "
        f"{summary['workload']['requests']} requests",
        op,
    )
    sweep = summary["sweep"]
    chosen = summary["replicas"]
    misses = [p["p99_ms"] > SLO_MS for p in sweep]
    if summary["met_slo"]:
        minimal = (
            sweep[-1]["replicas"] == chosen and not misses[-1]
            and all(misses[:-1])
        )
    else:
        minimal = chosen == MAX_REPLICAS and len(sweep) == MAX_REPLICAS and all(misses)
    run.check(minimal, f"{label}: {chosen} replicas is not the smallest "
                       f"count meeting the SLO in {sweep}", op)
    doc = json.dumps(summary, sort_keys=True)
    if index not in first:
        first[index] = doc
    else:
        run.check(doc == first[index], f"{label}: repeated call differs", op)


def _sweep(run: Run, points, first: Dict[int, str], rec=None) -> Tuple[float, int]:
    """One call per grid point; returns (seconds, replicas summed).
    With a span recorder, each call is one trace."""
    from repro.serving import run_serving_sim

    start = time.perf_counter()
    summaries, ops = [], []
    for point in points:
        ops.append(run.attempt())
        if rec is not None:
            rec.trace_id += 1
        summaries.append(run_serving_sim(
            point["model"], CLUSTER, rps=point["rps"], slo_ms=SLO_MS,
            duration_s=DURATION_S, seed=point["seed"],
            max_replicas=MAX_REPLICAS,
        ))
    elapsed = time.perf_counter() - start
    for i, (point, summary, op) in enumerate(zip(points, summaries, ops)):
        _check(run, point, summary, first, i, op)
    return elapsed, sum(s["replicas"] for s in summaries)


def _knobs(run: Run) -> None:
    from host import planner_knobs
    from repro.planner import PlannerConfig

    run.knobs = planner_knobs(PlannerConfig(batch_size=32, mode="inference"))


def measure(run: Run) -> None:
    setups = subprocess_setup_s(run, SETUP_CODE)
    run.rss.start()
    points = _points(run)
    _knobs(run)
    first: Dict[int, str] = {}
    sweeps, replicas = [], []
    start = time.perf_counter()
    while run.another_fits(start, sweeps):
        elapsed, total = _sweep(run, points, first)
        sweeps.append(elapsed)
        replicas.append(total)
    run.timing("setup_s", setups, "s")
    _summarize(run, points, sweeps, replicas)
    run.put("peak_rss_mb", run.rss.peak_mb(), "MB", 1)


def _summarize(run: Run, points, sweeps: List[float], replicas: List[int]) -> None:
    """``op_ms`` is the median over sweeps of the sweep's mean call, so
    every grid point weighs in; ``ops_per_s`` counts calls."""
    run.timing("op_ms", [s * 1e3 / len(points) for s in sweeps], "ms")
    run.put("ops_per_s", len(points) * len(sweeps) / sum(sweeps), "1/s",
            len(points) * len(sweeps))
    run.put("serve_replicas", replicas[0], "count", len(points))


def measure_traced(run: Run) -> None:
    """Pairs of an unprobed and a probed sweep over the grid."""
    from spans import LayerProbes, SpanRecorder

    points = _points(run)
    _knobs(run)
    rec = SpanRecorder()
    first: Dict[int, str] = {}
    sweeps, replicas = [], []

    def once(_pair: int, probed: bool) -> float:
        if not probed:
            elapsed, total = _sweep(run, points, first)
            sweeps.append(elapsed)
            replicas.append(total)
            return elapsed
        with LayerProbes(rec):
            return _sweep(run, points, first, rec)[0]

    overhead = paired(run, once)
    _summarize(run, points, sweeps, replicas)
    finish_trace(run, rec, overhead)
