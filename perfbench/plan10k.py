"""plan-10k: cold, verified ``plan_graph`` calls on a 10,086-task graph.

``gpt3_like(depth=420)`` with 768 blocks requested (effective k = 282)
on the 4-node ``v100x32`` preset at batch 2048, default DP engine and
search backend, a fresh ``PlanningContext`` and no store per plan.
Coarsening, the profile tensors and the stage search take nearly all of
the time; the daemon, the store and ``repro.serving`` do no work.

One operation is one plan: ``op_ms`` is the median plan's wall time and
``ops_per_s`` the plans completed per second of planning.  The input is
fixed, because every plan is checked against the values recorded when
the benchmark was created; the seed is recorded only.
"""

from __future__ import annotations

import time

from host import median, planner_knobs
from harness import Run, finish_trace, paired, subprocess_setup_s

DEPTH = 420
NUM_BLOCKS = 768
BATCH_SIZE = 2048
CLUSTER = "v100x32"

#: the plan every run must reproduce (repro.verify on)
EXPECTED = {
    "num_stages": 16,
    "iteration_time": 467.7358076618374,
    "dp_calls": 168,
    "candidates": 7,
    "states": 717436,
}

SETUP_CODE = (
    "from repro.models import gpt3_like\n"
    "from repro.planner import PlannerConfig, PlanningContext, plan_graph\n"
    "from repro.service.protocol import build_cluster\n"
    f"gpt3_like(depth={DEPTH})\n"
    f"build_cluster({{'preset': '{CLUSTER}'}})\n"
    "print('ready', flush=True)\n"
)


def _inputs(run: Run):
    from repro.models import gpt3_like
    from repro.planner import PlannerConfig
    from repro.service.protocol import build_cluster

    run.params = {
        "model": f"gpt3_like(depth={DEPTH})",
        "cluster": CLUSTER,
        "batch_size": BATCH_SIZE,
        "num_blocks": NUM_BLOCKS,
    }
    graph = gpt3_like(depth=DEPTH)
    cluster, _ = build_cluster({"preset": CLUSTER})
    config = PlannerConfig(batch_size=BATCH_SIZE, num_blocks=NUM_BLOCKS)
    run.params["tasks"] = len(graph.tasks)
    return graph, cluster, config


def _plan(run: Run, graph, cluster, config):
    """One cold plan, checked; returns ``(seconds, plan)``."""
    from repro.planner import VERIFIED, PlanningContext, plan_graph

    op = run.attempt()
    ctx = PlanningContext(graph, cluster, config)
    start = time.perf_counter()
    plan = plan_graph(graph, cluster, config, context=ctx)
    elapsed = time.perf_counter() - start
    diag = plan.diagnostics
    got = {
        "num_stages": plan.num_stages,
        "iteration_time": plan.iteration_time,
        "dp_calls": diag.dp_calls,
        "candidates": diag.candidates_tried,
        "states": diag.states_evaluated,
    }
    run.check(got == EXPECTED, f"plan {got} differs from the recorded {EXPECTED}", op)
    run.check(ctx.has(VERIFIED), "plan was not verified", op)
    if not run.knobs:
        run.knobs = planner_knobs(config, diag.num_blocks, plan.devices_per_pipeline)
    return elapsed, plan


def measure(run: Run) -> None:
    setups = subprocess_setup_s(run, SETUP_CODE)
    run.rss.start()
    graph, cluster, config = _inputs(run)
    times, iters = [], []
    start = time.perf_counter()
    while run.another_fits(start, times):
        elapsed, plan = _plan(run, graph, cluster, config)
        times.append(elapsed)
        iters.append(plan.iteration_time)
    run.timing("setup_s", setups, "s")
    run.timing("op_ms", [t * 1e3 for t in times], "ms")
    run.put("ops_per_s", len(times) / sum(times), "1/s", len(times))
    run.put("plan_iter_s", median(iters), "pred_s", len(iters))
    run.put("peak_rss_mb", run.rss.peak_mb(), "MB", 1)


def measure_traced(run: Run) -> None:
    """Pairs of an unprobed and a probed plan; spans come from the
    probed ones, the overhead from the pairs."""
    from spans import LayerProbes, SpanRecorder

    graph, cluster, config = _inputs(run)
    rec = SpanRecorder()
    iters = []

    def once(_pair: int, probed: bool) -> float:
        if not probed:
            elapsed, plan = _plan(run, graph, cluster, config)
            iters.append(plan.iteration_time)
            return elapsed
        rec.trace_id += 1
        with LayerProbes(rec), rec.span("plan10k.plan"):
            return _plan(run, graph, cluster, config)[0]

    overhead = paired(run, once)
    run.put("plan_iter_s", median(iters), "pred_s", len(iters))
    finish_trace(run, rec, overhead)
