"""Algorithm 2 (``form_stage``): the outer search loop.

Iterates over the number of compute nodes ``n`` (doubling from 1, skipping
spans that do not divide the node count), derives the devices available to
one pipeline ``D = D_node x n`` and the pipeline replica factor ``R = N /
n``, then tries stage counts ``S`` in the range ``(D_node x (n-1), D_node
x n]`` and microbatch counts ``MB`` doubling from 1.  The first stage
count that yields any feasible DP solution wins; among its microbatch
variants the one with the best estimated iteration time is returned.

The ``(S, MB)`` candidates of one node level are independent DP problems
over a shared :class:`DPContext`.  Two backends are available
(``backend=``): ``"serial"`` (the default) solves them one after another
on the calling thread, while ``"process"`` forks the context into a
:class:`~concurrent.futures.ProcessPoolExecutor` for parallelism on big
sweeps -- the context pickles via its ``export/import_cache_state``
snapshot, candidates are chunked by microbatch count so each worker
shares its profile caches across the stage counts it owns, and the
parent *replays* every worker's ``dp_calls`` / ``states_evaluated``
deltas in candidate order.  Under both backends the winner is selected
from the results in the serial sweep's candidate order, so the returned
plan and all statistics are identical.

Aligning ``D`` to whole nodes keeps each pipeline inside as few nodes as
possible, which is why stage-to-stage transfers are costed at intra-node
bandwidth (footnote 3 of the paper).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, point_name
from repro.obs.tracer import Tracer
from repro.partitioner.stage_dp import DPContext, DPSolution, form_stage_dp

#: accepted values for the Algorithm-2 ``backend`` knob /
#: ``PlannerConfig.search_backend``
SEARCH_BACKENDS = ("serial", "process")

#: per-worker DP context of a process-pool sweep, installed once by the
#: pool initializer so every chunk the worker executes shares its caches
_WORKER_CTX: Optional[DPContext] = None


def _init_search_worker(ctx: DPContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _run_candidate_chunk(
    chunk: List[Tuple[int, int]],
    D: int,
    batch_size: int,
    R: int,
    engine: str,
) -> List[Tuple[Optional[DPSolution], bool, int]]:
    """Worker body: solve a chunk of ``(S, MB)`` candidates on the
    worker-global context, reporting per-candidate counter deltas
    ``(solution, dp_call_made, states_evaluated)`` so the parent can
    replay them deterministically."""
    ctx = _WORKER_CTX
    assert ctx is not None, "process-pool worker used before initialization"
    out: List[Tuple[Optional[DPSolution], bool, int]] = []
    for S, MB in chunk:
        calls0 = ctx.dp_calls
        states0 = ctx.states_evaluated
        sol = form_stage_dp(ctx, S, D, batch_size, R, MB, engine=engine)
        out.append(
            (sol, ctx.dp_calls > calls0, ctx.states_evaluated - states0)
        )
    return out


def _solve_candidates_process(
    ctx: DPContext,
    pairs: List[Tuple[int, int]],
    D: int,
    batch_size: int,
    R: int,
    workers: int,
    engine: str,
    metrics: Optional[MetricsRegistry],
) -> Dict[Tuple[int, int], Optional[DPSolution]]:
    """Evaluate candidates on a process pool, then replay the workers'
    counter deltas in candidate order.

    The replay makes ``ctx.dp_calls`` / ``ctx.states_evaluated`` and the
    ``dp.*`` metrics (totals, per-``(S, MB)`` points, the states
    histogram and the infeasible count) come out identical to a serial
    sweep; per-candidate tracer spans are not recorded, since spans
    cannot cross the process boundary.
    """
    chunks: Dict[int, List[Tuple[int, int]]] = {}
    for pair in pairs:
        chunks.setdefault(pair[1], []).append(pair)
    results: Dict[Tuple[int, int], Optional[DPSolution]] = {}
    stats: Dict[Tuple[int, int], Tuple[bool, int]] = {}
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_search_worker,
        initargs=(ctx,),
    ) as pool:
        futures = {
            mb: pool.submit(
                _run_candidate_chunk, chunk, D, batch_size, R, engine
            )
            for mb, chunk in chunks.items()
        }
        for mb, fut in futures.items():
            for pair, (sol, made_call, states) in zip(
                chunks[mb], fut.result()
            ):
                results[pair] = sol
                stats[pair] = (made_call, states)
    for S, MB in pairs:
        made_call, states = stats[(S, MB)]
        if not made_call:
            continue  # stage count out of range: no DP call was made
        ctx._count_dp_call()
        ctx._count_states(states)
        if metrics is not None:
            metrics.counter("dp.calls").inc()
            metrics.counter("dp.states_evaluated").inc(states)
            metrics.counter(
                point_name("dp.states_evaluated", S=S, MB=MB)
            ).inc(states)
            metrics.histogram("dp.states_per_call").observe(states)
            if results[(S, MB)] is None:
                metrics.counter("dp.infeasible").inc()
    return results


@dataclass
class SearchResult:
    """Outcome of Algorithm 2."""

    solution: DPSolution
    num_pipeline_nodes: int   # n: nodes spanned by one pipeline
    devices_per_pipeline: int  # D
    replica_factor: int        # R
    candidates_tried: int
    dp_calls: int

    @property
    def num_stages(self) -> int:
        return self.solution.num_stages


def _solve_candidates(
    ctx: DPContext,
    pairs: List[Tuple[int, int]],
    D: int,
    batch_size: int,
    R: int,
    max_workers: Optional[int],
    backend: str = "serial",
    engine: str = "numpy",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[Tuple[int, int], Optional[DPSolution]]:
    """Run ``form_stage_dp`` for every ``(S, MB)`` candidate pair.

    Returns results keyed by pair so the caller ranks them in candidate
    order regardless of worker completion order.  When a tracer is
    given, every candidate of a serial sweep carries its own
    ``dp.form_stage_dp`` span, nested under the span open on the calling
    thread.
    """
    if backend not in SEARCH_BACKENDS:
        raise ValueError(
            f"unknown search backend {backend!r}; "
            f"expected one of {SEARCH_BACKENDS}"
        )
    workers = max_workers or min(len(pairs), os.cpu_count() or 1)
    if backend == "serial" or len(pairs) <= 1 or workers <= 1:
        # A one-worker process pool would pay fork + context-pickle cost
        # for zero concurrency (e.g. single-core hosts), so it degrades
        # to the serial sweep -- same results, counters and plan.
        return {
            (S, MB): form_stage_dp(
                ctx, S, D, batch_size, R, MB, engine=engine,
                tracer=tracer, metrics=metrics,
            )
            for S, MB in pairs
        }
    return _solve_candidates_process(
        ctx, pairs, D, batch_size, R, workers, engine, metrics
    )


def form_stage(
    ctx: DPContext,
    num_nodes: int,
    devices_per_node: int,
    batch_size: int,
    max_microbatches: Optional[int] = None,
    search_all_stage_counts: bool = True,
    max_workers: Optional[int] = None,
    backend: str = "serial",
    engine: str = "numpy",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[SearchResult]:
    """Algorithm 2: search over (n, S, MB) for the best feasible plan.

    Args:
        ctx: DP context over the block list (fixes the model + profiler).
        num_nodes: total compute nodes N.
        devices_per_node: devices per node (D_node).
        batch_size: global batch size BS.
        max_microbatches: optional cap on MB (None: up to BS / R).
        search_all_stage_counts: the pseudocode returns at the FIRST stage
            count with any feasible solution; with this flag (default) all
            stage counts of the current node level compete and the best
            estimated iteration time wins.  The strict reading can return
            a pipeline several stages shorter than optimal (see DESIGN.md,
            deviation D2); both modes are tested.
        max_workers: worker-pool size (default: CPU count, capped at the
            candidate count).
        backend: one of :data:`SEARCH_BACKENDS` -- ``"serial"``
            (default) or ``"process"`` (the context is forked to the
            workers and counter deltas are replayed in candidate order).
        engine: DP evaluation engine, forwarded to every
            :func:`form_stage_dp` call (see
            :data:`~repro.partitioner.stage_dp.DP_ENGINES`).
        tracer: optional tracer; each node level gets a ``search.level``
            span and, in a serial sweep, each ``(S, MB)`` candidate a
            ``dp.form_stage_dp`` span nested under it.
        metrics: optional metrics registry, forwarded to every DP call.

    Returns:
        A :class:`SearchResult`, or ``None`` if no configuration fits.
    """
    if batch_size != ctx.batch_size:
        raise ValueError("batch size mismatch with DPContext")
    if tracer is not None and not tracer.enabled:
        tracer = None
    hetero = ctx.cluster.is_heterogeneous
    if hetero:
        # heterogeneous levels: ``n`` counts a PREFIX of nodes in class
        # declaration order, so ``D`` is that prefix's device total (the
        # per-node counts may differ across classes).  Divisibility is
        # not required -- replicas beyond ``total // D`` stay idle and
        # the DP's position-aware tables price the slots each band
        # actually lands on -- so the doubling sweep always ends on the
        # full-cluster level.
        offsets = ctx.cluster.node_first_ranks()
        total_devices = ctx.cluster.total_devices
        levels: List[int] = []
        lvl = 1
        while lvl < num_nodes:
            levels.append(lvl)
            lvl *= 2
        levels.append(num_nodes)
    else:
        # a span that does not divide the node count (e.g. n=2 on 3
        # nodes) has no integral replica factor; skip the level and
        # keep doubling rather than aborting the search
        levels = []
        lvl = 1
        while lvl <= num_nodes:
            if num_nodes % lvl == 0:
                levels.append(lvl)
            lvl *= 2
    dp_calls = 0
    tried = 0
    for n in levels:
        if hetero:
            D = offsets[n]
            R = total_devices // D
            s_lo = offsets[n - 1] + 1
            s_hi = offsets[n]
        else:
            D = devices_per_node * n
            R = num_nodes // n
            s_lo = devices_per_node * (n - 1) + 1
            s_hi = devices_per_node * n
        mb_cap = batch_size // R
        if max_microbatches is not None:
            mb_cap = min(mb_cap, max_microbatches)
        microbatch_counts: List[int] = []
        MB = 1
        while MB <= mb_cap:
            microbatch_counts.append(MB)
            MB *= 2

        def run_level(pairs: List[Tuple[int, int]]) -> List[DPSolution]:
            results = _solve_candidates(
                ctx, pairs, D, batch_size, R, max_workers,
                backend=backend, engine=engine,
                tracer=tracer, metrics=metrics,
            )
            return [
                results[pair] for pair in pairs if results[pair] is not None
            ]

        level_cm = (
            tracer.span(
                "search.level", category="partitioner.search",
                n=n, D=D, R=R,
            )
            if tracer is not None
            else nullcontext(None)
        )
        with level_cm as level_span:
            if search_all_stage_counts:
                pairs = [
                    (S, MB)
                    for S in range(s_lo, s_hi + 1)
                    for MB in microbatch_counts
                ]
                solutions = run_level(pairs)
                dp_calls += len(pairs)
                tried += len(solutions)
            else:
                # strict pseudocode: stop at the FIRST feasible stage
                # count, so stage counts stay sequential (only MB fans
                # out)
                solutions = []
                for S in range(s_lo, s_hi + 1):
                    pairs = [(S, MB) for MB in microbatch_counts]
                    solutions = run_level(pairs)
                    dp_calls += len(pairs)
                    tried += len(solutions)
                    if solutions:
                        break
            if level_span is not None:
                level_span.set(feasible_candidates=len(solutions))
            if solutions:
                best = min(
                    solutions, key=lambda s: s.estimated_iteration_time()
                )
                if level_span is not None:
                    level_span.set(
                        winner_stages=best.num_stages,
                        winner_microbatches=best.num_microbatches,
                    )
                return SearchResult(
                    solution=best,
                    num_pipeline_nodes=n,
                    devices_per_pipeline=D,
                    replica_factor=R,
                    candidates_tried=tried,
                    dp_calls=dp_calls,
                )
    return None
