"""Planner scaling: plan time and peak RSS vs graph size, per DP engine.

The claim of the banded DP engine: on a >10k-task graph
(``gpt3_like(depth=420)``, coarsened to an effective k = 282 blocks)
it plans at least 2x faster than the per-(s, b) row engine on the same
process-pool sweep, with peak RSS that grows with ``O(k * band)``
instead of the row engine's dense ``O(k^2 * D)`` profile tensors.

Every measurement runs in a fresh subprocess (``--single``) so
``resource.getrusage`` high-water marks are per-configuration, not
cumulative over the sweep.  Run directly to emit the machine-readable
snapshot CI archives::

    PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_scale.json

``--quick`` measures only the smallest size (smoke mode), ``--depths``
overrides the size ladder.  The emitted JSON records, per size and
engine configuration, wall times (total / stage search / coarsening),
peak RSS, and the speedup over the ``rows+process`` baseline.
"""

import argparse
import json
import os
import subprocess
import sys
import time

#: (gpt3_like depth, requested num_blocks): each decoder layer traces to
#: ~24 tasks, so depth=420 is a 10k-task graph.  The coarsener's balance
#: threshold can stop above the request (420 yields an effective k = 282,
#: reported as ``num_blocks_effective``) -- the regime where the row
#: engine's O(k^2 D) profile slabs dominate while the banded engine
#: stays near-flat.
SIZES = {105: 128, 210: 256, 420: 768}

#: (label, dp_engine, search_backend).  "rows+process" is the baseline:
#: the per-(s, b) row engine on the same process-pool sweep as the gated
#: "banded+process" row, so the gate measures the engine alone.
CONFIGS = [
    ("rows+process", "rows", "process"),
    ("banded+serial", "numpy", "serial"),
    ("banded+process", "numpy", "process"),
]
BASELINE = "rows+process"
GATED = "banded+process"

BATCH_SIZE = 2048
NUM_NODES = 4  # v100x32


def run_single(depth: int, num_blocks: int, engine: str, backend: str) -> dict:
    """Plan once in-process and return the measurement (used via a
    subprocess so peak RSS is isolated per configuration)."""
    from repro.hardware.presets import paper_cluster
    from repro.models import gpt3_like
    from repro.obs import peak_rss_bytes
    from repro.planner import PlannerConfig, PlanningContext, plan_graph

    graph = gpt3_like(depth=depth)
    cluster = paper_cluster(num_nodes=NUM_NODES)
    cfg = PlannerConfig(
        batch_size=BATCH_SIZE,
        num_blocks=num_blocks,
        verify=False,
        dp_engine=engine,
        search_backend=backend,
    )
    ctx = PlanningContext(graph, cluster, cfg)
    t0 = time.perf_counter()
    plan = plan_graph(graph, cluster, cfg, context=ctx)
    plan_s = time.perf_counter() - t0
    timings = ctx.events.timings()
    return {
        "depth": depth,
        "num_tasks": len(graph.tasks),
        "num_blocks": num_blocks,
        # The coarsener's balance threshold can stop above the request;
        # this is the k the DP actually ran at.
        "num_blocks_effective": plan.stages[-1].block_range[1],
        "engine": engine,
        "backend": backend,
        "plan_s": plan_s,
        "search_s": timings.get("stage_search"),
        "coarsen_s": timings.get("coarsen"),
        "peak_rss_bytes": peak_rss_bytes(),
        "num_stages": plan.num_stages,
        "dp_calls": int(plan.diagnostics.dp_calls),
        "states_evaluated": int(plan.diagnostics.states_evaluated),
    }


def measure(depth, num_blocks, engine, backend, timeout=1800) -> dict:
    """Run one configuration in a fresh interpreter, return its JSON."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--single",
        str(depth), str(num_blocks), engine, backend,
    ]
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement failed ({engine}/{backend}, depth={depth}):\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sweep(depths, timeout=1800) -> dict:
    doc = {
        "cpu_count": os.cpu_count(),
        "batch_size": BATCH_SIZE,
        "num_nodes": NUM_NODES,
        "sizes": [],
    }
    for depth in depths:
        num_blocks = SIZES[depth]
        entry = {"depth": depth, "num_blocks": num_blocks, "engines": {}}
        for label, engine, backend in CONFIGS:
            m = measure(depth, num_blocks, engine, backend, timeout=timeout)
            entry["engines"][label] = m
            entry["num_tasks"] = m["num_tasks"]
            rss = m["peak_rss_bytes"]
            rss_mib = f"{rss / 2**20:7.1f}MiB" if rss else "      ?"
            print(
                f"depth={depth:<4} k={m['num_blocks_effective']:<4} {label:<14} "
                f"plan={m['plan_s']:7.2f}s search={m['search_s']:7.2f}s "
                f"rss={rss_mib} stages={m['num_stages']}",
                file=sys.stderr,
            )
        base = entry["engines"][BASELINE]
        entry["speedup_vs_rows"] = {
            label: base["plan_s"] / entry["engines"][label]["plan_s"]
            for label, _, _ in CONFIGS
            if label != BASELINE
        }
        entry["search_speedup_vs_rows"] = {
            label: base["search_s"] / entry["engines"][label]["search_s"]
            for label, _, _ in CONFIGS
            if label != BASELINE
        }
        doc["sizes"].append(entry)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="planner scaling snapshot: plan time + RSS vs size"
    )
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument(
        "--single", nargs=4, metavar=("DEPTH", "BLOCKS", "ENGINE", "BACKEND"),
        help="internal: measure one configuration and print JSON",
    )
    parser.add_argument(
        "--depths", type=int, nargs="+", default=sorted(SIZES),
        choices=sorted(SIZES),
        help="gpt3_like depths to sweep (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest size only (smoke mode)",
    )
    parser.add_argument(
        "--timeout", type=int, default=1800,
        help="per-measurement subprocess timeout in seconds",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"fail unless the largest size's {GATED} plan-time "
        f"speedup over {BASELINE} reaches this factor",
    )
    args = parser.parse_args(argv)

    if args.single:
        depth, num_blocks = int(args.single[0]), int(args.single[1])
        result = run_single(depth, num_blocks, args.single[2], args.single[3])
        print(json.dumps(result))
        return 0

    depths = [min(SIZES)] if args.quick else sorted(args.depths)
    doc = run_sweep(depths, timeout=args.timeout)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}", file=sys.stderr)

    if args.min_speedup is not None:
        top = doc["sizes"][-1]
        got = top["speedup_vs_rows"][GATED]
        verdict = "OK" if got >= args.min_speedup else "FAIL"
        print(
            f"{verdict}: {GATED} speedup over {BASELINE} {got:.2f}x "
            f"({'>=' if verdict == 'OK' else '<'} {args.min_speedup:.2f}x) "
            f"at depth={top['depth']}",
            file=sys.stderr,
        )
        if verdict == "FAIL":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
