"""Quick self-test of the benchmark.

Runs every workload once at a tiny size (``--quick``), untraced and
traced, and checks that

* each run exits 0 and ends with the ``{"correct", "attempted",
  "failed", "metrics"}`` line, with ``correct`` true;
* the untraced run emits every end-to-end metric and the traced run
  every per-layer metric, each with the unit ``BENCHMARK.json``
  declares and, end to end, a value above 0;
* the traced run writes a loadable trace holding at least one span of
  each layer that workload is expected to reach, and the three traces
  together cover every layer the probes record.

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("plan-10k", "daemon-mix", "serve-sim")

_PASSES = ("validate", "atomic_partition", "coarsen", "profile_tensors",
           "stage_search", "allocate", "evaluate", "verify")

#: span names each workload's trace must contain
SPANS = {
    "plan-10k": {
        "graph.validate", "partitioner.atomic", "partitioner.blocks.coarsen",
        "partitioner.search", "partitioner.allocation", "pipeline.evaluate",
        "pipeline.timeline", "verify", "profiler.stats", "planner.plan_graph",
    } | {f"planner.pass.{p}" for p in _PASSES},
    "daemon-mix": {
        "graph.validate", "verify", "partitioner.search",
        "partitioner.deployment.encode", "partitioner.deployment.decode",
        "planner.store.get", "planner.store.materialize", "planner.store.put",
        "planner.store.refresh", "planner.repair",
        "service.protocol.normalize", "service.engine.handle",
        "service.client.request", "planner.pass.cache_load",
        "planner.pass.cache_store",
    },
    "serve-sim": {
        "serving.run", "serving.workload", "serving.simulator",
        "serving.autoscale", "planner.plan_graph",
    },
}


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["failed"] == 0, doc
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1, doc
    return doc


def main() -> int:
    sys.path.insert(0, str(HERE))
    from layers import PASSES
    from spans import FUNCTION_PROBES, METHOD_PROBES

    probed = {p[0] for p in FUNCTION_PROBES + METHOD_PROBES if p[0]}
    probed |= {f"planner.pass.{p}" for p in PASSES}

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    seen_spans = set()
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            want = set(units)
            metrics = _run(workload, trace)["metrics"]
            assert set(metrics) == want, (
                f"{workload} trace={trace}: missing {sorted(want - set(metrics))}, "
                f"extra {sorted(set(metrics) - want)}"
            )
            for name, value in metrics.items():
                assert value["unit"] == units[name], (name, value)
                assert isinstance(value["value"], (int, float)), (name, value)
                assert trace == 1 or value["value"] > 0, (name, value)
            print(f"ok  {workload:10s} trace={trace}: {len(metrics)} metrics")
        path = ROOT / ".perfbench" / "out" / f"trace-{workload}-seed7.json"
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        names = {e["name"] for e in events}
        missing = SPANS[workload] - names
        assert not missing, f"{workload}: no spans for {sorted(missing)}"
        seen_spans |= names
        print(f"ok  {workload:10s} trace loads: {len(events)} spans")
    missing = probed - seen_spans
    assert not missing, f"no workload traced {sorted(missing)}"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
