"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-10k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload daemon-mix --seed 1 --seconds 25 --trace 1
    python3 perfbench/selftest.py          # quick check of every workload

``--trace 0`` measures the end-to-end metrics with no probes installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``layers.py``), the tracing overhead and every pass's self
time, and writes a Perfetto-loadable trace.  Every run also prints its
host and config fingerprint and each metric with its unit and sample
count, writes the whole result under ``.perfbench/out/``, and prints as
its last line the JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Any failed output check exits with status 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import Optional, Sequence

from harness import ROOT, SRC, Run

WORKLOADS = ("plan-10k", "daemon-mix", "serve-sim")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one pass over each (self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC.relative_to(ROOT)}/repro) "
              f"are not in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from host import fingerprint

    run = Run(args)
    module = {
        "plan-10k": "plan10k",
        "daemon-mix": "daemon_mix",
        "serve-sim": "serve_sim",
    }[run.workload]
    workload = importlib.import_module(module)
    wall_start = time.perf_counter()
    try:
        if run.trace:
            workload.measure_traced(run)
        else:
            workload.measure(run)
    finally:
        run.rss.stop()
        run.cleanup()
    names = _declared(run.trace)
    for name in sorted(names - set(run.metrics) - {"failed_share"}):
        run.fail(f"{name}: declared in BENCHMARK.json but not measured")
    failed = run.failed
    attempted = max(run.attempted, failed, 1)
    run.put("failed_share", failed / attempted, "ratio", attempted)
    fp = fingerprint(run.seed, run.workload, run.params)
    fp["planner"] = run.knobs
    fp["trace"] = run.trace
    fp["seconds"] = run.seconds
    fp["wall_s"] = time.perf_counter() - wall_start
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for name, (value, unit, n) in sorted(run.metrics.items()):
        print(f"metric {name} = {value:.9g} {unit} (n={n})")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _n) in run.metrics.items()
        if name in names
    }
    doc = {
        "fingerprint": fp,
        "metrics": {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in run.metrics.items()
        },
        "failures": run.failures,
        "notes": run.lines,
    }
    tag = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    with open(run.outdir / f"result-{tag}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _declared(trace: bool) -> set:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
