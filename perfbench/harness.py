"""Run state and helpers shared by the workload modules."""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from host import TreeRSS, median, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class Run:
    """State of one benchmark run, shared with the workload modules."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = float(args.seconds)
        self.trace: bool = bool(args.trace)
        self.quick: bool = bool(args.quick)
        self.outdir = ROOT / ".perfbench" / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        tmp_parent = ROOT / ".perfbench" / "tmp"
        tmp_parent.mkdir(parents=True, exist_ok=True)
        self.tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
        self.rss = TreeRSS()
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: operations with at least one failed check; a failure tied to
        #: no operation (a set-up step) counts on its own
        self.failed_ops: Set[Any] = set()
        self.params: Dict[str, Any] = {}
        self.knobs: Dict[str, Any] = {}
        self.lines: List[str] = []

    # ------------------------------------------------------------------
    def attempt(self) -> int:
        """Count one operation; returns its id for :meth:`check`."""
        self.attempted += 1
        return self.attempted

    @property
    def failed(self) -> int:
        """Failed operations (each counted once, however many of its
        checks failed)."""
        return len(self.failed_ops)

    def fail(self, message: str, op: Optional[int] = None) -> None:
        self.failed_ops.add(op if op is not None else ("step", len(self.failures)))
        self.failures.append(message)
        print(f"CHECK FAILED: {message}", flush=True)

    def check(self, ok: bool, message: str, op: Optional[int] = None) -> bool:
        if not ok:
            self.fail(message, op)
        return ok

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def timing(self, name: str, values: Sequence[float], unit: str) -> None:
        """Record a timing as its median; note the tail percentile."""
        if not values:
            self.fail(f"{name}: no samples")
            return
        self.put(name, median(values), unit, len(values))
        tail = tail_percentile(values)
        if tail is not None:
            self.note(
                f"{name}: p50 {median(values):.6g} {unit}, "
                f"p{tail[0]:g} {tail[1]:.6g} {unit}, n={len(values)}"
            )
        else:
            self.note(
                f"{name}: p50 {median(values):.6g} {unit}, n={len(values)} "
                f"(too few samples for a tail percentile)"
            )

    def note(self, line: str) -> None:
        self.lines.append(line)
        print(line, flush=True)

    def env(self) -> Dict[str, str]:
        """Environment for a child Python process running the program."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def another_fits(self, started: float, walls: Sequence[float]) -> bool:
        """Whether one more iteration, as long as the median of
        ``walls`` so far, ends within the run's seconds (the first
        always runs)."""
        return not walls or (
            time.perf_counter() - started + median(walls) <= self.seconds
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.tmpdir, ignore_errors=True)


#: fresh-interpreter set-ups per run; their median is ``setup_s``
SETUP_REPEATS = 7


def subprocess_setup_s(run: Run, code: str) -> List[float]:
    """Seconds from spawning a fresh interpreter that runs ``code`` to
    its ``ready`` line, ``SETUP_REPEATS`` times (once with ``--quick``):
    the workload's set-up."""
    samples = []
    for _ in range(1 if run.quick else SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=str(ROOT), env=run.env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                run.fail(f"set-up process printed {line!r}, not 'ready'")
            else:
                samples.append(elapsed)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0:
                run.fail(f"set-up process exited with {proc.returncode}")
    return samples


def paired(run: Run, once: Callable[[int, bool], float]) -> float:
    """The traced run's loop: pairs of ``once(pair, probed)`` calls,
    unprobed and probed on the same inputs, alternating which goes
    first, while another pair fits in the run's time.  ``once`` returns
    the call's wall seconds; returns the tracing overhead, the median
    over pairs of probed over unprobed wall, minus one."""
    ratios: List[float] = []
    pairs: List[float] = []
    start = time.perf_counter()
    while run.another_fits(start, pairs):
        began = time.perf_counter()
        index = len(pairs)
        wall = {}
        for probed in (False, True) if index % 2 == 0 else (True, False):
            wall[probed] = once(index, probed)
        ratios.append(wall[True] / wall[False])
        pairs.append(time.perf_counter() - began)
    return median(ratios) - 1.0


def finish_trace(run: Run, rec, overhead: float) -> None:
    """Per-layer metrics, the trace file and the self-time tables.
    Metrics the workload already put are kept."""
    from layers import UNITS, layer_self_table, pass_self_table, span_metrics
    from spans import write_perfetto

    metrics = span_metrics(rec)
    metrics["obs.trace_overhead_share"] = (overhead, "ratio", 1)
    for name, unit in UNITS.items():
        # a layer this workload never reaches did no work
        metrics.setdefault(name, (0.0, unit, 0))
    for name, (value, unit, n) in metrics.items():
        if name not in run.metrics:
            run.put(name, value, unit, n)
    path = run.outdir / f"trace-{run.workload}-seed{run.seed}.json"
    events = write_perfetto(path, rec)
    run.note(f"trace: {events} spans written to {path.relative_to(ROOT)}")
    run.note("pass self time (median per run of the pass):")
    for name, wall, self_ms, n in pass_self_table(rec):
        run.note(f"  {name:18s} wall {wall:10.3f} ms  self {self_ms:10.3f} ms  n={n}")
    run.note("layer self time (total over the traced run):")
    for name, wall, self_ms, n in layer_self_table(rec):
        run.note(f"  {name:32s} wall {wall:10.1f} ms  self {self_ms:10.1f} ms  n={n}")
