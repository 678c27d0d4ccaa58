"""Host-side helpers: statistics, peak RSS read from the OS, fingerprint.

Peak RSS is read from ``/proc/<pid>/status`` (``VmHWM``, the kernel's
resident high-water mark) for the benchmark process and every process
it starts, found through ``/proc/<pid>/task/<tid>/children``.  A
sampler thread polls the process tree so short-lived pool workers are
counted too; the reported figure is the sum of each process's own
high-water mark.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: percentiles considered for the tail figure, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest percentile with at least ten
    samples beyond it, or ``None`` when there are too few samples."""
    n = len(values)
    for q in _TAILS:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, percentile(values, q)
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# peak RSS from the OS
# ----------------------------------------------------------------------
def _hwm_kib(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # the process exited between listing and reading
        return None
    return None


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return kids


class TreeRSS:
    """Tracks the resident high-water mark of the process tree under
    ``root`` (the benchmark process by default).

    A poller started with :meth:`start` samples the tree every
    ``interval`` seconds, so processes that exit before the end are
    counted; :meth:`peak_mb` samples once more and sums the per-process
    peaks.
    """

    def __init__(self, root: Optional[int] = None, interval: float = 0.25) -> None:
        self.root = os.getpid() if root is None else root
        self._peak_kib: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._interval = interval
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        stack, seen = [self.root], set()
        while stack:
            pid = stack.pop()
            if pid in seen:
                continue
            seen.add(pid)
            kib = _hwm_kib(pid)
            if kib is not None:
                with self._lock:
                    if kib > self._peak_kib.get(pid, 0):
                        self._peak_kib[pid] = kib
            stack.extend(_children(pid))

    def peak_mb(self) -> float:
        self.sample()
        with self._lock:
            return sum(self._peak_kib.values()) / 1024.0

    def start(self) -> "TreeRSS":
        def _poll() -> None:
            while not self._stop.wait(self._interval):
                self.sample()

        self._thread = threading.Thread(target=_poll, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def self_peak_mb() -> float:
    """Resident high-water mark of this process alone (MiB)."""
    return (_hwm_kib(os.getpid()) or 0) / 1024.0


# ----------------------------------------------------------------------
# host and config fingerprint
# ----------------------------------------------------------------------
def fingerprint(seed: int, workload: str, params: Dict) -> Dict:
    """What produced a number: host, toolchain, engine knobs, inputs."""
    import importlib.util

    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
    }


def planner_knobs(config, k: Optional[int] = None, devices: Optional[int] = None) -> Dict:
    """The DP engine / search backend / worker count a config runs with.

    ``dp_engine_mode`` is the evaluation mode the engine knob resolves to
    for a ``k``-block, ``devices``-device DP call (when given), so a
    "numba" row that ran NumPy cannot be mislabelled.
    """
    from repro.partitioner.stage_dp import resolve_dp_engine

    doc = {
        "dp_engine": config.dp_engine,
        "search_backend": config.search_backend,
        "parallel_search": config.parallel_search,
        "search_workers": config.search_workers
        if config.search_workers is not None
        else f"min(candidates, {os.cpu_count()})",
    }
    if k is not None and devices is not None:
        doc["dp_engine_mode"] = resolve_dp_engine(config.dp_engine, k, devices)
    return doc
