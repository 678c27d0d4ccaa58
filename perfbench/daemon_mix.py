"""daemon-mix: ``repro serve`` driven by a seeded closed-loop request mix.

The daemon runs as its own process, as deployed (``repro serve --port 0
--workers 2``), with a disk-backed store in a fresh directory.  The
benchmark drives it in a closed loop, since the daemon's callers wait
for their plan: one keep-alive connection sends the next request when
the last one is answered, and a second joins it for bursts.  One
connection, not two, keeps each request's latency free of contention
with a neighbour that happens to overlap it, so the figures repeat.

The run is a sequence of whole episodes, each a fresh daemon and store
fed one seeded request sequence, so the work per daemon, and so its
memory, does not grow with throughput.  An episode first sends each of
the nine pinned combos once (the first request per model is cold, the
rest are cluster-resize deltas), then a shuffled mix of

* warm repeats (base requests, or repeats of earlier deltas),
* fresh-knob deltas (``memory_budget_gb`` or ``max_microbatches``
  values not sent before), which rerun the stage search over reused
  profile tensors,
* three ``/v1/repair`` events, one per model on ``v100x32``: a
  ``node_loss`` and a ``preemption`` of a seeded node and a
  ``scale_up`` by a seeded one or two nodes,
* a burst, in which both connections send the same fresh delta at once
  so the daemon's coalescing path runs.

Every episode has the same number of requests of each kind; the seed
picks their order, combos, knob values, lost nodes and growth.  Each
repair leaves a cluster shape no other request planned, so its full
replan fallback is not answered from the store.  The
proportions (90 warm : 18 deltas : 3 repairs : 1 burst) are an
assumption, not taken from measured traffic: mostly warm, a minority of
deltas, repairs rare.  Latencies are grouped by the class the daemon
reports (``meta.cache``), and each run prints every class's share of the
mix's wall time, so it shows what ``ops_per_s`` is made of.  One
operation is one request: ``op_ms`` is the median round trip over every
class (a warm request, given the mix) and ``ops_per_s`` the mix's
requests per second, which the deltas dominate.

After each episode, outside the timed mix and the memory measurement,
every distinct plan document served (repaired ones included) goes back
to the daemon's ``POST /v1/verify``, which restores it against the model
and the post-event cluster and holds it to every ``repro.verify``
invariant.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import cycle
from typing import Any, Dict, List, Optional, Tuple

from harness import ROOT, Run, finish_trace, paired
from host import TreeRSS, geomean, median, percentile, self_peak_mb, tail_percentile

MODELS = {
    "bert-base": ({"preset": "bert-base"}, 256),
    "bert-large": ({"preset": "bert-large"}, 256),
    "resnet50x8": ({"family": "resnet", "depth": 50, "width_factor": 8}, 512),
}
CLUSTERS = {"v100x8": 1, "v100x16": 2, "v100x32": 4}
COMBOS = tuple((m, c) for m in MODELS for c in CLUSTERS)
PINNED = ROOT / "tests" / "data" / "pinned_plans.json"

#: warm repeats per episode; episodes are short so that a run's medians
#: span several daemon processes
WARM_STEPS = 90
QUICK_WARM_STEPS = 20
DELTAS_PER_COMBO = 2
#: share of warm repeats that re-send an earlier delta's options
WARM_DELTA_REPEAT = 0.2
#: (model, cluster, event type) of an episode's repairs
REPAIRS = (
    ("bert-base", "v100x32", "node_loss"),
    ("bert-large", "v100x32", "preemption"),
    ("resnet50x8", "v100x32", "scale_up"),
)
BUDGET_GB = (20.0, 31.0)
MICROBATCHES = (4, 48)
WORKERS = 2


@dataclass
class Step:
    kind: str                      # plan | repair
    combo: Tuple[str, str]
    options: Optional[Dict[str, Any]] = None
    event: Optional[Dict[str, Any]] = None
    burst: Optional[threading.Barrier] = None
    op: int = 0                    # the run's operation id, set when sent

    def params(self) -> Dict[str, Any]:
        model, cluster = self.combo
        spec, batch = MODELS[model]
        doc: Dict[str, Any] = {"model": spec, "cluster": {"preset": cluster},
                               "batch_size": batch}
        if self.options:
            doc["options"] = self.options
        if self.event:
            doc["event"] = self.event
        return doc

    def served_cluster(self) -> Dict[str, Any]:
        """The cluster the served plan must fit: the combo's, or after
        a repair event the surviving or grown one."""
        nodes = CLUSTERS[self.combo[1]]
        if self.event is None:
            return {"preset": self.combo[1]}
        if self.event["type"] == "scale_up":
            return {"nodes": nodes + self.event["extra_nodes"]}
        return {"nodes": nodes - 1}


def _event(rng: random.Random, kind: str, nodes: int) -> Dict[str, Any]:
    """A ``kind`` repair event on a ``nodes``-node cluster: lose or
    preempt a seeded node, or grow by a seeded one or two nodes."""
    if kind == "scale_up":
        return {"type": kind, "extra_nodes": rng.choice((1, 2))}
    return {"type": kind, "node_index": rng.randrange(nodes)}


def episode_steps(seed: int, warm_steps: int) -> List[Step]:
    """The seeded request sequence of one episode (bursts expanded).

    Each combo's first request comes first; then, shuffled together,
    ``warm_steps`` warm repeats (in rounds over the combos),
    ``DELTAS_PER_COMBO`` fresh-knob deltas per combo, the ``REPAIRS``
    and one burst.
    """
    rng = random.Random(seed)
    first = list(COMBOS)
    rng.shuffle(first)
    steps = [Step("plan", combo) for combo in first]
    deltas = list(COMBOS) * DELTAS_PER_COMBO
    rng.shuffle(deltas)
    repairs = [((model, cluster), _event(rng, kind, CLUSTERS[cluster]))
               for model, cluster, kind in REPAIRS]
    rng.shuffle(repairs)
    kinds = (["delta"] * len(deltas) + ["repair"] * len(repairs) + ["burst"]
             + ["warm"] * warm_steps)
    rng.shuffle(kinds)

    def rounds():
        while True:
            order = list(COMBOS)
            rng.shuffle(order)
            yield from order

    warm = rounds()
    knob_kind = cycle(("memory_budget_gb", "memory_budget_gb", "max_microbatches"))
    used: Dict[Tuple[str, str], List[Dict[str, Any]]] = {c: [] for c in COMBOS}

    def fresh(combo) -> Dict[str, Any]:
        seen = [json.dumps(o, sort_keys=True) for o in used[combo]]
        while True:
            knob = next(knob_kind)
            if knob == "memory_budget_gb":
                opts = {knob: round(rng.uniform(*BUDGET_GB), 2)}
            else:
                opts = {knob: rng.randint(*MICROBATCHES)}
            if json.dumps(opts, sort_keys=True) not in seen:
                used[combo].append(opts)
                return opts

    for kind in kinds:
        if kind == "warm":
            combo = next(warm)
            options = None
            if used[combo] and rng.random() < WARM_DELTA_REPEAT:
                options = rng.choice(used[combo])
            steps.append(Step("plan", combo, options))
        elif kind == "delta":
            combo = deltas.pop()
            steps.append(Step("plan", combo, fresh(combo)))
        elif kind == "repair":
            combo, event = repairs.pop()
            steps.append(Step("repair", combo, event=event))
        else:
            combo = rng.choice(COMBOS)
            options = fresh(combo)
            barrier = threading.Barrier(2)
            steps.append(Step("plan", combo, options, burst=barrier))
            steps.append(Step("plan", combo, options, burst=barrier))
    return steps


class Daemon:
    """``repro serve`` in its own process, over a fresh store."""

    def __init__(self, run: Run, store_dir) -> None:
        from repro.service.client import wait_until_healthy

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", str(store_dir)],
            cwd=str(ROOT), env=run.env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.port: Optional[int] = None
        self.rss: Optional[TreeRSS] = None
        self.output: List[str] = []
        self._drain = threading.Thread(target=self._read, daemon=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.port = int(match.group(1))
            self._drain.start()
            wait_until_healthy(port=self.port, timeout=30.0).close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.rss = TreeRSS(self.proc.pid).start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            del self.output[:-50]

    def peak_mb(self) -> float:
        """Stop sampling the daemon's memory; returns its tree's peak
        RSS (MiB) so far."""
        self.rss.stop()
        return self.rss.peak_mb()

    def stop(self) -> None:
        """Shut the daemon down."""
        from repro.service.client import ServiceClient
        from repro.service.protocol import ServiceError

        if self.rss is not None:
            self.rss.stop()
        if self.proc.poll() is None and self.port is not None:
            client = ServiceClient(port=self.port, timeout=10.0)
            try:
                client.shutdown()
            except (OSError, ServiceError):
                pass  # the kill below still stops it
            finally:
                client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self._drain.is_alive():
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            print(f"daemon exited with {self.proc.returncode}; last output:\n"
                  + "".join(self.output), file=sys.stderr)


class Results:
    """Per-request outcomes of one or more episodes."""

    def __init__(self, pinned: Dict[str, Any]) -> None:
        self.pinned = pinned
        self.lock = threading.Lock()
        self.latency: Dict[str, List[float]] = {}
        self.iteration_times: List[float] = []
        self.coalesced = 0
        self.plans = 0
        self.fallbacks = 0
        self.repairs = 0
        self.wall_s = 0.0
        #: requests per second of the mix after the first requests
        self.rps = 0.0
        #: distinct served plan documents not yet verified -> the steps
        #: that received each
        self.unverified: Dict[str, List[Step]] = {}

    def record(self, run: Run, step: Step, result: Dict[str, Any], ms: float) -> None:
        meta = result["meta"]
        if step.kind == "repair":
            kind = "repair"
            with self.lock:
                self.repairs += 1
                self.fallbacks += bool(result["repair"]["used_full_replan"])
        else:
            kind = "coalesced" if meta.get("coalesced") else meta["cache"]
            if step.options is None:
                self._check_pinned(run, step, result)
        doc = json.dumps(result["plan"], sort_keys=True)
        with self.lock:
            self.unverified.setdefault(doc, []).append(step)
            self.latency.setdefault(kind, []).append(ms)
            self.iteration_times.append(meta["iteration_time"])
            if step.kind == "plan":
                self.plans += 1
                self.coalesced += kind == "coalesced"

    def _check_pinned(self, run: Run, step: Step, result: Dict[str, Any]) -> None:
        label = f"{step.combo[0]}/{step.combo[1]}"
        want = self.pinned[label]
        doc = result["plan"]
        got = {
            "boundaries": [s["block_range"] for s in doc["stages"]],
            "devices": [s["devices_per_pipeline"] for s in doc["stages"]],
            "microbatch_sizes": [s["microbatch_size"] for s in doc["stages"]],
            "num_microbatches": doc["num_microbatches"],
            "iteration_time": result["meta"]["iteration_time"],
        }
        run.check(
            got == {k: want[k] for k in got},
            f"{label}: base plan differs from the pinned fixture: {got}",
            step.op,
        )

    def shares(self) -> Dict[str, float]:
        """Each request class's summed round trips over the mix's wall
        time (a burst's two overlapping requests both count)."""
        return {kind: sum(ms) / 1e3 / self.wall_s
                for kind, ms in sorted(self.latency.items())}


def verify_served(run: Run, port: int, results: Results) -> None:
    """Send every distinct plan document served since the last call to
    ``POST /v1/verify``; a violation fails every operation that
    received the document."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    client = ServiceClient(port=port)
    try:
        for doc, steps in results.unverified.items():
            step = steps[0]
            what = (f"{step.kind} {step.combo} {step.options} {step.event}"
                    f" (served {len(steps)}x)")
            try:
                answer = client.request("POST", "/v1/verify", {
                    "plan": json.loads(doc),
                    "model": MODELS[step.combo[0]][0],
                    "cluster": step.served_cluster(),
                })
            except (ServiceError, OSError) as exc:
                answer = {"error": repr(exc)}
            if answer.get("verified") is not True:
                run.fail(f"{what}: served plan failed verification: {answer}",
                         step.op)
                run.failed_ops.update(served.op for served in steps)
    finally:
        client.close()
    results.unverified.clear()


def drive(run: Run, port: int, steps: List[Step], results: Results,
          rec=None) -> float:
    """Send ``steps`` in a closed loop on one connection; the two halves
    of a burst go at once on both connections.  With a span recorder,
    each step is one trace.  Returns the wall seconds."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    clients = [ServiceClient(port=port) for _ in range(2)]
    errors: List[Tuple[int, str]] = []
    for step in steps:
        step.op = run.attempt()

    def one(client, step: Step) -> None:
        what = f"{step.kind} {step.combo} {step.options} {step.event}"
        try:
            if step.burst is not None:
                step.burst.wait(timeout=120)
            start = time.perf_counter()
            path = "/v1/repair" if step.kind == "repair" else "/v1/plan"
            result = client.request("POST", path, step.params())
            elapsed_ms = (time.perf_counter() - start) * 1e3
        except (ServiceError, OSError, threading.BrokenBarrierError) as exc:
            errors.append((step.op, f"{what}: {exc!r}"))
            return
        try:
            results.record(run, step, result, elapsed_ms)
        except (KeyError, TypeError) as exc:
            errors.append((step.op, f"{what}: malformed response ({exc!r}): {result}"))

    def traced(client, step: Step) -> None:
        if rec is None:
            one(client, step)
            return
        with rec.span("daemon.request", kind=step.kind):
            one(client, step)

    start = time.perf_counter()
    i = 0
    try:
        while i < len(steps):
            if rec is not None:
                rec.trace_id += 1
            group = steps[i:i + 2] if steps[i].burst is not None else steps[i:i + 1]
            if len(group) == 1:
                traced(clients[0], group[0])
            else:
                pair = [threading.Thread(target=traced, args=(c, s))
                        for c, s in zip(clients, group)]
                for t in pair:
                    t.start()
                for t in pair:
                    t.join()
            i += len(group)
    finally:
        for client in clients:
            client.close()
    for op, message in errors:
        run.fail(message, op)
    wall = time.perf_counter() - start
    results.wall_s += wall
    return wall


def _pinned() -> Dict[str, Any]:
    with open(PINNED) as fh:
        return json.load(fh)


def _mix(run: Run) -> int:
    mix = QUICK_WARM_STEPS if run.quick else WARM_STEPS
    run.params = {
        "combos": [f"{m}/{c}" for m, c in COMBOS],
        "per_episode": {"first": len(COMBOS), "warm": mix,
                        "fresh_knob_deltas": len(COMBOS) * DELTAS_PER_COMBO,
                        "repairs": [" ".join(r) for r in REPAIRS],
                        "bursts": 1,
                        "basis": "assumed proportions, not measured traffic"},
        "budget_gb": BUDGET_GB,
        "max_microbatches": MICROBATCHES,
        "daemon": f"repro serve --workers {WORKERS} --cache-dir <fresh dir>",
        "connections": "1 in a closed loop, 2 during bursts",
    }
    return mix


def _knobs(run: Run) -> None:
    from host import planner_knobs
    from repro.service.protocol import build_config

    run.knobs = planner_knobs(build_config({"batch_size": 256}))


def measure(run: Run) -> None:
    """Whole episodes while another fits in the run's time (the first
    always runs)."""
    mix = _mix(run)
    _knobs(run)
    pinned = _pinned()
    episodes: List[Results] = []
    setups, peaks, walls = [], [], []
    start = time.perf_counter()
    while run.another_fits(start, walls):
        began = time.perf_counter()
        steps = episode_steps(run.seed * 1000 + len(walls), mix)
        results = Results(pinned)
        daemon = Daemon(run, run.tmpdir / f"store-{len(walls)}")
        try:
            setups.append(daemon.setup_s)
            run_episode(run, daemon.port, steps, results)
            peaks.append(daemon.peak_mb())
            verify_served(run, daemon.port, results)
        finally:
            daemon.stop()
        episodes.append(results)
        walls.append(time.perf_counter() - began)
    run.timing("setup_s", setups, "s")
    summarize(run, episodes)
    run.put("peak_rss_mb", median(peaks) + self_peak_mb(), "MB", len(peaks))


def run_episode(run: Run, port: int, steps: List[Step], results: Results,
                rec=None) -> float:
    """The combos' first requests, then the timed mix; returns the
    mix's wall seconds."""
    first, rest = steps[:len(COMBOS)], steps[len(COMBOS):]
    drive(run, port, first, results, rec)
    wall = drive(run, port, rest, results, rec)
    results.rps = len(rest) / wall
    return wall


def summarize(run: Run, episodes: List[Results]) -> None:
    """The latency and throughput metrics of ``episodes``.

    ``op_ms`` (a request of any class) and the warm and delta medians
    are medians over episodes of that episode's median, so a daemon
    process that happens to run slow, or a few slow seconds on the
    host, moves one episode's value rather than the run's;
    ``delta_p90_ms``, ``repair_p50_ms`` and ``warm_p99_ms`` pool the
    run (an episode has too few deltas for a tail and only three
    repairs, one per model)."""
    lat: Dict[str, List[List[float]]] = {}
    for results in episodes:
        for kind, values in results.latency.items():
            lat.setdefault(kind, []).append(values)
    run.note(f"episodes: {len(episodes)}; request classes: " + ", ".join(
        f"{k}={sum(map(len, v))}" for k, v in sorted(lat.items())))
    for kind in ("warm", "delta", "repair"):
        if not run.check(len(lat.get(kind, ())) == len(episodes),
                         f"an episode completed no {kind} requests"):
            return
    pooled = {k: [v for values in lat[k] for v in values] for k in lat}
    every = [[v for values in r.latency.values() for v in values]
             for r in episodes]
    for name, per_episode in (("op_ms", every), ("warm_p50_ms", lat["warm"]),
                              ("delta_p50_ms", lat["delta"])):
        values = [v for vs in per_episode for v in vs]
        run.put(name, median([median(v) for v in per_episode]), "ms", len(values))
        tail = tail_percentile(values)
        run.note(f"{name}: median of {len(episodes)} episode medians; pooled "
                 f"p50 {median(values):.6g} ms"
                 + (f", p{tail[0]:g} {tail[1]:.6g} ms" if tail else "")
                 + f", n={len(values)}")
    run.timing("repair_p50_ms", pooled["repair"], "ms")
    run.put("delta_p90_ms", percentile(pooled["delta"], 90), "ms",
            len(pooled["delta"]))
    run.put("warm_p99_ms", percentile(pooled["warm"], 99), "ms",
            len(pooled["warm"]))
    run.put("ops_per_s", median([r.rps for r in episodes]), "1/s", len(episodes))
    iters = [t for results in episodes for t in results.iteration_times]
    run.put("plan_iter_s", geomean(iters), "pred_s", len(iters))
    plans = sum(r.plans for r in episodes)
    _note_shares(run, episodes)
    run.note(
        f"coalesced: {sum(r.coalesced for r in episodes)} of {plans} plan "
        f"responses; repairs falling back to a full replan: "
        f"{sum(r.fallbacks for r in episodes)} of {sum(r.repairs for r in episodes)}"
    )


def _note_shares(run: Run, episodes: List[Results]) -> None:
    shares: Dict[str, List[float]] = {}
    for results in episodes:
        for kind, share in results.shares().items():
            shares.setdefault(kind, []).append(share)
    run.note("share of the mix's wall time by request class (median over "
             "episodes): " + ", ".join(
                 f"{kind} {median(v):.1%}" for kind, v in sorted(shares.items())))


def measure_traced(run: Run) -> None:
    """Pairs of episodes on an in-process daemon over a disk-backed
    store, one unprobed and one probed on the same steps.  Spans come
    from the probed episodes, the request-class latencies from the
    unprobed ones."""
    from repro.service import PlanServer, ServiceClient
    from spans import LayerProbes, SpanRecorder

    mix = _mix(run)
    _knobs(run)
    rec = SpanRecorder()
    pinned = _pinned()
    episodes: Dict[bool, List[Results]] = {False: [], True: []}
    spans_retained = 0

    def once(episode: int, probed: bool) -> float:
        nonlocal spans_retained
        steps = episode_steps(run.seed * 1000 + episode, mix)
        results = Results(pinned)
        episodes[probed].append(results)
        server = PlanServer(
            workers=WORKERS,
            cache_dir=run.tmpdir / f"store-{episode}-{int(probed)}",
        ).start_in_thread()
        try:
            if not probed:
                wall = run_episode(run, server.port, steps, results)
            else:
                with LayerProbes(rec):
                    wall = run_episode(run, server.port, steps, results, rec)
                client = ServiceClient(port=server.port)
                spans_retained = client.stats()["spans"]
                client.close()
            verify_served(run, server.port, results)
        finally:
            server.stop()
        return wall

    overhead = paired(run, once)
    summarize(run, episodes[False])
    probed = episodes[True]
    plans = sum(r.plans for r in probed)
    run.put("obs.spans_retained", spans_retained, "count", 1)
    run.put("service.engine.coalesced_share",
            sum(r.coalesced for r in probed) / plans if plans else 0.0,
            "ratio", plans)
    finish_trace(run, rec, overhead)
