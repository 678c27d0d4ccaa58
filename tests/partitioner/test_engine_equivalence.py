"""Equivalence suite for the native-speed DP core.

Both DP engines (banded, per-(s, b) rows) and both search backends
(serial, process) must produce results *bit-identical* to each other and
to the pure-Python ``reference_form_stage_dp``: same plans, same
tie-breaks, same ``dp_calls`` / ``states_evaluated`` counters.  The
banded profile construction is
additionally checked against the per-entry ``stage_profile`` oracle
(:meth:`DPContext.profile_tensors_reference`) with hypothesis-driven
shapes, so any drift between the vectorized band gather and the scalar
profile arithmetic fails loudly.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware import tiny_cluster
from repro.models import build_mlp
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry, Tracer
from repro.partitioner import stage_dp
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.search import SEARCH_BACKENDS, form_stage
from repro.partitioner.stage_dp import (
    DP_ENGINES,
    DPContext,
    form_stage_dp,
    reference_form_stage_dp,
    resolve_dp_engine,
)
from repro.planner import PlannerConfig
from repro.profiler import GraphProfiler

ENGINES = list(DP_ENGINES)


def make_ctx(graph=None, k=6, batch_size=32, cluster=None, seed=None):
    if graph is None:
        graph = (
            build_random_dag(seed=seed, num_nodes=10)
            if seed is not None
            else build_mlp((32, 64, 64, 64, 64, 16))
        )
    cluster = cluster or tiny_cluster(
        num_nodes=1, devices_per_node=4, memory_bytes=4 * 1024**3
    )
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(
        graph, atomic_partition(graph), profiler, num_blocks=k
    )
    return DPContext(graph, blocks, profiler, batch_size)


def solution_key(sol):
    """Everything that identifies a DP solution, floats compared exactly."""
    if sol is None:
        return None
    return (
        tuple(sol.boundaries),
        tuple(sol.device_counts),
        sol.num_microbatches,
        sol.replica_factor,
        sol.objective,
        sol.max_tf,
        sol.max_tb,
        tuple((p.time_fwd, p.time_bwd, p.memory) for p in sol.stage_profiles),
    )


# ----------------------------------------------------------------------
# engine knob resolution


class TestResolveEngine:
    def test_small_instances_use_banded(self):
        assert resolve_dp_engine("numpy", 6, 4) == "banded"

    def test_large_instances_split_by_knob(self):
        # only the knob decides, never the instance size
        assert resolve_dp_engine("numpy", 600, 32) == "banded"
        assert resolve_dp_engine("rows", 600, 32) == "rows"

    def test_forced_engines(self):
        assert resolve_dp_engine("rows", 6, 4) == "rows"
        assert set(DP_ENGINES) == {"numpy", "rows"}

    def test_unsupported_context_falls_back_dense(self):
        # the row engine reads the dense (k+1, k+1, D+1) profile tensors
        assert resolve_dp_engine("numpy", 6, 4, banded_supported=False) == (
            "rows"
        )
        assert resolve_dp_engine(
            "rows", 600, 32, banded_supported=False
        ) == "rows"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown dp engine"):
            resolve_dp_engine("cuda", 6, 4)

    @pytest.mark.parametrize("engine", ["auto", "numba", "banded", "dense"])
    def test_removed_engine_values_rejected(self, engine):
        with pytest.raises(ValueError, match="'numpy', 'rows'"):
            resolve_dp_engine(engine, 6, 4)


# ----------------------------------------------------------------------
# banded construction vs the per-entry oracle


class TestBandedConstruction:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        D=st.integers(min_value=1, max_value=4),
        R=st.integers(min_value=1, max_value=2),
        MB=st.sampled_from([1, 2, 4]),
        checkpointing=st.booleans(),
    )
    def test_bands_match_reference(self, seed, D, R, MB, checkpointing):
        ctx = make_ctx(seed=seed, k=5, batch_size=16)
        span = ctx.k  # widest possible band: covers every (lo, hi]
        bands = ctx.profile_bands(D, R, MB, checkpointing, span)
        TF, TB, MEM = ctx.profile_tensors_reference(D, R, MB, checkpointing)
        for r in range(1, D + 1):
            p = int(bands.plane_of_r[r])
            if p < 0:
                # collapsed microbatch: the oracle has no entries either
                assert ctx.batch_size // (R * MB * r) < 1
                assert not np.isfinite(TF[:, :, r]).any()
                continue
            for lo in range(ctx.k):
                for j in range(span):
                    hi = lo + 1 + j
                    ref = (
                        (TF[lo, hi, r], TB[lo, hi, r], MEM[lo, hi, r])
                        if hi <= ctx.k
                        else (np.inf, np.inf, np.inf)
                    )
                    got = (
                        bands.tf[p, lo, j],
                        bands.tb[p, lo, j],
                        bands.mem[p, lo, j],
                    )
                    assert got == ref  # bit-identical, inf included

    def test_band_cache_grows_monotonically(self):
        ctx = make_ctx()
        m = MetricsRegistry()
        ctx.metrics = m
        narrow = ctx.profile_bands(4, 1, 2, True, 2)
        assert narrow.span == 2
        wide = ctx.profile_bands(4, 1, 2, True, 4)
        assert wide.span == 4
        again = ctx.profile_bands(4, 1, 2, True, 3)  # narrower: cache hit
        assert again is wide
        assert m.counter("profiler.band_builds").value == 2
        assert m.counter("profiler.band_cache_hits").value == 1

    def test_plane_dedup_by_microbatch(self):
        ctx = make_ctx(batch_size=32)
        bands = ctx.profile_bands(4, 1, 4, False, ctx.k)
        # bs = 32 // (4 * r) = 8, 4, 2, 2 -> r=3 and r=4 share a plane
        assert bands.plane_of_r[3] == bands.plane_of_r[4]
        assert len(bands.bs_list) == len(set(bands.bs_list))


# ----------------------------------------------------------------------
# engine bit-identity (plans AND counters)


class TestEngineBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        S=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
    )
    def test_engines_identical_on_random_dags(self, seed, S, MB):
        ctx = make_ctx(seed=seed, k=6, batch_size=32)
        keys, counters = {}, {}
        for engine in ENGINES:
            m = MetricsRegistry()
            calls, before = ctx.dp_calls, ctx.states_evaluated
            sol = form_stage_dp(
                ctx, S, 4, 32, 1, MB, engine=engine, metrics=m
            )
            keys[engine] = solution_key(sol)
            states = ctx.states_evaluated - before
            assert m.counter("dp.states_evaluated").value == states
            assert m.counter("dp.calls").value == ctx.dp_calls - calls
            counters[engine] = (ctx.dp_calls - calls, states)
        calls, before = ctx.dp_calls, ctx.states_evaluated
        keys["reference"] = solution_key(
            reference_form_stage_dp(ctx, S, 4, 32, 1, MB)
        )
        counters["reference"] = (
            ctx.dp_calls - calls, ctx.states_evaluated - before
        )
        assert len(set(keys.values())) == 1, keys
        assert len(set(counters.values())) == 1, counters

    def test_engines_identical_under_memory_pressure(self):
        # a budget tight enough that memory failures drive d_min pruning
        cluster = tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=24 * 1024**2
        )
        g = build_mlp((64, 256, 256, 256, 64))
        ctx = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster)
        runs = {
            engine: run_counted(ctx, 2, 4, 2, engine)
            for engine in [*ENGINES, None]   # None: the reference
        }
        assert len(set(runs.values())) == 1, runs

    def test_custom_stage_profile_context_avoids_bands(self):
        class Perturbed(DPContext):
            # r enters the profile directly: banding must be refused
            def stage_profile(self, lo, hi, r, R, MB, checkpointing):
                prof = super().stage_profile(lo, hi, r, R, MB, checkpointing)
                if prof is None:
                    return None
                return type(prof)(
                    time_fwd=prof.time_fwd * (1 + 0.01 * r),
                    time_bwd=prof.time_bwd,
                    memory=prof.memory,
                    microbatch_size=prof.microbatch_size,
                    in_bytes=prof.in_bytes,
                    out_bytes=prof.out_bytes,
                    param_count=prof.param_count,
                )

        base = make_ctx()
        ctx = Perturbed(base.graph, base.blocks, base.profiler, 32)
        assert not ctx.supports_banded
        # the default engine silently falls back to the row engine and
        # still returns the perturbed-profile optimum
        got = run_counted(ctx, 2, 4, 2, "numpy")
        assert got[0] is not None
        assert got == run_counted(ctx, 2, 4, 2, "rows")
        assert got == run_counted(ctx, 2, 4, 2)


# ----------------------------------------------------------------------
# windowed banded engine under tight memory


def run_counted(ctx, S, D, MB, engine=None):
    """``(solution_key, states)`` of one DP call; ``engine=None`` runs
    the pure-Python reference."""
    before = ctx.states_evaluated
    if engine is None:
        sol = reference_form_stage_dp(ctx, S, D, ctx.batch_size, 1, MB)
    else:
        sol = form_stage_dp(
            ctx, S, D, ctx.batch_size, 1, MB, engine=engine
        )
    return solution_key(sol), ctx.states_evaluated - before


def static_span_bytes(ctx, span):
    """Smallest parameter-only footprint over every ``span``-block
    stage: a budget below it makes every such stage (and every wider
    one) over memory, so the band width cap binds."""
    _, _, PARAMS = ctx._range_matrices()
    static = ctx.profiler.memory_model.static_bytes(PARAMS)
    return min(
        float(static[lo, lo + span]) for lo in range(ctx.k - span + 1)
    )


class BumpyMemoryContext(DPContext):
    """Two-block stages starting after an odd block cost an extra
    petabyte, wider ones do not: the over-memory spans of those band
    rows are not a suffix, which forces the banded engine's exact
    per-cell memory-failure mask."""

    def _bumped(self, lo, hi):
        return (hi - lo == 2) & (lo % 2 == 1)

    def _profile_planes(self, bs, MB, checkpointing):
        tf, tb, mem = super()._profile_planes(bs, MB, checkpointing)
        idx = np.arange(self.k + 1)
        bump = self._bumped(idx[:, None], idx[None, :])
        return tf, tb, np.where(bump, mem + 1e15, mem)

    def stage_profile(self, lo, hi, replicas, R, MB, checkpointing):
        prof = super().stage_profile(lo, hi, replicas, R, MB, checkpointing)
        if prof is None or not self._bumped(lo, hi):
            return prof
        return dataclasses.replace(prof, memory=prof.memory + 1e15)


class TestWindowedEngine:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        S=st.integers(min_value=2, max_value=4),
        MB=st.sampled_from([1, 2]),
        frac=st.floats(min_value=0.5, max_value=0.999),
    )
    def test_capped_band_matches_reference(self, seed, S, MB, frac):
        # 64-wide layers at batch 8: parameters dominate stage memory,
        # so a budget under the widest span's parameter bytes still
        # leaves narrower stages feasible on many seeds
        graph = build_random_dag(seed=seed, num_nodes=12, width=64)
        ctx = make_ctx(graph=graph, k=8, batch_size=8)
        nb = ctx.k - S + 1
        assume(nb >= 2)
        widest = static_span_bytes(ctx, nb - 1)
        assume(widest > 0)
        ctx.set_memory_budget(frac * widest)
        assert ctx.band_span_cap() < nb  # the cap binds
        got = run_counted(ctx, S, 4, MB, "numpy")
        assert got == run_counted(ctx, S, 4, MB, "rows")
        assert got == run_counted(ctx, S, 4, MB)
        bands = ctx.profile_bands(4, 1, MB, S > 1, 1)  # cached band
        assert bands.span < nb

    def test_non_suffix_memory_uses_exact_mask(self):
        base = make_ctx(k=6, batch_size=32)
        ctx = BumpyMemoryContext(base.graph, base.blocks, base.profiler, 32)
        assert ctx.supports_banded and ctx.band_span_cap() == ctx.k
        bands = ctx.profile_bands(4, 1, 2, True, ctx.k)
        win = stage_dp._plane_window(bands, 0, ctx.usable_memory, ctx.k)
        assert win.over is not None and win.over_from is None
        feasible = 0
        for S, MB in [(1, 1), (2, 1), (2, 2), (3, 4), (4, 2)]:
            got = run_counted(ctx, S, 4, MB, "numpy")
            assert got == run_counted(ctx, S, 4, MB, "rows")
            assert got == run_counted(ctx, S, 4, MB)
            feasible += got[0] is not None
        assert feasible >= 3

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        S=st.integers(min_value=1, max_value=4),
        s_frac=st.floats(min_value=0.0, max_value=1.0),
        MB=st.sampled_from([1, 2, 4, 16]),  # 16: bs < 1 at r >= 3
        budget_pick=st.floats(min_value=0.0, max_value=1.0),
        slack=st.floats(min_value=0.9, max_value=1.6),
        bumpy=st.booleans(),
        density=st.sampled_from([0.15, 0.5]),
        mask_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stage_reduction_matches_brute_force(
        self, seed, S, s_frac, MB, budget_pick, slack, bumpy, density,
        mask_seed,
    ):
        """One stage count of the windowed engine against a cell-by-cell
        scan of the dense reference tensors: same best values, parents
        and tie-breaks, and the same memory/microbatch failure masks
        (which drive the d_min replay), for arbitrary feasible-predecessor
        patterns."""
        base = make_ctx(seed=seed, k=8, batch_size=32)
        ctx = (
            BumpyMemoryContext(base.graph, base.blocks, base.profiler, 32)
            if bumpy else base
        )
        k, D = ctx.k, 4
        assume(S <= k)
        _, _, PARAMS = ctx._range_matrices()
        static = ctx.profiler.memory_model.static_bytes(PARAMS)
        spans = np.sort(static[np.triu_indices(k + 1, 1)])
        pick = spans[int(budget_pick * (len(spans) - 1))]
        ctx.set_memory_budget(float(pick) * slack)
        M = ctx.usable_memory
        s = 1 + int(s_frac * (S - 1))
        b_hi, d_hi, nb = k - (S - s), D - (S - s), k - S + 1
        rng = np.random.default_rng(mask_seed)
        prev_ok = np.zeros((k + 1, D + 1), dtype=bool)
        prev_ok[s - 1:b_hi, s - 1:d_hi] = (
            rng.random((b_hi - s + 1, d_hi - s + 1)) < density
        )
        # coarse values so equal candidates (tie-breaks) actually occur
        ptf = rng.integers(0, 3, (k + 1, D + 1)) * 1e-5
        ptb = rng.integers(0, 3, (k + 1, D + 1)) * 1e-5
        ckpt = S > 1
        bands = ctx.profile_bands(
            D, 1, MB, ckpt, min(nb, ctx.band_span_cap())
        )
        out = [np.full((k + 1, D + 1), np.inf), np.zeros((k + 1, D + 1)),
               np.zeros((k + 1, D + 1)),
               np.full((k + 1, D + 1), -1, dtype=np.int64),
               np.full((k + 1, D + 1), -1, dtype=np.int64),
               np.zeros((k + 1, D + 1), dtype=bool),
               np.zeros((k + 1, D + 1), dtype=bool)]
        stage_dp._banded_stage_numpy(
            bands, {}, prev_ok, ptf, ptb, s, b_hi, d_hi, nb, M, *out
        )
        TF, TB, MEM = ctx.profile_tensors_reference(D, 1, MB, ckpt)
        want = [np.full((k + 1, D + 1), np.inf), np.zeros((k + 1, D + 1)),
                np.zeros((k + 1, D + 1)),
                np.full((k + 1, D + 1), -1, dtype=np.int64),
                np.full((k + 1, D + 1), -1, dtype=np.int64),
                np.zeros((k + 1, D + 1), dtype=bool),
                np.zeros((k + 1, D + 1), dtype=bool)]
        best, btf, btb, bbp, bdp, memf, bsf = want
        for b in range(s, b_hi + 1):
            for d in range(s, d_hi + 1):
                for bp in range(s - 1, b):       # (b', d') row-major:
                    for dp in range(s - 1, d):   # first minimum wins
                        if not prev_ok[bp, dp]:
                            continue
                        r = d - dp
                        if not np.isfinite(TF[bp, b, r]):
                            bsf[b, d] = True
                            continue
                        if MEM[bp, b, r] > M:
                            memf[b, d] = True
                            continue
                        ctf = max(ptf[bp, dp], TF[bp, b, r])
                        ctb = max(ptb[bp, dp], TB[bp, b, r])
                        if ctf + ctb < best[b, d]:
                            best[b, d] = ctf + ctb
                            btf[b, d], btb[b, d] = ctf, ctb
                            bbp[b, d], bdp[b, d] = bp, dp
        fin = np.isfinite(best)
        assert np.array_equal(np.isfinite(out[0]), fin)
        for got, ref in zip(out[:5], want[:5]):
            assert np.array_equal(got[fin], ref[fin])
        assert np.array_equal(out[5], memf)
        assert np.array_equal(out[6], bsf)

    @pytest.mark.parametrize("how", ["set_memory_budget", "rebind"])
    def test_raising_budget_widens_cap(self, how):
        graph = build_mlp((64, 256, 256, 256, 256, 256, 64))
        ctx = make_ctx(graph=graph, k=6, batch_size=32)
        ctx.set_memory_budget(0.9 * static_span_bytes(ctx, 3))
        narrow = ctx.band_span_cap()
        assert narrow == 3  # spans of 3+ blocks exceed the budget
        got = run_counted(ctx, 4, 4, 2, "numpy")
        assert got[0] is not None  # four stages of <= 2 blocks fit
        assert got == run_counted(ctx, 4, 4, 2)
        assert run_counted(ctx, 2, 4, 2, "numpy")[0] is None
        loose = 2 * static_span_bytes(ctx, ctx.k - 2)
        if how == "rebind":
            ctx.rebind(ctx.cluster, memory_budget=loose)
        else:
            ctx.set_memory_budget(loose)
        assert ctx.band_span_cap() > narrow
        for S, MB in [(1, 1), (2, 2), (3, 1)]:
            got = run_counted(ctx, S, 4, MB, "numpy")
            assert got == run_counted(ctx, S, 4, MB)
        assert got[0] is not None
        assert ctx.profile_bands(4, 1, 2, True, 1).span > narrow

    def test_span_records_band_and_window(self):
        graph = build_mlp((64, 256, 256, 256, 256, 256, 64))
        ctx = make_ctx(graph=graph, k=6, batch_size=32)
        ctx.set_memory_budget(0.9 * static_span_bytes(ctx, 3))
        tracer = Tracer()
        sol = form_stage_dp(ctx, 4, 4, 32, 1, 2, tracer=tracer)
        (sp,) = tracer.spans("partitioner.dp")
        assert sp.attrs["band_span"] == ctx.band_span_cap() == 3
        # four stages of <= 2 blocks cover k = 6: the window is 2 wide
        assert sol is not None and sp.attrs["window"] == 2


# ----------------------------------------------------------------------
# search backends


class TestSearchBackends:
    def run_backend(self, backend, engine):
        ctx = make_ctx(k=8, batch_size=32)
        m = MetricsRegistry()
        res = form_stage(
            ctx, 1, 4, 32, backend=backend, engine=engine, metrics=m,
            max_workers=2,
        )
        assert res is not None
        return (
            solution_key(res.solution),
            res.candidates_tried,
            res.dp_calls,
            ctx.dp_calls,
            ctx.states_evaluated,
            m.snapshot(),
        )

    def test_backends_bit_identical(self):
        # every engine x backend pair: same plan, counters and metrics
        results = {
            (b, e): self.run_backend(b, e)
            for b in SEARCH_BACKENDS
            for e in ENGINES
        }
        assert set(SEARCH_BACKENDS) == {"serial", "process"}
        want = results[("serial", "numpy")]
        for pair, got in results.items():
            assert got == want, pair

    def test_unknown_backend_rejected(self):
        ctx = make_ctx()
        with pytest.raises(ValueError, match="unknown search backend"):
            form_stage(ctx, 1, 4, 32, backend="mpi")

    def test_removed_thread_backend_rejected(self):
        ctx = make_ctx()
        with pytest.raises(ValueError, match="'serial', 'process'"):
            form_stage(ctx, 1, 4, 32, backend="thread")


# ----------------------------------------------------------------------
# context snapshot/fork (the process backend's transport)


class TestContextPickle:
    def test_dp_context_roundtrip_preserves_solutions(self):
        ctx = make_ctx(k=6, batch_size=32)
        before = solution_key(form_stage_dp(ctx, 2, 4, 32, 1, 2))
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.k == ctx.k
        assert clone.batch_size == ctx.batch_size
        after = solution_key(form_stage_dp(clone, 2, 4, 32, 1, 2))
        assert after == before

    def test_dp_context_roundtrip_carries_warm_caches(self):
        ctx = make_ctx(k=6, batch_size=32)
        form_stage_dp(ctx, 2, 4, 32, 1, 2)  # warm the profile caches
        exported = ctx.export_cache_state()
        clone = pickle.loads(pickle.dumps(ctx))
        assert set(clone.export_cache_state()) == set(exported)

    def test_profiler_lock_survives_roundtrip(self):
        ctx = make_ctx()
        clone_prof = pickle.loads(pickle.dumps(ctx.profiler))
        # the re-created lock must actually work
        with clone_prof._lock:
            pass
        tasks = list(ctx.graph.tasks)[:3]
        assert (
            clone_prof.profile(tasks, 4).time_fwd
            == ctx.profiler.profile(tasks, 4).time_fwd
        )


# ----------------------------------------------------------------------
# config plumbing


class TestConfigKnobs:
    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="dp_engine"):
            PlannerConfig(batch_size=32, dp_engine="cuda")

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="search_backend"):
            PlannerConfig(batch_size=32, search_backend="mpi")

    def test_defaults_are_banded_numpy_and_serial(self):
        cfg = PlannerConfig(batch_size=32)
        assert (cfg.dp_engine, cfg.search_backend) == ("numpy", "serial")

    @pytest.mark.parametrize(
        "field,value",
        [("dp_engine", "numba"), ("dp_engine", "dense"),
         ("dp_engine", "auto"), ("search_backend", "thread")],
    )
    def test_removed_values_rejected_with_accepted_list(self, field, value):
        accepted = DP_ENGINES if field == "dp_engine" else SEARCH_BACKENDS
        with pytest.raises(ValueError, match=field) as ei:
            PlannerConfig(batch_size=32, **{field: value})
        assert str(accepted) in str(ei.value)

    @pytest.mark.parametrize(
        "field,value",
        [("search_workers", 0), ("search_workers", -3),
         ("cache_budget_bytes", -1)],
    )
    def test_out_of_range_run_mode_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PlannerConfig(batch_size=32, **{field: value})

    def test_zero_cache_budget_is_accepted(self):
        assert PlannerConfig(batch_size=32, cache_budget_bytes=0)

    def test_parallel_search_reads_the_backend(self):
        assert PlannerConfig(batch_size=32).parallel_search is False
        assert PlannerConfig(
            batch_size=32, search_backend="process"
        ).parallel_search is True
        with pytest.raises(TypeError):
            PlannerConfig(batch_size=32, parallel_search=True)

    def test_run_mode_knobs_not_fingerprinted(self):
        base = PlannerConfig(batch_size=32)
        assert (
            PlannerConfig(batch_size=32, dp_engine="rows").fingerprint()
            == base.fingerprint()
        )
        assert (
            PlannerConfig(
                batch_size=32, search_backend="process"
            ).fingerprint()
            == base.fingerprint()
        )
        assert (
            PlannerConfig(batch_size=32, search_workers=7).fingerprint()
            == base.fingerprint()
        )
