"""Bit-identity guard for the communication-model refactor.

``tests/data/pinned_plans.json`` is a snapshot of ``auto_partition``
output taken on pre-``repro.comm`` main for the paper's three reference
models across the v100x8/16/32 presets.  Under the default
``comm_model="flat"`` the delegation through :mod:`repro.comm` must
reproduce every plan *exactly* -- same boundaries, same device counts,
and floating-point-equal iteration times -- because the flat model is
the legacy arithmetic, expression for expression.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.partitioner import auto_partition
from repro.partitioner.search import SEARCH_BACKENDS
from repro.partitioner.stage_dp import DP_ENGINES, resolve_dp_engine

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_plans.json"

# builder + batch size per pinned model, matching the snapshot script
MODELS = {
    "bert-base": (
        lambda: build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ),
        256,
    ),
    "bert-large": (lambda: build_bert(BertConfig()), 256),
    "resnet50x8": (
        lambda: build_resnet(ResNetConfig(depth=50, width_factor=8)),
        512,
    ),
}
CLUSTERS = {"v100x8": 1, "v100x16": 2, "v100x32": 4}


def _pinned():
    with FIXTURE.open() as fh:
        return json.load(fh)


PINNED = _pinned()


@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_flat_model_matches_pinned_plan(key):
    expected = PINNED[key]
    model_name, cluster_name = key.split("/")
    build, batch_size = MODELS[model_name]
    cluster = paper_cluster(CLUSTERS[cluster_name])
    assert cluster.comm_model == "flat"  # the default must stay flat

    plan = auto_partition(build(), cluster, batch_size)

    assert expected["feasible"]
    assert [list(s.block_range) for s in plan.stages] == expected["boundaries"]
    assert [s.devices_per_pipeline for s in plan.stages] == expected["devices"]
    assert [s.microbatch_size for s in plan.stages] == (
        expected["microbatch_sizes"]
    )
    assert plan.num_microbatches == expected["num_microbatches"]
    assert plan.replica_factor == expected["replica_factor"]
    # bit-identical, not approximately equal: the flat path is the
    # pre-refactor arithmetic verbatim
    assert plan.iteration_time == expected["iteration_time"]
    assert plan.diagnostics.pipeline_time == expected["pipeline_time"]
    assert plan.diagnostics.allreduce_time == expected["allreduce_time"]
    assert [s.profile.time_fwd for s in plan.stages] == (
        expected["stage_time_fwd"]
    )
    assert [s.profile.time_bwd for s in plan.stages] == (
        expected["stage_time_bwd"]
    )


def test_fixture_covers_full_matrix():
    assert set(PINNED) == {
        f"{m}/{c}" for m in MODELS for c in CLUSTERS
    }


# every DP engine under every search backend must reproduce the same
# pinned plans -- the engines are different evaluation strategies over
# one DP and the backends different schedules of one sweep, not
# different algorithms.  The pinned files hold the plans, so the search
# counters are compared across backends within one engine.
#
# Each case is named after the engine that runs and maps to the
# ``dp_engine`` knob value it passes: "auto" passes none and leaves the
# choice to the planner's default, "banded" names the default knob
# ("numpy", the banded engine on these homogeneous clusters) and "rows"
# forces the per-(s, b) row engine.
ENGINE_CASES = {"auto": None, "banded": "numpy", "rows": "rows"}


def test_engine_cases_cover_every_engine():
    default = inspect.signature(auto_partition).parameters["dp_engine"]
    knobs = {c: e or default.default for c, e in ENGINE_CASES.items()}
    assert set(knobs.values()) == set(DP_ENGINES)
    assert {c: resolve_dp_engine(e, 32, 32) for c, e in knobs.items()} == {
        "auto": "banded", "banded": "banded", "rows": "rows"
    }


@pytest.mark.parametrize("case", ENGINE_CASES)
@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_every_engine_matches_pinned_plan(key, case):
    expected = PINNED[key]
    model_name, cluster_name = key.split("/")
    build, batch_size = MODELS[model_name]
    cluster = paper_cluster(CLUSTERS[cluster_name])
    graph = build()
    engine = ENGINE_CASES[case]
    knobs = {} if engine is None else {"dp_engine": engine}

    counters = {}
    for backend in SEARCH_BACKENDS:
        plan = auto_partition(
            graph, cluster, batch_size, search_backend=backend,
            search_workers=2, **knobs,
        )
        assert [list(s.block_range) for s in plan.stages] == (
            expected["boundaries"]
        ), backend
        assert [s.devices_per_pipeline for s in plan.stages] == (
            expected["devices"]
        ), backend
        assert plan.num_microbatches == expected["num_microbatches"]
        assert plan.replica_factor == expected["replica_factor"]
        assert plan.iteration_time == expected["iteration_time"], backend
        counters[backend] = (
            plan.diagnostics.dp_calls, plan.diagnostics.states_evaluated
        )
    assert len(set(counters.values())) == 1, counters
