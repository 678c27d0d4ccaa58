"""Reading ``plan.diagnostics`` raises no deprecation warning."""

import warnings

import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner import auto_partition


@pytest.fixture(scope="module")
def plan():
    graph = build_bert(
        BertConfig(hidden_size=256, num_layers=4, num_heads=8)
    )
    return auto_partition(graph, paper_cluster(1), 64)


def test_diagnostics_access_does_not_warn(plan):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        plan.diagnostics.as_dict()
        plan.diagnostics.pipeline_time
