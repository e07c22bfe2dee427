"""Run the docstring examples as tests.

Every ``Examples`` block in a public docstring must actually work; this
keeps the documentation honest.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro",
    "repro.cluster.kmeans",
    "repro.context",
    "repro.core.anchor_model",
    "repro.core.model",
    "repro.datasets.container",
    "repro.metrics.accuracy",
    "repro.metrics.hungarian",
    "repro.metrics.purity",
    "repro.metrics.silhouette",
    "repro.core.incomplete",
    "repro.core.out_of_sample",
    "repro.evaluation.ascii_plots",
    "repro.observability.health",
    "repro.observability.memory",
    "repro.observability.metrics",
    "repro.observability.trace",
    "repro.pipeline.cache",
    "repro.pipeline.parallel",
    "repro.robust.faults",
    "repro.robust.policy",
    "repro.streaming.model",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{name} has no doctests"
    assert result.failed == 0, f"{name} doctest failures"
