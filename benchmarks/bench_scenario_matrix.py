"""Method × scenario robustness matrix over the scenario factory.

The controlled scenarios (:mod:`repro.datasets.scenarios`) turn the
paper's robustness story into a measured grid: each column is a failure
mode (confused cluster pairs, missing views, noise, imbalance, ...), each
row a method, each cell aggregated ACC/NMI/ARI.  This bench runs the grid
at two sizes:

* an unmarked quick leg (2 methods × 3 scenarios, small ``n``) asserting
  the structural claims — the grid completes without per-cell failures,
  every score is finite, and on the ``confused_pairs`` scenario the
  fused UMSC beats the *worst* single view (the scenario is built so no
  single view can resolve every cluster pair);
* a ``slow``-marked full pass (default method grid × every registered
  scenario) that prints the paper-style table per metric.

The ``scenario_matrix`` entry of ``repro bench run`` times the same
2 × 3 grid, one run per cell, at a different size: ``n = 70`` under
``--quick`` and 160 at full size, against ``QUICK_N`` = 90 here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.single_view import all_single_view_labels
from repro.datasets.scenarios import generate
from repro.evaluation.scenario_matrix import (
    format_matrix,
    run_scenario_matrix,
)
from repro.metrics import evaluate_clustering

#: Quick-leg grid: the fused method against the concatenation baseline.
QUICK_METHODS = ("UMSC", "ConcatSC")
QUICK_SCENARIOS = ("clean", "confused_pairs", "missing_views")
QUICK_N = 90


def test_quick_matrix_completes_with_finite_scores():
    matrix = run_scenario_matrix(
        methods=QUICK_METHODS,
        scenarios=QUICK_SCENARIOS,
        n_samples=QUICK_N,
        n_runs=1,
        strict=True,
    )
    assert matrix.failures == []
    for metric in matrix.metrics:
        grid = matrix.grid(metric)
        assert grid.shape == (len(QUICK_METHODS), len(QUICK_SCENARIOS))
        assert np.all(np.isfinite(grid))


def test_fusion_beats_worst_single_view_on_confused_pairs():
    """The scenario's reason to exist: fusion is *necessary* there."""
    data = generate("confused_pairs", n_samples=QUICK_N)
    per_view = all_single_view_labels(
        data.views, data.n_clusters, random_state=0
    )
    worst = min(
        evaluate_clustering(data.labels, labels, metrics=("acc",))["acc"]
        for labels in per_view
    )
    matrix = run_scenario_matrix(
        methods=("UMSC",),
        scenarios=("confused_pairs",),
        n_samples=QUICK_N,
        strict=True,
    )
    fused = matrix.cell("UMSC", "confused_pairs").scores["acc"].mean
    assert fused > worst


@pytest.mark.slow
def test_full_matrix_prints(capsys):
    matrix = run_scenario_matrix(n_samples=160, n_runs=3)
    with capsys.disabled():
        print("\n=== Method × scenario robustness matrix ===")
        for metric in matrix.metrics:
            print()
            print(format_matrix(matrix, metric))
        for method, scenario, error in matrix.failures:
            print(f"FAILED {method} × {scenario}: {error}")
    # Incomplete-view handling aside, the proposed method should win or
    # tie somewhere: UMSC is best-in-column for at least one scenario.
    acc = matrix.grid("acc")
    i = matrix.methods.index("UMSC")
    best = np.nanmax(acc, axis=0)
    assert np.any(acc[i] >= best - 1e-12)
