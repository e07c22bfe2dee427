"""Method × scenario robustness matrix over the scenario factory.

The controlled scenarios (:mod:`repro.datasets.scenarios`) turn the
paper's robustness story into a measured grid: each column is a failure
mode (confused cluster pairs, missing views, noise, imbalance, ...), each
row a method, each cell aggregated ACC/NMI/ARI.  This bench runs:

* unmarked contract legs on the quick grid of the tracked
  ``scenario_matrix`` bench (:func:`repro.bench.matrix_workload`, the
  grid ``repro bench run --quick`` times) asserting the structural
  claims — the grid completes without per-cell failures, every score is
  finite, and on the ``confused_pairs`` scenario the fused UMSC beats
  the *worst* single view (the scenario is built so no single view can
  resolve every cluster pair);
* a ``slow``-marked full pass (default method grid × every registered
  scenario, three runs per cell, at the tracked full size) that prints
  the paper-style table per metric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.single_view import all_single_view_labels
from repro.bench import matrix_workload
from repro.datasets.scenarios import generate
from repro.evaluation.scenario_matrix import (
    format_matrix,
    run_scenario_matrix,
)
from repro.metrics import evaluate_clustering

QUICK = matrix_workload(quick=True)


@pytest.fixture(scope="module")
def quick_matrix():
    return run_scenario_matrix(**QUICK, strict=True)


def test_quick_matrix_completes_with_finite_scores(quick_matrix):
    assert quick_matrix.failures == []
    for metric in quick_matrix.metrics:
        grid = quick_matrix.grid(metric)
        assert grid.shape == (len(QUICK["methods"]), len(QUICK["scenarios"]))
        assert np.all(np.isfinite(grid))


def test_fusion_beats_worst_single_view_on_confused_pairs(quick_matrix):
    """The scenario's reason to exist: fusion is *necessary* there."""
    data = generate("confused_pairs", n_samples=QUICK["n_samples"])
    per_view = all_single_view_labels(
        data.views, data.n_clusters, random_state=0
    )
    worst = min(
        evaluate_clustering(data.labels, labels, metrics=("acc",))["acc"]
        for labels in per_view
    )
    fused = quick_matrix.cell("UMSC", "confused_pairs").scores["acc"].mean
    assert fused > worst


@pytest.mark.slow
def test_full_matrix_prints(capsys):
    n = matrix_workload(quick=False)["n_samples"]
    matrix = run_scenario_matrix(n_samples=n, n_runs=3)
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
