"""Integration tests: full pipelines across modules.

These exercise the same end-to-end paths the benchmarks use, on small
inputs: benchmark generation -> graphs -> every method -> metrics ->
tables, plus the public top-level API surface.
"""

import numpy as np
import pytest

import repro
from repro import (
    TwoStageMVSC,
    UnifiedMVSC,
    evaluate_clustering,
    load_benchmark,
    make_multiview_blobs,
    run_experiment,
)
from repro.evaluation.tables import format_metric_table


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestEndToEndPipeline:
    def test_benchmark_to_clustering(self):
        ds = load_benchmark("yale")
        result = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views)
        scores = evaluate_clustering(ds.labels, result.labels)
        # Structured data: far above the random-assignment baseline.
        assert scores["acc"] > 2.0 / ds.n_clusters
        assert scores["nmi"] > 0.2

    def test_multiview_beats_worst_view(self, medium_dataset):
        from repro.baselines import all_single_view_labels

        c = medium_dataset.n_clusters
        per_view = all_single_view_labels(
            medium_dataset.views, c, random_state=0
        )
        worst = min(
            evaluate_clustering(medium_dataset.labels, labels)["acc"]
            for labels in per_view
        )
        result = UnifiedMVSC(c, random_state=0).fit(medium_dataset.views)
        fused = evaluate_clustering(medium_dataset.labels, result.labels)["acc"]
        assert fused >= worst - 0.05

    def test_experiment_to_table(self, small_dataset):
        results = run_experiment(
            small_dataset,
            methods=["SC_best", "KernelAddSC", "UMSC"],
            n_runs=2,
        )
        table = format_metric_table({small_dataset.name: results}, "acc")
        assert "UMSC" in table and "SC_best" in table

    def test_one_stage_vs_two_stage_same_pipeline(self, small_dataset):
        one = UnifiedMVSC(3, random_state=0).fit(small_dataset.views).labels
        two = TwoStageMVSC(3, random_state=0).fit_predict(small_dataset.views)
        acc_one = evaluate_clustering(small_dataset.labels, one)["acc"]
        acc_two = evaluate_clustering(small_dataset.labels, two)["acc"]
        # On the easy fixture both should be essentially perfect.
        assert acc_one > 0.95 and acc_two > 0.95

    def test_reproducible_full_path(self):
        ds = make_multiview_blobs(100, 3, view_dims=(8, 12), random_state=4)
        a = UnifiedMVSC(3, random_state=9).fit(ds.views)
        b = UnifiedMVSC(3, random_state=9).fit(ds.views)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.view_weights, b.view_weights)
        assert a.objective_history == b.objective_history


class TestCrossMetricConsistency:
    def test_perfect_clustering_all_metrics_one(self, small_dataset):
        scores = evaluate_clustering(
            small_dataset.labels,
            small_dataset.labels,
            metrics=("acc", "nmi", "purity", "ari", "fscore"),
        )
        for name, value in scores.items():
            assert value == pytest.approx(1.0), name

    def test_purity_upper_bounds_acc(self, medium_dataset):
        result = UnifiedMVSC(4, random_state=1).fit(medium_dataset.views)
        scores = evaluate_clustering(
            medium_dataset.labels, result.labels, metrics=("acc", "purity")
        )
        assert scores["purity"] >= scores["acc"] - 1e-12


def _same_partition(a, b) -> bool:
    """Whether two label vectors are equal up to relabeling."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestViewOrderInvariance:
    """Reversing the views leaves the partition unchanged: the objective
    sums over views, and the solvers must not depend on their order."""

    @pytest.mark.parametrize("dataset", ["three_sources", "msrcv1", "yale"])
    @pytest.mark.parametrize("method", ["UnifiedMVSC", "SparseMVSC"])
    def test_reversed_views_give_the_same_partition(self, method, dataset):
        ds = load_benchmark(dataset)
        model = getattr(repro, method)

        def labels(views):
            fitted = model(ds.n_clusters, random_state=0)
            return np.asarray(fitted.fit_predict(views))

        assert _same_partition(labels(ds.views), labels(ds.views[::-1]))
