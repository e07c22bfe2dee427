"""Tests for repro.core.two_stage, graph_builder, objective, and tuning."""

import numpy as np
import pytest

from repro.core.graph_builder import (
    build_laplacians,
    build_multiview_affinities,
    resolve_view_kind,
)
from repro.core.objective import spectral_costs, umsc_objective
from repro.core.tuning import (
    DEFAULT_GRID,
    RECOMMENDED,
    UMSCParams,
    recommended_params,
    recommended_umsc,
)
from repro.core.two_stage import TwoStageMVSC
from repro.exceptions import ValidationError
from repro.metrics import clustering_accuracy


class TestGraphBuilder:
    def test_one_affinity_per_view(self, small_dataset):
        affs = build_multiview_affinities(small_dataset.views)
        assert len(affs) == small_dataset.n_views
        for w in affs:
            assert w.shape == (90, 90)
            np.testing.assert_allclose(w, w.T, atol=1e-10)

    def test_auto_kind_resolution(self):
        dense = np.random.default_rng(0).normal(size=(10, 4))
        sparse = np.zeros((10, 100))
        sparse[0, 0] = 1.0
        assert resolve_view_kind(dense, "auto") == "self_tuning"
        assert resolve_view_kind(sparse, "auto") == "cosine"
        assert resolve_view_kind(dense, "gaussian") == "gaussian"

    def test_laplacians_psd(self, affinity_pair):
        for lap in build_laplacians(affinity_pair):
            assert np.linalg.eigvalsh(lap)[0] >= -1e-8


class TestObjective:
    def test_spectral_costs_nonnegative(self, affinity_pair):
        laps = build_laplacians(affinity_pair)
        rng = np.random.default_rng(0)
        f, _ = np.linalg.qr(rng.normal(size=(90, 3)))
        h = spectral_costs(laps, f)
        assert h.shape == (2,)
        assert np.all(h >= 0)

    def test_umsc_objective_components(self):
        n, c = 12, 3
        rng = np.random.default_rng(1)
        f, _ = np.linalg.qr(rng.normal(size=(n, c)))
        r = np.eye(c)
        g = f.copy()  # zero residual
        lap = np.eye(n)
        # tr(F^T F) = c; residual = 0.
        assert umsc_objective(lap, f, r, g, lam=5.0) == pytest.approx(c)

    def test_lam_scales_residual(self):
        n, c = 10, 2
        rng = np.random.default_rng(2)
        f, _ = np.linalg.qr(rng.normal(size=(n, c)))
        g = np.roll(f, 1, axis=0)
        lap = np.zeros((n, n))
        base = umsc_objective(lap, f, np.eye(c), g, lam=1.0)
        doubled = umsc_objective(lap, f, np.eye(c), g, lam=2.0)
        assert doubled == pytest.approx(2 * base)


class TestTwoStage:
    def test_recovers_easy_clusters(self, small_dataset):
        labels = TwoStageMVSC(3, random_state=0).fit_predict(small_dataset.views)
        assert clustering_accuracy(small_dataset.labels, labels) > 0.95

    def test_fit_affinities(self, affinity_pair, small_dataset):
        labels = TwoStageMVSC(3, random_state=0).fit_affinities(affinity_pair)
        assert clustering_accuracy(small_dataset.labels, labels) > 0.9

    def test_embed_orthonormal(self, affinity_pair):
        f = TwoStageMVSC(3, random_state=0).embed(affinity_pair)
        np.testing.assert_allclose(f.T @ f, np.eye(3), atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TwoStageMVSC(2, n_init=0)
        with pytest.raises(ValidationError, match="non-empty"):
            TwoStageMVSC(2).fit_affinities([])


class TestTuning:
    def test_recommended_covers_all_benchmarks(self):
        from repro.datasets import available_benchmarks

        for name in available_benchmarks():
            assert name in RECOMMENDED

    def test_unknown_dataset_falls_back(self):
        assert recommended_params("mystery") == UMSCParams()
        assert recommended_params(None) == UMSCParams()

    def test_recommended_umsc_builds(self):
        model = recommended_umsc(4, dataset_name="msrcv1", random_state=0)
        assert model.config.n_clusters == 4

    def test_grid_has_core_axes(self):
        assert set(DEFAULT_GRID) == {"lam", "consensus", "n_neighbors"}

    def test_params_build_valid_model(self, small_dataset):
        model = UMSCParams(lam=0.5, gamma=2.5, n_neighbors=6).build(
            3, random_state=0
        )
        result = model.fit(small_dataset.views)
        assert clustering_accuracy(small_dataset.labels, result.labels) > 0.9
