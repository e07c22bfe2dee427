"""Tests for repro.core.model (the unified framework)."""

import warnings

import numpy as np
import pytest

from repro.core.discrete import scaled_indicator
from repro.core.model import UnifiedMVSC
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.metrics import clustering_accuracy


class TestUnifiedMVSC:
    def test_recovers_easy_clusters(self, small_dataset):
        result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        assert clustering_accuracy(small_dataset.labels, result.labels) > 0.95

    def test_result_invariants(self, small_dataset):
        result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        n = small_dataset.n_samples
        # Discrete indicator: one-hot rows, no empty cluster.
        assert result.indicator.shape == (n, 3)
        np.testing.assert_allclose(result.indicator.sum(axis=1), 1.0)
        assert np.all(result.indicator.sum(axis=0) >= 1)
        # Labels read directly off Y.
        np.testing.assert_array_equal(
            result.labels, np.argmax(result.indicator, axis=1)
        )
        # Embedding orthonormal, rotation orthogonal.
        for factor in (result.embedding, result.rotation):
            k = factor.shape[1]
            np.testing.assert_allclose(factor.T @ factor, np.eye(k), atol=1e-6)
        # Weights valid.
        assert result.view_weights.shape == (2,)
        assert np.all(result.view_weights > 0)

    def test_objective_monotone_up_to_w_step(self, small_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = UnifiedMVSC(3, max_iter=30, tol=1e-12, random_state=0).fit(
                small_dataset.views
            )
        h = result.objective_history
        # F/R/Y blocks descend exactly; the IRLS w-step may perturb the
        # objective slightly, hence the relative tolerance.
        for a, b in zip(h, h[1:]):
            assert b <= a + 1e-3 * max(1.0, abs(a))

    def test_deterministic_given_seed(self, medium_dataset):
        a = UnifiedMVSC(4, random_state=3).fit(medium_dataset.views)
        b = UnifiedMVSC(4, random_state=3).fit(medium_dataset.views)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_weighting_modes_all_work(self, small_dataset):
        for mode in ("exponential", "parameter_free", "uniform"):
            result = UnifiedMVSC(
                3, weighting=mode, random_state=0
            ).fit(small_dataset.views)
            assert clustering_accuracy(small_dataset.labels, result.labels) > 0.9

    def test_lam_zero_is_spectral_rotation(self, small_dataset):
        result = UnifiedMVSC(3, lam=0.0, random_state=0).fit(small_dataset.views)
        assert clustering_accuracy(small_dataset.labels, result.labels) > 0.9

    def test_fit_affinities_direct(self, affinity_pair, small_dataset):
        result = UnifiedMVSC(3, random_state=0).fit_affinities(affinity_pair)
        assert clustering_accuracy(small_dataset.labels, result.labels) > 0.9

    def test_noisy_view_downweighted(self, rng):
        from repro.datasets.synth import make_multiview_blobs

        ds = make_multiview_blobs(
            120,
            3,
            view_dims=(15, 15),
            view_noise=(0.05, 3.0),  # second view is garbage
            view_distractors=(0.0, 0.5),
            view_outliers=(0.0, 0.2),
            separation=6.0,
            random_state=17,
        )
        result = UnifiedMVSC(3, gamma=1.5, random_state=0).fit(ds.views)
        assert result.view_weights[0] > result.view_weights[1]

    def test_convergence_warning_when_capped(self, medium_dataset):
        with pytest.warns(ConvergenceWarning):
            UnifiedMVSC(4, max_iter=1, tol=1e-15, random_state=0).fit(
                medium_dataset.views
            )

    def test_single_view_works(self, small_dataset):
        result = UnifiedMVSC(3, random_state=0).fit([small_dataset.views[0]])
        assert clustering_accuracy(small_dataset.labels, result.labels) > 0.9

    def test_validation(self, small_dataset):
        with pytest.raises(ValidationError, match="exceeds"):
            UnifiedMVSC(1000).fit(small_dataset.views)
        with pytest.raises(ValidationError, match="non-empty"):
            UnifiedMVSC(2).fit_affinities([])
        with pytest.raises(ValidationError, match="n_restarts"):
            UnifiedMVSC(2, n_restarts=0)

    def test_n_iter_and_history_lengths_agree(self, small_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = UnifiedMVSC(3, max_iter=5, tol=1e-15, random_state=0).fit(
                small_dataset.views
            )
        assert result.n_iter == len(result.objective_history) == 5

    def test_final_objective_property(self, small_dataset):
        result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        assert result.objective == result.objective_history[-1]

    def test_indicator_matches_scaled_form(self, small_dataset):
        result = UnifiedMVSC(3, random_state=0).fit(small_dataset.views)
        g = scaled_indicator(result.labels, 3)
        counts = np.bincount(result.labels, minlength=3)
        np.testing.assert_allclose(
            g.sum(axis=0), np.sqrt(counts), atol=1e-10
        )
