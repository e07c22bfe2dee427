"""Hypothesis property tests over the full clustering pipeline.

Random small multi-view datasets (random sizes, dimensions, cluster
counts, seeds) must always produce structurally valid results: complete
label ranges, orthonormal factors, monotone objectives, metric bounds.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import UnifiedMVSC
from repro.core.anchor_model import AnchorMVSC
from repro.datasets import make_multiview_blobs
from repro.exceptions import ConvergenceWarning
from repro.metrics import evaluate_clustering

pipeline_settings = settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


def _dataset(n_per_cluster, c, d1, d2, seed):
    return make_multiview_blobs(
        n_per_cluster * c,
        c,
        view_dims=(d1, d2),
        separation=5.0,
        random_state=seed,
    )


class TestUMSCProperties:
    @pipeline_settings
    @given(
        n_per_cluster=st.integers(8, 15),
        c=st.integers(2, 5),
        d1=st.integers(4, 12),
        d2=st.integers(4, 12),
        seed=st.integers(0, 10_000),
    )
    def test_structural_invariants(self, n_per_cluster, c, d1, d2, seed):
        ds = _dataset(n_per_cluster, c, d1, d2, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = UnifiedMVSC(c, random_state=seed).fit(ds.views)
        n = ds.n_samples
        # Labels cover exactly 0..c-1 with no empty cluster.
        counts = np.bincount(result.labels, minlength=c)
        assert counts.shape == (c,)
        assert np.all(counts >= 1)
        # Factors satisfy their constraints.
        for factor in (result.embedding, result.rotation):
            k = factor.shape[1]
            np.testing.assert_allclose(factor.T @ factor, np.eye(k), atol=1e-6)
        assert result.indicator.shape == (n, c)
        np.testing.assert_allclose(result.indicator.sum(axis=1), 1.0)
        # Weights are positive and finite.
        assert np.all(result.view_weights > 0)
        assert np.all(np.isfinite(result.view_weights))
        # Objective history descends up to the w-step tolerance.
        h = result.objective_history
        for a, b in zip(h, h[1:]):
            assert b <= a + 1e-3 * max(1.0, abs(a))

    @pipeline_settings
    @given(seed=st.integers(0, 10_000))
    def test_metrics_bounded_for_any_result(self, seed):
        ds = _dataset(10, 3, 6, 8, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = UnifiedMVSC(3, random_state=seed).fit(ds.views)
        scores = evaluate_clustering(
            ds.labels,
            result.labels,
            metrics=("acc", "nmi", "purity", "ari", "fscore"),
        )
        assert 0.0 <= scores["acc"] <= 1.0
        assert 0.0 <= scores["nmi"] <= 1.0
        assert 0.0 < scores["purity"] <= 1.0
        assert -1.0 <= scores["ari"] <= 1.0
        assert 0.0 <= scores["fscore"] <= 1.0
        assert scores["purity"] >= scores["acc"] - 1e-12


class TestAnchorProperties:
    @pipeline_settings
    @given(
        c=st.integers(2, 4),
        seed=st.integers(0, 10_000),
    )
    def test_anchor_labels_complete(self, c, seed):
        ds = _dataset(20, c, 5, 7, seed)
        labels = AnchorMVSC(
            c, n_anchors=25, random_state=seed
        ).fit_predict(ds.views)
        counts = np.bincount(labels, minlength=c)
        assert np.all(counts >= 1)
        assert labels.shape == (ds.n_samples,)
