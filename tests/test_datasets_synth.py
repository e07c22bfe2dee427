"""Tests for repro.datasets.synth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synth import (
    make_latent_clusters,
    make_multiview_blobs,
    view_from_latent,
)
from repro.exceptions import ValidationError


class TestMakeLatentClusters:
    def test_shapes(self):
        z, labels, centers = make_latent_clusters(50, 4, latent_dim=8, random_state=0)
        assert z.shape == (50, 8)
        assert labels.shape == (50,)
        assert centers.shape == (4, 8)

    def test_every_cluster_populated(self):
        _, labels, _ = make_latent_clusters(20, 7, random_state=1)
        assert np.all(np.bincount(labels, minlength=7) >= 1)

    def test_balanced_sizes(self):
        _, labels, _ = make_latent_clusters(90, 3, balance=1.0, random_state=2)
        np.testing.assert_array_equal(np.bincount(labels), [30, 30, 30])

    def test_unbalanced_sizes_vary(self):
        _, labels, _ = make_latent_clusters(300, 4, balance=0.3, random_state=3)
        counts = np.bincount(labels)
        assert counts.sum() == 300
        assert counts.max() > counts.min()

    def test_separation_controls_distinctness(self):
        z_far, labels, centers = make_latent_clusters(
            100, 2, separation=50.0, within_scatter=1.0, random_state=4
        )
        within = np.linalg.norm(z_far[labels == 0] - centers[0], axis=1).mean()
        between = np.linalg.norm(centers[0] - centers[1])
        assert between > 10 * within

    def test_manifold_stretches_clusters(self):
        kwargs = dict(latent_dim=10, within_scatter=0.5, random_state=5)
        z0, labels0, _ = make_latent_clusters(200, 2, manifold=0.0, **kwargs)
        z1, labels1, _ = make_latent_clusters(200, 2, manifold=5.0, **kwargs)
        spread0 = np.mean(np.var(z0[labels0 == 0], axis=0))
        spread1 = np.mean(np.var(z1[labels1 == 0], axis=0))
        assert spread1 > spread0

    def test_deterministic(self):
        a = make_latent_clusters(30, 3, random_state=6)[0]
        b = make_latent_clusters(30, 3, random_state=6)[0]
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_latent_clusters(3, 5)
        with pytest.raises(ValidationError):
            make_latent_clusters(10, 2, balance=0.0)
        with pytest.raises(ValidationError):
            make_latent_clusters(10, 2, manifold=-1.0)

    def test_empty_cluster_from_extreme_balance_raises(self):
        """Regression: a balance draw that rounds a cluster to zero used
        to be silently clamped up to one sample; it must raise and name
        the offending cluster instead."""
        with pytest.raises(ValidationError, match="cluster 1 with 0 samples"):
            make_latent_clusters(12, 4, balance=0.05, random_state=0)

    def test_error_suggests_explicit_cluster_sizes(self):
        with pytest.raises(ValidationError, match="cluster_sizes"):
            make_latent_clusters(12, 4, balance=0.05, random_state=0)

    def test_explicit_cluster_sizes_honoured(self):
        _, labels, _ = make_latent_clusters(
            12, 4, cluster_sizes=(6, 3, 2, 1), random_state=0
        )
        # The generator may relabel, but the size multiset is exact.
        np.testing.assert_array_equal(
            np.sort(np.bincount(labels, minlength=4)), [1, 2, 3, 6]
        )

    def test_cluster_sizes_validation(self):
        with pytest.raises(ValidationError, match="shape"):
            make_latent_clusters(12, 4, cluster_sizes=(6, 6))
        with pytest.raises(ValidationError, match=">= 1"):
            make_latent_clusters(12, 4, cluster_sizes=(6, 6, 0, 0))
        with pytest.raises(ValidationError, match="sum"):
            make_latent_clusters(12, 4, cluster_sizes=(6, 3, 2, 2))

    def test_cluster_sizes_override_is_deterministic(self):
        kwargs = dict(cluster_sizes=(10, 6, 4), random_state=7)
        a = make_latent_clusters(20, 3, **kwargs)[0]
        b = make_latent_clusters(20, 3, **kwargs)[0]
        np.testing.assert_array_equal(a, b)


class TestViewFromLatent:
    def setup_method(self):
        self.z, self.labels, self.centers = make_latent_clusters(
            60, 3, latent_dim=6, random_state=0
        )

    def test_dense_shape(self):
        x = view_from_latent(self.z, 15, random_state=0)
        assert x.shape == (60, 15)

    def test_text_is_sparse_nonnegative(self):
        x = view_from_latent(self.z, 200, kind="text", random_state=1)
        assert np.all(x >= 0)
        density = np.count_nonzero(x) / x.size
        assert density < 0.2

    def test_binary_values(self):
        x = view_from_latent(self.z, 10, kind="binary", random_state=2)
        assert set(np.unique(x)).issubset({0.0, 1.0})

    def test_confusion_requires_labels(self):
        with pytest.raises(ValidationError, match="labels and centers"):
            view_from_latent(self.z, 5, confused_pairs=[(0, 1)], random_state=0)

    def test_confusion_merges_pair(self):
        # Confusing (0, 1) must shrink the distance between those two
        # clusters' view means relative to the unconfused rendering.
        clean = view_from_latent(self.z, 20, noise=0.01, random_state=3)
        confused = view_from_latent(
            self.z,
            20,
            noise=0.01,
            labels=self.labels,
            centers=self.centers,
            confused_pairs=[(0, 1)],
            random_state=3,
        )

        def gap(x, a, b):
            return np.linalg.norm(
                x[self.labels == a].mean(axis=0) - x[self.labels == b].mean(axis=0)
            )

        assert gap(confused, 0, 1) < 0.2 * gap(clean, 0, 1)

    def test_distractor_dims_count(self):
        x = view_from_latent(
            self.z, 20, distractor_fraction=0.5, noise=0.0, random_state=4
        )
        assert x.shape == (60, 20)

    def test_outliers_increase_spread(self):
        calm = view_from_latent(self.z, 10, noise=0.05, random_state=5)
        wild = view_from_latent(
            self.z, 10, noise=0.05, outlier_fraction=0.5, random_state=5
        )
        assert np.var(wild) > np.var(calm)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            view_from_latent(self.z, 5, kind="alien")

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            view_from_latent(self.z, 0)
        with pytest.raises(ValidationError):
            view_from_latent(self.z, 5, noise=-1)
        with pytest.raises(ValidationError):
            view_from_latent(self.z, 5, distractor_fraction=1.0)
        with pytest.raises(ValidationError):
            view_from_latent(self.z, 5, outlier_fraction=2.0)


class TestMakeMultiviewBlobs:
    def test_structure(self):
        ds = make_multiview_blobs(80, 4, view_dims=(10, 20, 5), random_state=0)
        assert ds.n_samples == 80
        assert ds.n_views == 3
        assert ds.n_clusters == 4
        assert ds.view_dims == (10, 20, 5)

    def test_deterministic(self):
        a = make_multiview_blobs(40, 2, random_state=9)
        b = make_multiview_blobs(40, 2, random_state=9)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_clusterable_when_easy(self):
        from repro.core import UnifiedMVSC
        from repro.metrics import clustering_accuracy

        ds = make_multiview_blobs(
            90,
            3,
            view_dims=(15, 15),
            view_noise=(0.05, 0.05),
            view_distractors=(0.0, 0.0),
            view_outliers=(0.0, 0.0),
            separation=8.0,
            random_state=1,
        )
        result = UnifiedMVSC(3, random_state=0).fit(ds.views)
        assert clustering_accuracy(ds.labels, result.labels) > 0.95

    def test_length_mismatches_rejected(self):
        with pytest.raises(ValidationError, match="view_kinds"):
            make_multiview_blobs(30, 2, view_dims=(5, 5), view_kinds=("dense",))
        with pytest.raises(ValidationError, match="view_noise"):
            make_multiview_blobs(30, 2, view_dims=(5, 5), view_noise=(0.1,))
        with pytest.raises(ValidationError, match="confusion_schedule"):
            make_multiview_blobs(
                30, 2, view_dims=(5, 5), confusion_schedule=[[]]
            )

    @settings(deadline=None, max_examples=10)
    @given(st.integers(2, 5), st.integers(0, 100))
    def test_property_labels_consistent(self, c, seed):
        ds = make_multiview_blobs(10 * c, c, view_dims=(6,), random_state=seed)
        assert ds.n_clusters == c
        assert all(v.shape[0] == 10 * c for v in ds.views)
