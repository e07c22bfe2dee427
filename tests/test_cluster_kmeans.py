"""Tests for repro.cluster.kmeans."""

import numpy as np
import pytest

from repro.cluster.kmeans import (
    KMeans,
    _lloyd,
    _reseed_empty,
    kmeans_plus_plus_init,
)
from repro.exceptions import ValidationError


def _blobs(k=3, per=20, sep=10.0, seed=0):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=(per, 2)) + sep * i for i in range(k)]
    return np.vstack(parts), np.repeat(np.arange(k), per)


class TestKMeansPlusPlus:
    def test_shape(self):
        x, _ = _blobs()
        centers = kmeans_plus_plus_init(x, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)

    def test_centers_are_data_points(self):
        x, _ = _blobs()
        centers = kmeans_plus_plus_init(x, 4, np.random.default_rng(1))
        for center in centers:
            assert np.any(np.all(np.isclose(x, center), axis=1))

    def test_spreads_across_blobs(self):
        # With well-separated blobs, the three seeds land in three blobs
        # almost surely.
        x, truth = _blobs(sep=100.0)
        centers = kmeans_plus_plus_init(x, 3, np.random.default_rng(2))
        blobs_hit = set()
        for center in centers:
            idx = np.argmin(np.sum((x - center) ** 2, axis=1))
            blobs_hit.add(int(truth[idx]))
        assert len(blobs_hit) == 3

    def test_duplicate_points_handled(self):
        x = np.zeros((10, 2))
        centers = kmeans_plus_plus_init(x, 3, np.random.default_rng(3))
        assert centers.shape == (3, 2)

    def test_invalid_k(self):
        x, _ = _blobs()
        with pytest.raises(ValidationError):
            kmeans_plus_plus_init(x, 0, np.random.default_rng(0))


class TestKMeans:
    def test_recovers_blobs(self):
        from repro.metrics import clustering_accuracy

        x, truth = _blobs(sep=15.0)
        labels = KMeans(3, random_state=0).fit_predict(x)
        assert clustering_accuracy(truth, labels) == 1.0

    def test_result_fields(self):
        x, _ = _blobs()
        result = KMeans(3, random_state=1).fit(x)
        assert result.labels.shape == (60,)
        assert result.centers.shape == (3, 2)
        assert result.inertia >= 0
        assert result.n_iter >= 1

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        result = KMeans(8, random_state=2).fit(x)
        assert np.all(np.bincount(result.labels, minlength=8) >= 1)

    def test_deterministic_given_seed(self):
        x, _ = _blobs(seed=5)
        a = KMeans(3, random_state=7).fit_predict(x)
        b = KMeans(3, random_state=7).fit_predict(x)
        np.testing.assert_array_equal(a, b)

    def test_more_restarts_no_worse(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3))
        one = KMeans(5, n_init=1, random_state=0).fit(x).inertia
        many = KMeans(5, n_init=20, random_state=0).fit(x).inertia
        assert many <= one + 1e-9

    def test_inertia_matches_labels(self):
        x, _ = _blobs(seed=8)
        result = KMeans(3, random_state=3).fit(x)
        recomputed = sum(
            np.sum((x[result.labels == j] - result.centers[j]) ** 2)
            for j in range(3)
        )
        assert result.inertia == pytest.approx(recomputed, rel=1e-6)

    def test_k_equals_n(self):
        x = np.arange(10, dtype=float).reshape(5, 2)
        result = KMeans(5, random_state=0).fit(x)
        assert set(result.labels.tolist()) == set(range(5))
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            KMeans(10).fit(np.zeros((4, 2)))

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            KMeans(0)
        with pytest.raises(ValidationError):
            KMeans(2, n_init=0)
        with pytest.raises(ValidationError):
            KMeans(2, max_iter=0)

    def test_single_cluster(self):
        x, _ = _blobs()
        result = KMeans(1, random_state=0).fit(x)
        assert set(result.labels.tolist()) == {0}
        np.testing.assert_allclose(result.centers[0], x.mean(axis=0))


def _global_farthest_reseed(labels, point_cost, k):
    """Reference repair: each empty cluster takes the farthest point overall.

    It is correct whenever that point is never its cluster's last member,
    and :func:`_reseed_empty` must agree with it there.
    """
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0):
        victim = int(np.argmax(point_cost))
        labels[victim] = c
        point_cost[victim] = 0.0
        counts = np.bincount(labels, minlength=k)
    return counts


class TestEmptyClusterRepair:
    def test_singleton_cluster_is_not_emptied(self):
        # The farthest point (10, cost 0.01) is the only member of cluster
        # 2; moving it into empty cluster 1 would empty cluster 2.
        x = np.array([[0.0], [0.0], [0.0], [10.0]])
        centers = np.array([[0.0], [100.0], [10.1]])
        labels, out, _, _ = _lloyd(x, centers, 1)
        assert np.bincount(labels, minlength=3).min() >= 1
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(labels, [1, 0, 0, 2])

    def test_every_cluster_filled_in_ascending_order(self):
        labels = np.array([0, 0, 0, 3, 3])
        cost = np.array([1.0, 5.0, 2.0, 9.0, 4.0])
        counts = _reseed_empty(labels, cost, 5)
        np.testing.assert_array_equal(counts, [1, 1, 1, 1, 1])
        # Cluster 1 takes row 3 (cost 9).  Cluster 3 is then a singleton,
        # so its row 4 (cost 4) stays and clusters 2 and 4 take rows 1 and
        # 2 (costs 5 and 2) from cluster 0.
        np.testing.assert_array_equal(labels, [0, 2, 4, 1, 3])
        np.testing.assert_array_equal(cost, [1.0, 0.0, 0.0, 0.0, 4.0])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_where_it_was_safe(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 4 * k))
        labels = rng.integers(0, max(1, k - int(rng.integers(1, k))), size=n)
        cost = np.round(rng.exponential(size=n), 1)
        ref_labels, ref_cost = labels.copy(), cost.copy()
        ref_counts = _global_farthest_reseed(ref_labels, ref_cost, k)
        counts = _reseed_empty(labels, cost, k)
        assert counts.min() >= 1
        np.testing.assert_array_equal(counts, np.bincount(labels, minlength=k))
        if ref_counts.min() >= 1:
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_array_equal(cost, ref_cost)
