"""Hypothesis property tests for graph-substrate invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.kmeans import KMeans, _lloyd
from repro.graph.affinity import build_view_affinity
from repro.graph.fusion import fuse_affinities, fuse_laplacians
from repro.graph.laplacian import laplacian

graph_settings = settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_points(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d)) * 3.0


class TestAffinityInvariants:
    @graph_settings
    @given(
        n=st.integers(5, 25),
        d=st.integers(1, 6),
        k=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["self_tuning", "gaussian", "cosine", "adaptive"]),
    )
    def test_affinity_is_valid_graph(self, n, d, k, seed, kind):
        x = _random_points(n, d, seed)
        w = build_view_affinity(x, kind=kind, k=k)
        assert w.shape == (n, n)
        np.testing.assert_allclose(w, w.T, atol=1e-10)
        assert w.min() >= -1e-12
        np.testing.assert_allclose(np.diag(w), 0.0, atol=1e-12)
        assert np.all(np.isfinite(w))

    @graph_settings
    @given(
        n=st.integers(5, 20),
        seed=st.integers(0, 10_000),
        norm=st.sampled_from(["symmetric", "unnormalized"]),
    )
    def test_laplacian_spectrum_invariants(self, n, seed, norm):
        x = _random_points(n, 3, seed)
        w = build_view_affinity(x, k=min(5, n - 1))
        lap = laplacian(w, normalization=norm)
        assert np.all(np.isfinite(lap))
        values = np.linalg.eigvalsh((lap + lap.T) / 2.0)
        assert values.min() >= -1e-8
        if norm == "symmetric":
            assert values.max() <= 2.0 + 1e-8

    @graph_settings
    @given(
        n=st.integers(5, 15),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.0, 1.0),
    )
    def test_fusion_is_convex_combination(self, n, seed, alpha):
        a = build_view_affinity(_random_points(n, 3, seed), k=min(4, n - 1))
        b = build_view_affinity(_random_points(n, 4, seed + 1), k=min(4, n - 1))
        # The uniform fusion and a weighted one with weights summing to 1
        # both lie entrywise between the inputs' min and max.
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        for fused in (
            fuse_affinities([a, b]),
            fuse_laplacians([a, b], [alpha, 1.0 - alpha]),
        ):
            assert np.all(fused >= lo - 1e-12)
            assert np.all(fused <= hi + 1e-12)


class TestKMeansInvariants:
    @graph_settings
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
    @example(seed=10, k=6)
    def test_inertia_nonincreasing_in_k(self, seed, k):
        # Two independent fits guarantee nothing (KMeans(7) can land in a
        # worse local optimum than KMeans(6)), but Lloyd's descent does:
        # started from the k-center solution plus the point farthest from
        # it, its first step already costs no more than that solution and
        # no later step raises the cost.
        x = _random_points(30, 3, seed)
        fit = KMeans(k, n_init=3, random_state=0).fit(x)
        gap = ((x[:, None, :] - fit.centers[None]) ** 2).sum(axis=2).min(axis=1)
        start = np.vstack([fit.centers, x[np.argmax(gap)]])
        _, _, inertia, _ = _lloyd(x, start, 300)
        assert inertia <= fit.inertia * (1 + 1e-9)

    @graph_settings
    @given(seed=st.integers(0, 10_000))
    def test_centers_are_cluster_means(self, seed):
        x = _random_points(25, 2, seed)
        result = KMeans(3, n_init=2, random_state=1).fit(x)
        for j in range(3):
            members = x[result.labels == j]
            np.testing.assert_allclose(
                result.centers[j], members.mean(axis=0), atol=1e-8
            )
