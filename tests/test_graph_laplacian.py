"""Tests for repro.graph.laplacian."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.laplacian import _degrees, laplacian, normalized_adjacency


def _random_affinity(n=12, seed=0):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


class TestDegreeVector:
    def test_row_sums(self):
        w = _random_affinity()
        np.testing.assert_allclose(_degrees(w), w.sum(axis=1))


class TestNormalizedAdjacency:
    def test_spectrum_bounded_by_one(self):
        a = normalized_adjacency(_random_affinity(seed=1))
        values = np.linalg.eigvalsh(a)
        assert values.max() <= 1.0 + 1e-10
        assert values.min() >= -1.0 - 1e-10

    def test_isolated_vertex_row_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        a = normalized_adjacency(w)
        np.testing.assert_allclose(a[2], 0.0)


class TestLaplacian:
    def test_unnormalized_row_sums_zero(self):
        lap = laplacian(_random_affinity(), normalization="unnormalized")
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-10)

    def test_unnormalized_psd(self):
        lap = laplacian(_random_affinity(seed=2), normalization="unnormalized")
        assert np.linalg.eigvalsh(lap)[0] >= -1e-8

    def test_symmetric_psd_and_bounded(self):
        lap = laplacian(_random_affinity(seed=3))
        assert np.linalg.eigvalsh(lap)[0] >= -1e-8
        assert np.linalg.eigvalsh(lap).max() <= 2.0 + 1e-10

    def test_symmetric_nullvector_is_sqrt_degree(self):
        w = _random_affinity(seed=4)
        lap = laplacian(w)
        d = np.sqrt(w.sum(axis=1))
        np.testing.assert_allclose(lap @ d, 0.0, atol=1e-8)

    def test_component_count_equals_nullity(self):
        # Two disconnected cliques -> nullity 2.
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        np.fill_diagonal(w, 0.0)
        lap = laplacian(w)
        values = np.linalg.eigvalsh(lap)
        assert np.sum(values < 1e-10) == 2

    def test_unknown_normalization(self):
        with pytest.raises(ValidationError, match="normalization"):
            laplacian(_random_affinity(), normalization="weird")


class TestIsolatedVertices:
    """Zero-degree vertices must be exact null-space directions.

    Regression tests: the normalized Laplacians used to leave a spurious
    1 on an isolated vertex's diagonal (from the ``I`` in ``I - A``),
    breaking the components-equal-nullity identity the spectral embedding
    relies on.
    """

    def _affinity_with_isolated(self):
        w = _random_affinity(n=8, seed=9)
        w[0, :] = 0.0
        w[:, 0] = 0.0  # vertex 0 isolated
        return w

    def test_symmetric_diagonal_zero_on_isolated(self):
        lap = laplacian(self._affinity_with_isolated())
        assert lap[0, 0] == 0.0
        np.testing.assert_allclose(lap[0, :], 0.0)
        np.testing.assert_allclose(lap[:, 0], 0.0)

    def test_isolated_vertex_is_nullvector(self):
        lap = laplacian(self._affinity_with_isolated())
        e0 = np.zeros(8)
        e0[0] = 1.0
        np.testing.assert_allclose(lap @ e0, 0.0, atol=1e-12)

    def test_nullity_counts_isolated_as_component(self):
        # One connected blob of 7 vertices + 1 isolated vertex = 2
        # components, so the symmetric Laplacian nullity must be 2.
        lap = laplacian(self._affinity_with_isolated())
        values = np.linalg.eigvalsh(lap)
        assert np.sum(values < 1e-10) == 2
        assert np.linalg.eigvalsh(lap)[0] >= -1e-8


class TestNormalizedAdjacencyLaplacianConsistency:
    def test_identity_minus_adjacency(self):
        w = _random_affinity(seed=8)
        lap = laplacian(w)
        adj = normalized_adjacency(w)
        np.testing.assert_allclose(lap, np.eye(12) - adj, atol=1e-10)

    def test_bipartite_graph_eigenvalue_two(self):
        # A bipartite graph's normalized Laplacian attains eigenvalue 2.
        w = np.zeros((6, 6))
        w[:3, 3:] = 1.0
        w[3:, :3] = 1.0
        values = np.linalg.eigvalsh(laplacian(w))
        assert values.max() == pytest.approx(2.0, abs=1e-10)


class TestSingleValidation:
    """Each public call validates its affinity exactly once.

    The dense fused operator rebuilds a Laplacian on every weight update,
    so every extra O(n^2) symmetry check lands in the UMSC hot loop.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        """Record the name of every ``check_symmetric`` call."""
        import importlib

        from repro.utils.validation import check_symmetric

        # ``repro.graph`` re-exports the function under the module's name.
        laplacian_mod = importlib.import_module("repro.graph.laplacian")

        calls = []

        def counting_check_symmetric(x, name="A", **kwargs):
            calls.append(name)
            return check_symmetric(x, name, **kwargs)

        monkeypatch.setattr(
            laplacian_mod, "check_symmetric", counting_check_symmetric
        )
        return calls

    @pytest.mark.parametrize("normalization", ["symmetric", "unnormalized"])
    def test_laplacian_checks_once(self, spy, normalization):
        laplacian(_random_affinity(), normalization=normalization)
        assert spy == ["w"]

    @pytest.mark.parametrize("fn", [normalized_adjacency])
    def test_adjacency_and_degrees_check_once(self, spy, fn):
        fn(_random_affinity())
        assert spy == ["w"]

    def test_negative_affinity_still_rejected_by_every_entry_point(self, spy):
        w = -np.ones((3, 3))
        np.fill_diagonal(w, 0.0)
        for fn in (laplacian, normalized_adjacency):
            with pytest.raises(ValidationError, match="non-negative"):
                fn(w)

    @staticmethod
    def _dense_rep():
        from repro.core.config import UMSCConfig
        from repro.core.model import _DenseAffinities

        affinities = [_random_affinity(seed=s) for s in (0, 1)]
        rng = np.random.default_rng(0)
        bases = [np.linalg.qr(rng.normal(size=(12, 2)))[0] for _ in affinities]
        return _DenseAffinities(
            affinities,
            [laplacian(w) for w in affinities],
            bases,
            UMSCConfig(n_clusters=2),
        )

    def test_dense_operator_rebuild_skips_validation(self, spy):
        # ``_DenseAffinities.build`` validated the affinities; a weighted
        # sum of them with non-negative multipliers needs no re-check.
        rep = self._dense_rep()
        spy.clear()
        first = rep.operator(np.array([0.5, 0.5]))
        rebuilt = rep.operator(np.array([0.25, 0.75]))
        assert spy == []
        assert not np.array_equal(first, rebuilt)

    def test_dense_operator_cache_sees_in_place_weight_update(self):
        rep = self._dense_rep()
        w = np.array([0.5, 0.5])
        rep.operator(w)
        w[:] = [0.25, 0.75]
        fresh = self._dense_rep().operator(np.array([0.25, 0.75]))
        assert rep.operator(w).tobytes() == fresh.tobytes()
        assert rep.operator(w.copy()) is rep.operator(w)  # cached
