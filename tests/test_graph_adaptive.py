"""Tests for repro.graph.adaptive (CAN graphs and simplex projection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ValidationError
from repro.graph.adaptive import adaptive_neighbor_affinity, simplex_projection_rowwise
from repro.graph.distance import pairwise_sq_euclidean


def _can(x, k):
    """The CAN graph of ``x``'s squared Euclidean distances."""
    return adaptive_neighbor_affinity(pairwise_sq_euclidean(x), k=k)


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_allclose(simplex_projection_rowwise(v), v, atol=1e-12)

    def test_uniform_from_equal_values(self):
        out = simplex_projection_rowwise(np.array([[5.0, 5.0, 5.0, 5.0]]))
        np.testing.assert_allclose(out, 0.25)

    def test_large_entry_dominates(self):
        out = simplex_projection_rowwise(np.array([[100.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.floats(-20, 20, allow_nan=False),
        )
    )
    def test_property_rows_on_simplex(self, v):
        out = simplex_projection_rowwise(v)
        assert np.all(out >= -1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(
        arrays(np.float64, st.tuples(st.just(1), st.integers(2, 6)),
               elements=st.floats(-5, 5, allow_nan=False)),
    )
    def test_property_is_euclidean_projection(self, v):
        # The projection must be at least as close to v as any random
        # simplex point.
        out = simplex_projection_rowwise(v)[0]
        rng = np.random.default_rng(0)
        base = np.linalg.norm(out - v[0])
        for _ in range(10):
            p = rng.dirichlet(np.ones(v.shape[1]))
            assert base <= np.linalg.norm(p - v[0]) + 1e-9


class TestAdaptiveNeighborAffinity:
    def test_from_features_valid(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(15, 2)), rng.normal(size=(15, 2)) + 9])
        s = _can(x, 6)
        assert s.shape == (30, 30)
        np.testing.assert_allclose(s, s.T, atol=1e-12)
        assert np.all(s >= 0)
        np.testing.assert_allclose(np.diag(s), 0.0, atol=1e-12)

    def test_row_mass_before_symmetrization(self):
        # Each row of the CAN graph S sums to 1, and (S + S^T) / 2 keeps
        # the total mass.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        assert _can(x, 5).sum() == pytest.approx(20.0)

    def test_sparsity(self):
        # At most k neighbors per row of S, so at most 2k n entries after
        # symmetrization.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 2))
        assert np.count_nonzero(_can(x, 4)) <= 2 * 4 * 25

    def test_nearest_neighbor_weighted_most(self):
        # Colinear points: the closest neighbor must get the largest mass.
        x = np.array([[0.0], [1.0], [3.0], [6.0], [10.0]])
        s = _can(x, 2)
        assert s[0, 1] > s[0, 2] > 0
        assert s[0, 3] == 0.0

    def test_from_distances(self):
        # The recipe's adaptive kind is the CAN graph of the distances.
        from repro.graph.affinity import build_view_affinity

        x = np.random.default_rng(3).normal(size=(12, 2))
        np.testing.assert_allclose(
            _can(x, 4), build_view_affinity(x, kind="adaptive", k=4), atol=1e-10
        )

    def test_distances_must_be_square(self):
        with pytest.raises(ValidationError, match="square"):
            adaptive_neighbor_affinity(np.zeros((4, 2)))

    def test_blob_separation(self):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 12])
        s = _can(x, 5)
        assert s[:20, 20:].sum() == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range_raises(self):
        # The CAN closed form needs k+1 sorted neighbors beyond self, so
        # the valid range is [1, n-2]; out-of-range k must raise instead
        # of silently clamping (callers that want clamping do it
        # explicitly).
        x = np.random.default_rng(5).normal(size=(10, 2))
        with pytest.raises(ValidationError, match=r"k must be in \[1, 8\]"):
            _can(x, 9)
        with pytest.raises(ValidationError, match=r"k must be in \[1, 8\]"):
            _can(x, 0)
        with pytest.raises(ValidationError, match="k must be in"):
            _can(x, -3)

    def test_k_boundary_values_accepted(self):
        x = np.random.default_rng(6).normal(size=(10, 2))
        for k in (1, 8):
            assert _can(x, k).sum() == pytest.approx(10.0)
