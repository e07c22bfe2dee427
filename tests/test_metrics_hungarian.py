"""Tests for repro.metrics.hungarian (validated against scipy)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from repro.exceptions import ValidationError
from repro.metrics.hungarian import hungarian


class TestHungarianCorrectness:
    def test_known_2x2(self):
        rows, cols = hungarian(np.array([[4.0, 1.0], [2.0, 0.0]]))
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 0)]

    def test_identity_cost(self):
        c = np.ones((3, 3)) - np.eye(3)
        rows, cols = hungarian(c)
        np.testing.assert_array_equal(rows, cols)

    def test_matches_bruteforce_square(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            cost = rng.normal(size=(n, n))
            rows, cols = hungarian(cost)
            best = min(
                sum(cost[i, p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert cost[rows, cols].sum() == pytest.approx(best)

    def test_rectangular_wide(self):
        rng = np.random.default_rng(1)
        cost = rng.normal(size=(3, 7))
        rows, cols = hungarian(cost)
        sr, sc = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(
            cost[sr, sc].sum()
        )
        assert len(rows) == 3

    def test_rectangular_tall(self):
        rng = np.random.default_rng(2)
        cost = rng.normal(size=(7, 3))
        rows, cols = hungarian(cost)
        sr, sc = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(
            cost[sr, sc].sum()
        )
        assert len(cols) == 3
        assert len(set(rows.tolist())) == 3

    def test_assignment_is_injective(self):
        rng = np.random.default_rng(3)
        cost = rng.normal(size=(6, 6))
        rows, cols = hungarian(cost)
        assert len(set(rows.tolist())) == 6
        assert len(set(cols.tolist())) == 6

    def test_row_ind_sorted(self):
        rng = np.random.default_rng(4)
        rows, _ = hungarian(rng.normal(size=(5, 5)))
        assert np.all(np.diff(rows) > 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_single_cell(self):
        rows, cols = hungarian(np.array([[3.0]]))
        assert rows.tolist() == [0] and cols.tolist() == [0]

    @settings(deadline=None, max_examples=60)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 7), st.integers(1, 7)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_property_matches_scipy(self, cost):
        rows, cols = hungarian(cost)
        sr, sc = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(
            cost[sr, sc].sum(), abs=1e-7
        )
