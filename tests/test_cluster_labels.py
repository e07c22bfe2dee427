"""Tests for repro.cluster.labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.labels import (
    indicator_from_labels,
    repair_empty_clusters,
)
from repro.exceptions import ValidationError


class TestIndicator:
    def test_round_trip(self):
        labels = np.array([0, 2, 1, 2])
        y = indicator_from_labels(labels)
        assert y.shape == (4, 3)
        np.testing.assert_array_equal(np.argmax(y, axis=1), labels)

    def test_rows_one_hot(self):
        y = indicator_from_labels([0, 1, 1, 0], 3)
        np.testing.assert_allclose(y.sum(axis=1), 1.0)
        assert y.shape == (4, 3)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError, match="n_clusters"):
            indicator_from_labels([0, 3], 2)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            indicator_from_labels([-1, 0])

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_property_round_trip(self, labels):
        y = indicator_from_labels(labels, 6)
        np.testing.assert_array_equal(np.argmax(y, axis=1), labels)


class TestRepairEmptyClusters:
    def test_no_op_when_complete(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        scores = np.random.default_rng(0).normal(size=(6, 3))
        out = repair_empty_clusters(labels, 3, scores)
        np.testing.assert_array_equal(out, labels)

    def test_fills_all_clusters(self):
        labels = np.zeros(10, dtype=np.int64)
        scores = np.random.default_rng(0).normal(size=(10, 4))
        out = repair_empty_clusters(labels, 4, scores)
        assert np.all(np.bincount(out, minlength=4) >= 1)

    def test_uses_scores_to_pick_victims(self):
        # Rows 0/1 strongly prefer cluster 0; row 2 barely does and scores
        # high on cluster 1 — it must be the one moved.
        scores = np.array([[10.0, 0.0], [9.0, 0.0], [1.0, 0.9]])
        labels = np.zeros(3, dtype=np.int64)
        out = repair_empty_clusters(labels, 2, scores=scores)
        np.testing.assert_array_equal(out, [0, 0, 1])

    def test_impossible_repair_rejected(self):
        with pytest.raises(ValidationError, match="cannot"):
            repair_empty_clusters(np.zeros(2, dtype=np.int64), 5, np.zeros((2, 5)))

    def test_score_shape_checked(self):
        with pytest.raises(ValidationError, match="scores"):
            repair_empty_clusters(
                np.zeros(3, dtype=np.int64), 2, scores=np.zeros((3, 5))
            )

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(0, 3), min_size=4, max_size=30),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_property_every_cluster_nonempty(self, labels, c, seed):
        # Labels index the score columns, so they lie in [0, c).
        labels = np.array(labels) % c
        scores = np.random.default_rng(seed).normal(size=(labels.size, c))
        out = repair_empty_clusters(labels, c, scores)
        counts = np.bincount(out, minlength=c)
        assert np.all(counts[:c] >= 1)
