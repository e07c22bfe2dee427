"""Tests for repro.metrics.accuracy (clustering ACC)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.accuracy import clustering_accuracy

label_vectors = st.lists(st.integers(0, 4), min_size=2, max_size=40)


class TestClusteringAccuracy:
    def test_perfect_after_permutation(self):
        assert clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_identity(self):
        assert clustering_accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_half_right(self):
        assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_all_one_cluster(self):
        # Best mapping credits the majority class.
        assert clustering_accuracy([0, 0, 0, 1], [0, 0, 0, 0]) == 0.75

    def test_more_clusters_than_classes(self):
        acc = clustering_accuracy([0, 0, 1, 1], [0, 1, 2, 3])
        assert acc == 0.5  # two of four samples can be matched

    def test_arbitrary_label_values(self):
        assert clustering_accuracy([10, 10, -3, -3], [7, 7, 99, 99]) == 1.0

    @settings(deadline=None, max_examples=50)
    @given(label_vectors)
    def test_property_permutation_invariance(self, labels):
        labels = np.array(labels)
        permuted = (labels + 1) % 5
        assert clustering_accuracy(labels, permuted) == 1.0

    @settings(deadline=None, max_examples=50)
    @given(label_vectors, st.integers(0, 100))
    def test_property_bounds_and_symmetry_of_perfection(self, labels, seed):
        labels = np.array(labels)
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, size=labels.size)
        acc = clustering_accuracy(labels, pred)
        assert 0.0 < acc <= 1.0 or acc == 0.0
        # ACC is at least the frequency of the largest class intersection
        # divided by n -- in particular at least 1/n.
        assert acc >= 1.0 / labels.size - 1e-12


class TestBestLabelMapping:
    """ACC scores the best one-to-one cluster -> class mapping."""

    def test_simple_permutation(self):
        assert clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_mapping_is_injective(self):
        # One cluster cannot match two classes: lumping everything into
        # one cluster matches only its largest class.
        truth = [0, 0, 1, 1, 2, 2]
        assert clustering_accuracy(truth, [0] * 6) == pytest.approx(1 / 3)

    def test_applying_mapping_achieves_acc(self):
        truth = np.array([0, 0, 1, 1, 2, 2, 2])
        pred = np.array([1, 1, 2, 0, 0, 0, 0])
        best = max(
            np.mean(np.array(perm)[pred] == truth)
            for perm in itertools.permutations(range(3))
        )
        assert clustering_accuracy(truth, pred) == pytest.approx(best)
