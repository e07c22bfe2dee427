"""Tests for purity, (adjusted) Rand index, pairwise F-score, confusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.ari import adjusted_rand_index, pairwise_counts
from repro.metrics.confusion import contingency_matrix
from repro.metrics.fscore import pairwise_f_score, pairwise_precision_recall
from repro.metrics.purity import purity_score

label_vectors = st.lists(st.integers(0, 4), min_size=2, max_size=30)


class TestContingency:
    def test_counts(self):
        c = contingency_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(c, [[1, 1], [0, 2]])

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 4, size=40)
        p = rng.integers(0, 6, size=40)
        assert contingency_matrix(t, p).sum() == 40

    def test_length_mismatch(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="equal length"):
            contingency_matrix([0, 1], [0, 1, 2])


class TestPurity:
    def test_perfect(self):
        assert purity_score([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_single_cluster(self):
        assert purity_score([0, 0, 1, 1], [0, 0, 0, 0]) == 0.5

    def test_singletons_are_pure(self):
        assert purity_score([0, 0, 1, 1], [0, 1, 2, 3]) == 1.0

    def test_monotone_in_refinement_example(self):
        coarse = purity_score([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1])
        fine = purity_score([0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2])
        assert fine >= coarse


class TestRandIndices:
    def test_pairwise_counts_sum(self):
        t = [0, 0, 1, 1, 2]
        p = [0, 1, 1, 1, 2]
        tp, fp, fn, tn = pairwise_counts(t, p)
        assert tp + fp + fn + tn == 5 * 4 / 2

    def test_rand_perfect(self):
        # A relabeling disagrees on no pair.
        tp, fp, fn, tn = pairwise_counts([0, 0, 1], [1, 1, 0])
        assert (fp, fn) == (0.0, 0.0)
        assert tp + tn == 3.0

    def test_ari_perfect(self):
        assert adjusted_rand_index([0, 1, 1, 2], [2, 0, 0, 1]) == 1.0

    def test_ari_random_near_zero(self):
        rng = np.random.default_rng(1)
        vals = []
        for _ in range(50):
            t = rng.integers(0, 3, size=60)
            p = rng.integers(0, 3, size=60)
            vals.append(adjusted_rand_index(t, p))
        assert abs(np.mean(vals)) < 0.05

    def test_ari_can_be_negative(self):
        # Systematically anti-correlated partitions dip below zero.
        t = [0, 0, 1, 1]
        p = [0, 1, 0, 1]
        assert adjusted_rand_index(t, p) <= 0.0

    @settings(deadline=None, max_examples=50)
    @given(label_vectors)
    def test_property_ari_bounds(self, labels):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, size=len(labels))
        v = adjusted_rand_index(labels, pred)
        assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9

    @settings(deadline=None, max_examples=50)
    @given(label_vectors)
    def test_property_rand_vs_scipy_formula(self, labels):
        # The pair counts behind the Rand index, against enumerating pairs.
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, size=len(labels))
        pairs = [
            (labels[i] == labels[j], pred[i] == pred[j])
            for i in range(len(labels))
            for j in range(i)
        ]
        expected = tuple(
            float(sum(pair == want for pair in pairs))
            for want in ((True, True), (False, True), (True, False), (False, False))
        )
        assert pairwise_counts(labels, pred) == pytest.approx(expected)


class TestPairwiseFScore:
    def test_perfect(self):
        assert pairwise_f_score([0, 0, 1], [1, 1, 0]) == 1.0

    def test_precision_recall_tradeoff(self):
        truth = [0, 0, 0, 0]
        # Splitting into singletons: no positive pairs -> precision 1,
        # recall 0.
        precision, recall = pairwise_precision_recall(truth, [0, 1, 2, 3])
        assert precision == 1.0
        assert recall == 0.0
        assert pairwise_f_score(truth, [0, 1, 2, 3]) == 0.0

    def test_merging_all_gives_full_recall(self):
        truth = [0, 0, 1, 1]
        precision, recall = pairwise_precision_recall(truth, [0, 0, 0, 0])
        assert recall == 1.0
        assert precision == pytest.approx(2 / 6)

    def test_beta_weighting(self):
        truth = [0, 0, 1, 1]
        pred = [0, 0, 0, 0]
        f2 = pairwise_f_score(truth, pred, beta=2.0)
        f05 = pairwise_f_score(truth, pred, beta=0.5)
        # Recall-heavy beta favors the all-merged clustering.
        assert f2 > f05
