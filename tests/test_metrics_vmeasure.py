"""Tests for repro.metrics.vmeasure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.nmi import entropy, mutual_information
from repro.metrics.vmeasure import (
    completeness_score,
    homogeneity_score,
    v_measure_score,
)

label_vectors = st.lists(st.integers(0, 4), min_size=2, max_size=30)


class TestHomogeneity:
    def test_perfect(self):
        assert homogeneity_score([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_singletons_are_homogeneous(self):
        assert homogeneity_score([0, 0, 1, 1], [0, 1, 2, 3]) == 1.0

    def test_merged_clusters_fail(self):
        assert homogeneity_score([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_trivial_truth(self):
        assert homogeneity_score([0, 0], [0, 1]) == 1.0


class TestCompleteness:
    def test_perfect(self):
        assert completeness_score([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_merging_is_complete(self):
        assert completeness_score([0, 0, 1, 1], [0, 0, 0, 0]) == 1.0

    def test_splitting_fails(self):
        assert completeness_score([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0

    def test_duality_with_homogeneity(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 4, size=40)
        assert completeness_score(a, b) == pytest.approx(
            homogeneity_score(b, a)
        )


class TestVMeasure:
    def test_perfect(self):
        assert v_measure_score([0, 1, 2], [2, 0, 1]) == 1.0

    def test_equals_arithmetic_nmi(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 5, size=50)
        arithmetic_nmi = mutual_information(a, b) / (
            (entropy(a) + entropy(b)) / 2.0
        )
        assert v_measure_score(a, b) == pytest.approx(arithmetic_nmi, abs=1e-10)

    def test_beta_weighting(self):
        # Over-merged clustering: h = 0 -> any beta gives 0.
        assert v_measure_score([0, 0, 1, 1], [0, 0, 0, 0], beta=2.0) == 0.0
        # Partial case: larger beta weights completeness more.
        truth = [0, 0, 1, 1, 2, 2]
        pred = [0, 0, 1, 1, 1, 1]  # merges classes 1 and 2
        v_h = v_measure_score(truth, pred, beta=0.25)
        v_c = v_measure_score(truth, pred, beta=4.0)
        assert v_c > v_h  # pred is complete but not homogeneous

    @settings(deadline=None, max_examples=40)
    @given(label_vectors)
    def test_property_bounds_and_symmetric_roles(self, labels):
        rng = np.random.default_rng(7)
        pred = rng.integers(0, 3, size=len(labels))
        h = homogeneity_score(labels, pred)
        c = completeness_score(labels, pred)
        v = v_measure_score(labels, pred)
        assert 0.0 <= h <= 1.0
        assert 0.0 <= c <= 1.0
        assert min(h, c) - 1e-9 <= v <= max(h, c) + 1e-9
