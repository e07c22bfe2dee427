"""Tests for repro.metrics.nmi."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.nmi import (
    entropy,
    mutual_information,
    normalized_mutual_information,
)

label_vectors = st.lists(st.integers(0, 4), min_size=2, max_size=40)

#: Entropy normalizers of the NMI literature; the library reports the
#: geometric one.
NORMALIZERS = {
    "geometric": lambda h_u, h_v: np.sqrt(h_u * h_v),
    "arithmetic": lambda h_u, h_v: (h_u + h_v) / 2.0,
    "max": max,
    "min": min,
}


def _nmi(t, p, average):
    return mutual_information(t, p) / NORMALIZERS[average](entropy(t), entropy(p))


class TestEntropy:
    def test_uniform_two_classes(self):
        assert entropy([0, 1]) == pytest.approx(np.log(2))

    def test_single_class_zero(self):
        assert entropy([3, 3, 3]) == 0.0

    def test_skewed_less_than_uniform(self):
        assert entropy([0, 0, 0, 1]) < entropy([0, 0, 1, 1])


class TestMutualInformation:
    def test_identical_equals_entropy(self):
        labels = [0, 0, 1, 1, 2]
        assert mutual_information(labels, labels) == pytest.approx(entropy(labels))

    def test_independent_near_zero(self):
        # A perfectly balanced independent pair has exactly zero MI.
        t = [0, 0, 1, 1]
        p = [0, 1, 0, 1]
        assert mutual_information(t, p) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.integers(0, 4, size=30)
            p = rng.integers(0, 3, size=30)
            assert mutual_information(t, p) >= 0.0


class TestNMI:
    def test_perfect_is_one(self):
        assert normalized_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_independent_is_zero(self):
        assert normalized_mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_trivial(self):
        assert normalized_mutual_information([0, 0], [5, 5]) == 1.0

    def test_one_trivial(self):
        assert normalized_mutual_information([0, 1], [5, 5]) == 0.0

    @pytest.mark.parametrize("average", ["geometric", "arithmetic", "max", "min"])
    def test_all_normalizations_bounded(self, average):
        # I(U; V) <= min(H(U), H(V)) bounds every normalizer's ratio by 1.
        rng = np.random.default_rng(1)
        t = rng.integers(0, 4, size=50)
        p = rng.integers(0, 5, size=50)
        v = _nmi(t, p, average)
        assert 0.0 <= v <= 1.0 + 1e-12
        if average == "geometric":
            assert normalized_mutual_information(t, p) == pytest.approx(v)

    def test_min_ge_geometric_ge_max(self):
        rng = np.random.default_rng(2)
        t = rng.integers(0, 3, size=60)
        p = rng.integers(0, 5, size=60)
        v_min = _nmi(t, p, "min")
        v_geo = normalized_mutual_information(t, p)
        v_max = _nmi(t, p, "max")
        assert v_min >= v_geo >= v_max

    @settings(deadline=None, max_examples=50)
    @given(label_vectors)
    def test_property_symmetry(self, labels):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, size=len(labels))
        a = normalized_mutual_information(labels, pred)
        b = normalized_mutual_information(pred, labels)
        assert a == pytest.approx(b, abs=1e-10)

    @settings(deadline=None, max_examples=50)
    @given(label_vectors)
    def test_property_relabeling_invariance(self, labels):
        labels = np.array(labels)
        assert normalized_mutual_information(labels, (labels + 2) % 5) == pytest.approx(1.0, abs=1e-9)


class TestMIAdditionalProperties:
    def test_mi_bounded_by_entropies(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            t = rng.integers(0, 4, size=50)
            p = rng.integers(0, 5, size=50)
            mi = mutual_information(t, p)
            assert mi <= entropy(t) + 1e-10
            assert mi <= entropy(p) + 1e-10

    def test_data_processing_merge_cannot_increase_mi(self):
        # Merging two predicted clusters is a deterministic function of the
        # prediction: MI with the truth cannot increase.
        rng = np.random.default_rng(6)
        t = rng.integers(0, 3, size=80)
        p = rng.integers(0, 4, size=80)
        merged = np.where(p == 3, 2, p)
        assert mutual_information(t, merged) <= mutual_information(t, p) + 1e-10
