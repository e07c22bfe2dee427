"""Tests for repro.datasets.benchmarks."""

import numpy as np
import pytest

from repro.datasets.benchmarks import (
    EXTENDED_SPECS,
    SPECS,
    available_benchmarks,
    get_spec,
    load_benchmark,
)
from repro.exceptions import DatasetError


class TestRegistry:
    def test_seven_benchmarks(self):
        assert len(available_benchmarks()) == 7

    def test_table1_order(self):
        assert available_benchmarks() == [
            "three_sources",
            "bbcsport",
            "msrcv1",
            "handwritten",
            "caltech7",
            "orl",
            "yale",
        ]

    def test_get_spec_known(self):
        spec = get_spec("msrcv1")
        assert spec.n_samples == 210
        assert spec.n_clusters == 7

    def test_get_spec_unknown(self):
        with pytest.raises(DatasetError, match="unknown benchmark"):
            get_spec("imagenet")

    def test_extended_registry(self):
        names = available_benchmarks(extended=True)
        assert "reuters" in names and "webkb" in names and "wikipedia" in names
        assert len(names) == len(SPECS) + len(EXTENDED_SPECS)
        # Paper registry stays unchanged.
        assert "reuters" not in available_benchmarks()

    def test_extended_spec_loads(self):
        ds = load_benchmark("wikipedia")
        assert ds.n_samples == 693
        assert ds.n_clusters == 10

    def test_specs_internally_consistent(self):
        for spec in list(SPECS.values()) + list(EXTENDED_SPECS.values()):
            assert len(spec.view_dims) == len(spec.view_kinds) == len(spec.view_noise)
            if spec.view_distractors is not None:
                assert len(spec.view_distractors) == len(spec.view_dims)
            if spec.view_outliers is not None:
                assert len(spec.view_outliers) == len(spec.view_dims)
            if spec.confusion:
                assert len(spec.confusion) == len(spec.view_dims)
                for pairs in spec.confusion:
                    for a, b in pairs:
                        assert 0 <= a < spec.n_clusters
                        assert 0 <= b < spec.n_clusters

    def test_shapes_match_literature(self):
        # Spot-check the famous dataset statistics (Table I).
        hw = get_spec("handwritten")
        assert (hw.n_samples, hw.n_clusters) == (2000, 10)
        assert hw.view_dims == (240, 76, 216, 47, 64, 6)
        ts = get_spec("three_sources")
        assert (ts.n_samples, ts.n_clusters, len(ts.view_dims)) == (169, 6, 3)
        orl = get_spec("orl")
        assert (orl.n_samples, orl.n_clusters) == (400, 40)


class TestLoadBenchmark:
    def test_loads_with_declared_shape(self):
        # Table I prints the specs, so every generator must match its own.
        for name in available_benchmarks():
            ds = load_benchmark(name)
            spec = get_spec(name)
            assert ds.n_samples == spec.n_samples, name
            assert ds.n_clusters == spec.n_clusters, name
            assert ds.view_dims == spec.view_dims, name

    def test_deterministic_default_seed(self):
        a = load_benchmark("yale")
        b = load_benchmark("yale")
        np.testing.assert_array_equal(a.views[0], b.views[0])
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = load_benchmark("yale", random_state=0)
        b = load_benchmark("yale", random_state=1)
        assert not np.array_equal(a.views[0], b.views[0])

    def test_text_views_are_sparse(self):
        ds = load_benchmark("three_sources")
        for view in ds.views:
            assert np.all(view >= 0)
            assert np.count_nonzero(view) / view.size < 0.2

    def test_description_mentions_substitution(self):
        ds = load_benchmark("bbcsport")
        assert "substitute" in ds.description
