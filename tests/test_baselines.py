"""Tests for repro.baselines — every algorithm runs and clusters sanely.

Each baseline is checked on the easy fixture (high accuracy expected), for
determinism under a fixed seed, and for its parameter validation.
"""

import numpy as np
import pytest

from repro.baselines import (
    AMGL,
    AWP,
    ConcatKMeans,
    ConcatSC,
    CoRegSC,
    CoTrainSC,
    KernelAdditionSC,
    MLAN,
    MultiViewKMeans,
    SingleViewSC,
    SwMC,
    all_single_view_labels,
)
from repro.baselines.concat import zscore_concatenate
from repro.exceptions import ValidationError
from repro.metrics import clustering_accuracy

ALL_BASELINES = [
    ConcatKMeans,
    ConcatSC,
    KernelAdditionSC,
    CoRegSC,
    CoTrainSC,
    AMGL,
    MLAN,
    MultiViewKMeans,
    AWP,
    SwMC,
]


class TestAllBaselinesCommonContract:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_runs_and_recovers_easy_clusters(self, cls, small_dataset):
        model = cls(3, random_state=0)
        labels = model.fit_predict(small_dataset.views)
        assert labels.shape == (small_dataset.n_samples,)
        assert set(np.unique(labels)) <= set(range(3))
        assert clustering_accuracy(small_dataset.labels, labels) > 0.9

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_deterministic_given_seed(self, cls, small_dataset):
        a = cls(3, random_state=5).fit_predict(small_dataset.views)
        b = cls(3, random_state=5).fit_predict(small_dataset.views)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_invalid_n_clusters(self, cls):
        with pytest.raises(ValidationError):
            cls(0)


class TestSingleView:
    def test_each_view_runs(self, small_dataset):
        for v in range(small_dataset.n_views):
            labels = SingleViewSC(3, view=v, random_state=0).fit_predict(
                small_dataset.views
            )
            assert clustering_accuracy(small_dataset.labels, labels) > 0.8

    def test_view_out_of_range(self, small_dataset):
        with pytest.raises(ValidationError, match="out of range"):
            SingleViewSC(3, view=9).fit_predict(small_dataset.views)

    def test_all_single_view_labels(self, small_dataset):
        per_view = all_single_view_labels(small_dataset.views, 3, random_state=0)
        assert len(per_view) == small_dataset.n_views

    def test_good_view_beats_bad_view(self):
        from repro.datasets.synth import make_multiview_blobs

        ds = make_multiview_blobs(
            120,
            3,
            view_dims=(15, 15),
            view_noise=(0.05, 3.0),
            view_distractors=(0.0, 0.5),
            separation=6.0,
            random_state=3,
        )
        per_view = all_single_view_labels(ds.views, 3, random_state=0)
        accs = [clustering_accuracy(ds.labels, l) for l in per_view]
        assert accs[0] > accs[1]


class TestZScoreConcatenate:
    def test_shape(self, small_dataset):
        stacked = zscore_concatenate(small_dataset.views)
        assert stacked.shape == (90, sum(small_dataset.view_dims))

    def test_unit_variance(self, small_dataset):
        stacked = zscore_concatenate(small_dataset.views)
        stds = stacked.std(axis=0)
        np.testing.assert_allclose(stds[stds > 0], 1.0, atol=1e-8)

    def test_constant_feature_not_scaled(self):
        x = np.ones((5, 2))
        stacked = zscore_concatenate([x])
        np.testing.assert_allclose(stacked, 0.0)


class TestMLANSpecifics:
    def test_components_or_fallback_labels_complete(self, small_dataset):
        labels = MLAN(3, random_state=0).fit_predict(small_dataset.views)
        assert np.all(np.bincount(labels, minlength=3) >= 1)


class TestAWPSpecifics:
    def test_no_empty_clusters(self, medium_dataset):
        labels = AWP(4, random_state=0).fit_predict(medium_dataset.views)
        assert np.all(np.bincount(labels, minlength=4) >= 1)
