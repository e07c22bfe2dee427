"""Tests for repro.datasets.container."""

import numpy as np
import pytest

from repro.datasets.container import MultiViewDataset
from repro.exceptions import ValidationError


def _make(n=6):
    return MultiViewDataset(
        name="toy",
        views=[np.random.default_rng(0).normal(size=(n, 2)), np.zeros((n, 3))],
        labels=np.array([0, 0, 1, 1, 2, 2][:n]),
    )


class TestMultiViewDataset:
    def test_properties(self):
        ds = _make()
        assert ds.n_samples == 6
        assert ds.n_views == 2
        assert ds.n_clusters == 3
        assert ds.view_dims == (2, 3)

    def test_default_view_names(self):
        assert _make().view_names == ["view0", "view1"]

    def test_view_names_length_checked(self):
        with pytest.raises(ValidationError, match="view_names"):
            MultiViewDataset(
                name="bad",
                views=[np.zeros((4, 2))],
                labels=np.array([0, 0, 1, 1]),
                view_names=["a", "b"],
            )

    def test_labels_must_start_at_zero(self):
        with pytest.raises(ValidationError, match="consecutive"):
            MultiViewDataset(
                name="bad", views=[np.zeros((3, 2))], labels=np.array([1, 2, 3])
            )

    def test_labels_must_be_consecutive(self):
        with pytest.raises(ValidationError, match="consecutive"):
            MultiViewDataset(
                name="bad", views=[np.zeros((3, 2))], labels=np.array([0, 2, 2])
            )

    def test_negative_labels_rejected(self):
        with pytest.raises(ValidationError):
            MultiViewDataset(
                name="bad", views=[np.zeros((2, 2))], labels=np.array([-1, 0])
            )

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            MultiViewDataset(
                name="bad", views=[np.zeros((3, 2))], labels=np.array([0, 1])
            )

    def test_summary_mentions_shape(self):
        text = _make().summary()
        assert "n=6" in text and "views=2" in text and "clusters=3" in text
