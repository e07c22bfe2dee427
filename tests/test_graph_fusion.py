"""Tests for repro.graph.fusion."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.fusion import fuse_affinities, fuse_laplacians


def _affinity(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


class TestFuseAffinities:
    def test_uniform_default_is_mean(self):
        mats = [_affinity(5, s) for s in range(3)]
        fused = fuse_affinities(mats)
        np.testing.assert_allclose(fused, np.mean(mats, axis=0), atol=1e-12)

    def test_weights_renormalized(self):
        # The uniform weights sum to 1: fusing copies of one graph gives it.
        w = _affinity(4, 0)
        for n_views in (1, 3, 6, 7):
            np.testing.assert_allclose(
                fuse_affinities([w] * n_views), w, atol=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            fuse_affinities([])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="size"):
            fuse_affinities([_affinity(3, 0), _affinity(4, 1)])


class TestFuseLaplacians:
    def test_weights_not_renormalized(self):
        mats = [_affinity(4, 0), _affinity(4, 1)]
        doubled = fuse_laplacians(mats, [2.0, 2.0])
        single = fuse_laplacians(mats, [1.0, 1.0])
        np.testing.assert_allclose(doubled, 2.0 * single, atol=1e-12)

    def test_output_symmetric(self):
        fused = fuse_laplacians([_affinity(6, 2), _affinity(6, 3)], [0.3, 0.7])
        np.testing.assert_allclose(fused, fused.T, atol=1e-12)

    def test_one_hot_weight_selects_view(self):
        mats = [_affinity(4, 0), _affinity(4, 1)]
        fused = fuse_laplacians(mats, [0.0, 1.0])
        np.testing.assert_allclose(fused, mats[1], atol=1e-12)

    def test_weight_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            fuse_laplacians([_affinity(3, 0)], [0.5, 0.5])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            fuse_laplacians([_affinity(3, 0), _affinity(3, 1)], [-1.0, 2.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError, match="zero"):
            fuse_laplacians([_affinity(3, 0)], [0.0])
