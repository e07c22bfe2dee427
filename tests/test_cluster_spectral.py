"""Tests for repro.cluster.spectral."""

import numpy as np
import pytest

from repro.cluster.spectral import spectral_clustering, spectral_embedding
from repro.exceptions import ValidationError
from repro.graph.affinity import build_view_affinity
from repro.graph.laplacian import laplacian
from repro.metrics import clustering_accuracy


def _ring_and_blob(seed=0):
    """A ring around a central blob: trivial for SC, hopeless for K-means."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, size=60)
    ring = np.column_stack([8 * np.cos(theta), 8 * np.sin(theta)])
    ring += rng.normal(scale=0.3, size=ring.shape)
    blob = rng.normal(scale=0.5, size=(40, 2))
    x = np.vstack([ring, blob])
    truth = np.array([0] * 60 + [1] * 40)
    return x, truth


class TestSpectralEmbedding:
    def test_shape_and_norms(self, affinity_pair):
        emb = spectral_embedding(affinity_pair[0], 3)
        assert emb.shape == (90, 3)
        norms = np.linalg.norm(emb, axis=1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-10)

    def test_unnormalized_rows(self, affinity_pair):
        emb = spectral_embedding(affinity_pair[0], 3, row_normalize=False)
        np.testing.assert_allclose(emb.T @ emb, np.eye(3), atol=1e-8)

    def test_component_indicator_structure(self):
        # Two disconnected cliques: the embedding separates them exactly.
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        np.fill_diagonal(w, 0.0)
        emb = spectral_embedding(w, 2, row_normalize=False)
        first = emb[:3]
        second = emb[3:]
        assert np.allclose(first, first[0], atol=1e-8)
        assert np.allclose(second, second[0], atol=1e-8)

    def test_random_walk_columns_are_random_walk_eigenvectors(
        self, affinity_pair
    ):
        # L_rw = D^{-1/2} L_sym D^{1/2}: the L_sym eigenvectors scaled
        # row-wise by d^{-1/2} satisfy L_rw U = U diag(lambda).
        w = affinity_pair[0]
        emb = spectral_embedding(w, 3, row_normalize=False)
        emb = emb / np.sqrt(w.sum(axis=1))[:, None]
        values = np.linalg.eigvalsh(laplacian(w))[:3]
        lap_rw = np.eye(w.shape[0]) - w / w.sum(axis=1)[:, None]
        residual = np.linalg.norm(lap_rw @ emb - emb * values[None, :])
        assert residual < 1e-8 * np.linalg.norm(emb)

    def test_n_components_validation(self):
        with pytest.raises(ValidationError):
            spectral_embedding(np.eye(4) - np.eye(4), 0)


class TestSpectralClustering:
    def test_separates_blobs(self, small_dataset):
        w = build_view_affinity(small_dataset.views[0], k=8)
        labels = spectral_clustering(w, 3, random_state=0)
        assert clustering_accuracy(small_dataset.labels, labels) > 0.95

    def test_nonconvex_ring(self):
        x, truth = _ring_and_blob()
        w = build_view_affinity(x, k=8)
        labels = spectral_clustering(w, 2, random_state=0)
        assert clustering_accuracy(truth, labels) > 0.95

    def test_kmeans_fails_on_ring(self):
        # Sanity check that the ring actually requires spectral methods.
        from repro.cluster.kmeans import KMeans

        x, truth = _ring_and_blob()
        labels = KMeans(2, random_state=0).fit_predict(x)
        assert clustering_accuracy(truth, labels) < 0.9

    def test_label_range(self, affinity_pair):
        labels = spectral_clustering(affinity_pair[1], 3, random_state=1)
        assert set(labels.tolist()) == {0, 1, 2}
