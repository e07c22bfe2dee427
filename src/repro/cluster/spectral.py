"""Single-view spectral clustering (the classical two-stage pipeline).

This is the Ng-Jordan-Weiss style pipeline the paper identifies as the
two-stage status quo: build a graph, embed with the bottom eigenvectors of
the normalized Laplacian, row-normalize, and discretize with K-means.  Both
the single-view baselines and the two-stage ablation reuse these functions.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.exceptions import ValidationError
from repro.graph.laplacian import _checked_affinity, _degrees, _laplacian
from repro.linalg.eigen import eigsh_smallest


def spectral_embedding(
    affinity: np.ndarray,
    n_components: int,
    *,
    row_normalize: bool = True,
) -> np.ndarray:
    """Bottom-eigenvector embedding of a graph's symmetric normalized Laplacian.

    Parameters
    ----------
    affinity : ndarray of shape (n, n)
        Symmetric non-negative affinity.
    n_components : int
        Embedding dimension (the number of clusters ``c`` in clustering use).
    row_normalize : bool
        Project embedding rows onto the unit sphere (the NJW step); rows
        that are exactly zero are left as-is.

    Returns
    -------
    ndarray of shape (n, n_components)
    """
    affinity = _checked_affinity(affinity, "affinity")
    n = affinity.shape[0]
    if not 1 <= n_components <= n:
        raise ValidationError(
            f"n_components must be in [1, {n}], got {n_components}"
        )
    lap = _laplacian(affinity, _degrees(affinity), "symmetric")
    _, emb = eigsh_smallest(lap, n_components)
    if row_normalize:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.where(norms > 0, norms, 1.0)
    return emb


def spectral_clustering(
    affinity: np.ndarray,
    n_clusters: int,
    *,
    random_state=None,
) -> np.ndarray:
    """Two-stage spectral clustering: embedding + K-means (default restarts).

    Parameters
    ----------
    affinity : ndarray of shape (n, n)
        Symmetric non-negative affinity.
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
        Seeding for the K-means stage.

    Returns
    -------
    ndarray of int64, shape (n,)
        Cluster labels in ``0..n_clusters-1``.
    """
    emb = spectral_embedding(affinity, n_clusters)
    return KMeans(n_clusters, random_state=random_state).fit_predict(emb)
