"""Weighted multi-view K-means (RMKM-style, after Cai, Nie & Huang 2013).

A feature-space (graph-free) multi-view baseline:

``min_{labels, centers, w}  sum_v w_v^gamma ||X_v - Y C_v||_F^2``

alternating K-means on the weight-scaled concatenation with the closed-form
exponential weight update from the per-view inertias.  Views that fit their
centroids poorly get down-weighted, mirroring the unified framework's
weighting in feature space.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.concat import zscore_concatenate
from repro.cluster.kmeans import KMeans
from repro.core.weights import update_view_weights, weight_exponents
from repro.exceptions import ValidationError
from repro.utils.rng import check_random_state
from repro.utils.validation import check_views

#: Weight-smoothing exponent (> 1).
_GAMMA = 4.0
#: Weight/clustering alternations.
_N_ITER = 5
#: K-means restarts per alternation.
_N_INIT = 10


class MultiViewKMeans:
    """Auto-weighted multi-view K-means.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
    """

    def __init__(self, n_clusters: int, *, random_state=None) -> None:
        if n_clusters < 1:
            raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = int(n_clusters)
        self.random_state = random_state

    def fit_predict(self, views) -> np.ndarray:
        """Cluster with per-view inertia-driven weights."""
        views = check_views(views)
        normalized = [zscore_concatenate([x]) for x in views]
        # Per-view dimension normalization so inertia comparisons are fair.
        normalized = [x / np.sqrt(x.shape[1]) for x in normalized]
        n_views = len(normalized)
        rng = check_random_state(self.random_state)
        w = np.full(n_views, 1.0 / n_views)

        labels = None
        for _ in range(_N_ITER):
            multipliers = weight_exponents(w, mode="exponential", gamma=_GAMMA)
            scaled = np.hstack(
                [np.sqrt(m) * x for m, x in zip(multipliers, normalized)]
            )
            km = KMeans(self.n_clusters, n_init=_N_INIT, random_state=rng)
            result = km.fit(scaled)
            labels = result.labels
            # Per-view inertia under the shared assignment.
            h = np.empty(n_views)
            for v, x in enumerate(normalized):
                centers = np.zeros((self.n_clusters, x.shape[1]))
                counts = np.bincount(labels, minlength=self.n_clusters)
                np.add.at(centers, labels, x)
                centers /= np.maximum(counts, 1)[:, None]
                h[v] = float(np.sum((x - centers[labels]) ** 2))
            new_w = update_view_weights(h, mode="exponential", gamma=_GAMMA)
            if np.allclose(new_w, w, atol=1e-10):
                w = new_w
                break
            w = new_w
        assert labels is not None
        return labels
