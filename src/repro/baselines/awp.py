"""Multi-view clustering via adaptively weighted Procrustes (AWP).

Nie, Tian & Li (KDD 2018): the closest one-stage competitor to the unified
framework.  Each view contributes a *fixed* spectral embedding ``F_v``
(computed once per view); AWP then aligns all of them to one shared discrete
partition:

``min_{Y, R_v}  sum_v  alpha_v ||F_v R_v - G(Y)||_F^2``

with ``G(Y) = Y (Y^T Y)^{-1/2}``, orthogonal per-view rotations ``R_v``, and
the adaptive weights ``alpha_v = 1 / (2 ||F_v R_v - G(Y)||_F)`` that emerge
from the square-root reweighting argument.  Alternation:

* ``R_v`` — orthogonal Procrustes per view (closed form);
* ``alpha_v`` — closed form above;
* ``Y`` — coordinate descent maximizing
  ``tr(M^T G(Y))`` with ``M = sum_v alpha_v F_v R_v`` (exact, monotone).

The key difference from the unified framework: AWP never re-optimizes the
embeddings, so graph information cannot flow back from the labels.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.spectral import spectral_embedding
from repro.core.discrete import (
    indicator_coordinate_descent,
    rotation_initialize,
    scaled_indicator,
)
from repro.core.graph_builder import build_multiview_affinities
from repro.linalg.procrustes import nearest_orthogonal
from repro.utils.rng import check_random_state

#: Alternation rounds (each round stops early once the labels settle).
_N_ITER = 30


class AWP(Baseline):
    """Adaptively weighted Procrustes multi-view clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
    """

    def fit_predict(self, views) -> np.ndarray:
        """Cluster by aligning per-view embeddings to one discrete partition."""
        affinities = build_multiview_affinities(views)
        c = self.n_clusters
        rng = check_random_state(self.random_state)
        embeddings = [
            spectral_embedding(w, c, row_normalize=False) for w in affinities
        ]
        n_views = len(embeddings)

        # Initialize the partition by spectral rotation on the mean embedding.
        mean_f = nearest_orthogonal(np.mean(embeddings, axis=0))
        _, labels = rotation_initialize(mean_f, c, random_state=rng)
        rotations = [np.eye(c) for _ in range(n_views)]
        alphas = np.full(n_views, 1.0)

        prev = labels.copy()
        for _ in range(_N_ITER):
            g = scaled_indicator(labels, c)
            for v in range(n_views):
                rotations[v] = nearest_orthogonal(embeddings[v].T @ g)
            residuals = np.array(
                [
                    np.linalg.norm(embeddings[v] @ rotations[v] - g)
                    for v in range(n_views)
                ]
            )
            alphas = 1.0 / (2.0 * np.maximum(residuals, 1e-12))
            m = np.zeros_like(g)
            for v in range(n_views):
                m += alphas[v] * (embeddings[v] @ rotations[v])
            labels = indicator_coordinate_descent(m, labels, c)
            if np.array_equal(labels, prev):
                break
            prev = labels.copy()
        return labels
