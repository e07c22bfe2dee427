"""Self-weighted multi-view clustering (SwMC; Nie, Li & Li, IJCAI 2017).

SwMC learns a single *consensus graph* ``S`` that stays close to every
per-view affinity, with parameter-free view weights emerging from the
square-root reweighting device:

``min_S  sum_v sqrt( ||S - W_v||_F^2 )``  with simplex rows on ``S``,

solved by alternating the closed-form weights
``w_v = 1 / (2 ||S - W_v||_F)`` with row-wise simplex projections of the
weighted average graph.  A Laplacian rank heuristic (as in the CAN family)
steers ``S`` toward exactly ``c`` connected components; when it succeeds
the components are the clusters (no K-means), otherwise spectral
clustering on ``S`` finishes the job.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.spectral import spectral_clustering
from repro.core.graph_builder import build_multiview_affinities
from repro.exceptions import ValidationError
from repro.graph.adaptive import simplex_projection_rowwise
from repro.graph.connectivity import connected_components
from repro.graph.distance import pairwise_sq_euclidean
from repro.graph.laplacian import laplacian
from repro.linalg.eigen import eigsh_smallest

#: Initial weight of the connectivity (spectral) term; adapted
#: multiplicatively to reach exactly ``c`` components.
_LAM = 0.5
#: Alternations.
_N_ITER = 15


class SwMC(Baseline):
    """Self-weighted consensus-graph clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
        Seeds the fallback.
    """

    def fit_predict(self, views) -> np.ndarray:
        """Cluster by learning a self-weighted consensus graph."""
        affinities = build_multiview_affinities(views)
        c = self.n_clusters
        n = affinities[0].shape[0]
        if c > n:
            raise ValidationError(f"n_clusters={c} exceeds n_samples={n}")
        # Row-normalize each view's affinity so the consensus rows live on
        # a comparable scale (the simplex).
        normalized = []
        for w in affinities:
            row_sums = w.sum(axis=1, keepdims=True)
            normalized.append(w / np.where(row_sums > 0, row_sums, 1.0))
        n_views = len(normalized)

        weights = np.full(n_views, 1.0 / n_views)
        s = np.mean(normalized, axis=0)
        lam = _LAM
        f = None
        for _ in range(_N_ITER):
            # Connectivity pressure: penalize assigning mass to pairs far
            # apart in the current spectral embedding.
            if f is not None:
                penalty = pairwise_sq_euclidean(f)
            else:
                penalty = 0.0
            target = np.zeros_like(s)
            for w_v, w_mat in zip(weights, normalized):
                target += w_v * w_mat
            target /= weights.sum()
            s = simplex_projection_rowwise(target - (lam / 2.0) * penalty)
            np.fill_diagonal(s, 0.0)
            # Parameter-free view weights from the current consensus.
            residuals = np.array(
                [np.linalg.norm(s - w_mat) for w_mat in normalized]
            )
            weights = 1.0 / (2.0 * np.maximum(residuals, 1e-12))
            # Rank heuristic on the symmetrized consensus.
            sym = (s + s.T) / 2.0
            values, vectors = eigsh_smallest(
                laplacian(sym, normalization="unnormalized"), c + 1
            )
            f = vectors[:, :c]
            zeros = int(np.sum(values[:c] < 1e-10))
            if zeros < c:
                lam *= 2.0
            elif values[c] < 1e-10:
                lam /= 2.0

        sym = (s + s.T) / 2.0
        comps = connected_components(sym, tol=1e-12)
        if comps.max() + 1 == c:
            return comps
        return spectral_clustering(sym, c, random_state=self.random_state)
