"""Multi-view learning with adaptive neighbors (Nie, Cai & Li, AAAI 2017).

MLAN learns a *single consensus graph* ``S`` directly from the multi-view
distances instead of fusing per-view graphs:

``min_{S, F, w}  sum_v w_v sum_ij d_ij^v s_ij + alpha ||S||_F^2
                 + 2 lam tr(F^T L_S F)``

with simplex rows for ``S``, parameter-free view weights
``w_v = 1/(2 sqrt(sum_ij d^v_ij s_ij))``, and the spectral term folded into
the per-pair cost as ``lam * ||f_i - f_j||^2``.  Each ``S``-row update is
the closed-form adaptive-neighbor assignment of
:mod:`repro.graph.adaptive`; ``F`` is the bottom-``c`` eigenvector block of
``L_S``.  When the learned graph has exactly ``c`` connected components the
components *are* the clusters (no K-means); otherwise we fall back to
spectral clustering on ``S``, as the authors' implementation does.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.spectral import spectral_clustering
from repro.exceptions import ValidationError
from repro.graph.adaptive import adaptive_neighbor_affinity
from repro.graph.connectivity import connected_components
from repro.graph.distance import pairwise_sq_euclidean
from repro.graph.laplacian import laplacian
from repro.linalg.eigen import eigsh_smallest
from repro.utils.validation import check_views

#: Adaptive-neighbor count per sample.
_N_NEIGHBORS = 10
#: Initial spectral-term weight; adapted multiplicatively each round to
#: steer the graph toward exactly ``c`` components.
_LAM = 1.0
#: Graph/embedding alternations.
_N_ITER = 15


class MLAN(Baseline):
    """Consensus adaptive-neighbor graph learning.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
        Seeds the spectral-clustering fallback.
    """

    def fit_predict(self, views) -> np.ndarray:
        """Cluster by learning a consensus adaptive-neighbor graph."""
        views = check_views(views)
        c = self.n_clusters
        n = views[0].shape[0]
        if c > n:
            raise ValidationError(f"n_clusters={c} exceeds n_samples={n}")
        if n < 3:
            raise ValidationError(f"MLAN needs at least 3 samples, got {n}")
        # Deliberate clamp (the adaptive graph rejects out-of-range k):
        # MLAN's authors fix k=9-ish regardless of n, so small datasets
        # shrink the neighborhood instead of failing.
        k = max(1, min(_N_NEIGHBORS, n - 2))

        # Per-view squared distances, scale-normalized so no view dominates
        # by units alone.
        dists = []
        for x in views:
            d = pairwise_sq_euclidean(x)
            scale = np.mean(d)
            dists.append(d / (scale if scale > 0 else 1.0))
        n_views = len(dists)
        w = np.full(n_views, 1.0 / n_views)
        lam = _LAM

        s = adaptive_neighbor_affinity(
            distances=self._combined(dists, w, None, 0.0), k=k
        )
        for _ in range(_N_ITER):
            lap = laplacian(s, normalization="unnormalized")
            values, f = eigsh_smallest(lap, c + 1)
            # Rank heuristic from the CAN papers: if fewer than c (near-)zero
            # eigenvalues the graph is too connected -> raise lam; if the
            # (c+1)-th is also ~zero there are too many components -> lower.
            zeros = int(np.sum(values[:c] < 1e-10))
            if zeros < c:
                lam *= 2.0
            elif values[c] < 1e-10:
                lam /= 2.0
            s = adaptive_neighbor_affinity(
                distances=self._combined(dists, w, f[:, :c], lam), k=k
            )
            # Parameter-free view weights from the current graph.
            costs = np.array([float(np.sum(d * s)) for d in dists])
            costs = np.maximum(costs, 1e-12)
            w = 1.0 / (2.0 * np.sqrt(costs))
            w = w / np.sum(w)

        comps = connected_components(s, tol=1e-12)
        if comps.max() + 1 == c:
            return comps
        return spectral_clustering(s, c, random_state=self.random_state)

    @staticmethod
    def _combined(dists, w, f, lam) -> np.ndarray:
        """Per-pair assignment cost: weighted view distances + spectral term."""
        combined = np.zeros_like(dists[0])
        for wv, d in zip(w, dists):
            combined += wv * d
        if f is not None and lam > 0:
            combined += lam * pairwise_sq_euclidean(f)
        return combined
