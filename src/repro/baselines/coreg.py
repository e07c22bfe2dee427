"""Co-regularized multi-view spectral clustering (Kumar, Rai & Daume, 2011).

Maximizes per-view spectral objectives plus a disagreement penalty that
pulls each view's embedding subspace toward a consensus ``U*`` (the
authors' *centroid* variant):

``sum_v tr(U_v^T K_v U_v) + lam sum_v tr(U_v U_v^T U* U*^T)``.

Alternating maximization: each ``U_v`` is the top-``c`` eigenvector block
of ``K_v + lam U* U*^T``, where ``K_v`` is the symmetric normalized
adjacency; the consensus ``U*`` is the top-``c`` eigenvector block of the
averaged projector.  Discretization is K-means on the row-normalized
consensus, matching the authors' protocol.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.kmeans import KMeans
from repro.core.graph_builder import build_multiview_affinities
from repro.graph.laplacian import normalized_adjacency
from repro.linalg.eigen import eigsh_largest

#: Co-regularization strength (the paper uses 0.01-0.05).
_LAM = 0.025
#: Alternating maximization rounds.
_N_ITER = 10


class CoRegSC(Baseline):
    """Co-regularized spectral clustering (centroid variant).

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
    """

    def fit_predict(self, views) -> np.ndarray:
        """Cluster multi-view features with co-regularized embeddings."""
        affinities = build_multiview_affinities(views)
        kernels = [normalized_adjacency(w) for w in affinities]
        c = self.n_clusters

        embeddings = [eigsh_largest(k, c)[1] for k in kernels]
        consensus = self._consensus(embeddings)
        for _ in range(_N_ITER):
            reg = _LAM * (consensus @ consensus.T)
            embeddings = [eigsh_largest(k + reg, c)[1] for k in kernels]
            consensus = self._consensus(embeddings)

        norms = np.linalg.norm(consensus, axis=1, keepdims=True)
        consensus = consensus / np.where(norms > 0, norms, 1.0)
        return KMeans(c, random_state=self.random_state).fit_predict(consensus)

    def _consensus(self, embeddings) -> np.ndarray:
        """Top-c eigenvectors of the averaged projector."""
        avg = np.mean([u @ u.T for u in embeddings], axis=0)
        return eigsh_largest(avg, self.n_clusters)[1]
