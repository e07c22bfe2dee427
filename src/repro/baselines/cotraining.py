"""Co-trained multi-view spectral clustering (Kumar & Daume, ICML 2011).

Each round, every view's affinity is "taught" by the other views: the
affinity of view ``v`` is projected onto the spectral subspace learned from
the other views,

``K_v <- sym( P_{-v} K_v )`` with ``P_{-v}`` the average projector
``mean_{u != v} U_u U_u^T``,

which amplifies graph structure the other views agree on.  After a fixed
number of rounds the per-view embeddings are concatenated (row-normalized)
and discretized with K-means, following the authors' protocol.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.core.graph_builder import build_multiview_affinities
from repro.exceptions import ValidationError
from repro.graph.laplacian import normalized_adjacency
from repro.linalg.eigen import eigsh_largest

#: Co-training rounds (the paper saturates within a handful).
_N_ITER = 5


class CoTrainSC:
    """Co-training spectral clustering.

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
        """Cluster multi-view features with co-trained graphs."""
        affinities = build_multiview_affinities(views)
        kernels = [normalized_adjacency(w) for w in affinities]
        c = self.n_clusters
        n_views = len(kernels)
        embeddings = [eigsh_largest(k, c)[1] for k in kernels]

        if n_views > 1:
            for _ in range(_N_ITER):
                projectors = [u @ u.T for u in embeddings]
                total = np.sum(projectors, axis=0)
                new_kernels = []
                for v in range(n_views):
                    other = (total - projectors[v]) / (n_views - 1)
                    taught = other @ kernels[v]
                    new_kernels.append((taught + taught.T) / 2.0)
                kernels = new_kernels
                embeddings = [eigsh_largest(k, c)[1] for k in kernels]

        stacked = np.hstack(embeddings)
        norms = np.linalg.norm(stacked, axis=1, keepdims=True)
        stacked = stacked / np.where(norms > 0, norms, 1.0)
        return KMeans(c, random_state=self.random_state).fit_predict(stacked)
