"""Auto-weighted multiple graph learning (Nie, Li & Li, IJCAI 2016).

AMGL minimizes ``sum_v sqrt( tr(F^T L_v F) )`` over a shared orthonormal
embedding ``F``.  The square root self-weights the views: by the IRLS
argument, the problem is solved by alternating

* ``w_v = 1 / (2 sqrt( tr(F^T L_v F) ))`` (closed form), and
* ``F`` = bottom-``c`` eigenvectors of ``sum_v w_v L_v``,

with no hyperparameter at all.  Discretization is K-means on the
row-normalized embedding.  AMGL is the parameter-free two-stage reference
point for the paper's auto-weighting; the unified framework's
``weighting="parameter_free"`` regime uses the same device one stage
earlier.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.kmeans import KMeans
from repro.core.graph_builder import build_laplacians, build_multiview_affinities
from repro.core.objective import spectral_costs
from repro.core.weights import update_view_weights
from repro.graph.fusion import fuse_laplacians
from repro.linalg.eigen import eigsh_smallest

#: Weight/embedding alternations (AMGL converges within a handful).
_N_ITER = 10


class AMGL(Baseline):
    """Auto-weighted multiple graph learning.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
    """

    def fit_predict(self, views) -> np.ndarray:
        """Cluster multi-view features with auto-weighted graph fusion."""
        laplacians = build_laplacians(build_multiview_affinities(views))
        f = self.embed(laplacians)
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        f = f / np.where(norms > 0, norms, 1.0)
        return KMeans(self.n_clusters, random_state=self.random_state).fit_predict(f)

    def embed(self, laplacians) -> np.ndarray:
        """The auto-weighted shared embedding (before discretization)."""
        n_views = len(laplacians)
        w = np.full(n_views, 1.0 / n_views)
        f = None
        for _ in range(_N_ITER):
            fused = fuse_laplacians(laplacians, w)
            _, f = eigsh_smallest(fused, self.n_clusters)
            h = spectral_costs(laplacians, f)
            new_w = update_view_weights(h, mode="parameter_free")
            if np.allclose(new_w, w, rtol=1e-8, atol=1e-12):
                w = new_w
                break
            w = new_w
        assert f is not None
        return f
