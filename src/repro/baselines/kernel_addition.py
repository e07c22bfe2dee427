"""Kernel addition: spectral clustering on the average per-view affinity.

The classical late-fusion baseline: build one graph per view, average them
uniformly, and run two-stage spectral clustering on the fused graph.  It is
the ``weighting="uniform"`` degenerate of the paper's framework with a
K-means discretization.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.spectral import spectral_clustering
from repro.core.graph_builder import build_multiview_affinities
from repro.exceptions import ValidationError
from repro.graph.fusion import fuse_affinities


class KernelAdditionSC:
    """Uniform affinity averaging followed by spectral clustering.

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
        """Cluster the uniformly fused affinity."""
        fused = fuse_affinities(build_multiview_affinities(views))
        return spectral_clustering(
            fused, self.n_clusters, random_state=self.random_state
        )
