"""Kernel addition: spectral clustering on the average per-view affinity.

The classical late-fusion baseline: build one graph per view, average them
uniformly, and run two-stage spectral clustering on the fused graph.  It is
the ``weighting="uniform"`` degenerate of the paper's framework with a
K-means discretization.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.spectral import spectral_clustering
from repro.core.graph_builder import build_multiview_affinities
from repro.graph.fusion import fuse_affinities


class KernelAdditionSC(Baseline):
    """Uniform affinity averaging followed by spectral clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    random_state : int, Generator, or None
    """

    def fit_predict(self, views) -> np.ndarray:
        """Cluster the uniformly fused affinity."""
        fused = fuse_affinities(build_multiview_affinities(views))
        return spectral_clustering(
            fused, self.n_clusters, random_state=self.random_state
        )
