"""Early-fusion baselines: concatenate features, then cluster.

Each view is z-scored (so high-dimensional views do not drown the rest by
sheer scale) and the columns are stacked.  ``ConcatKMeans`` runs K-means on
the stack; ``ConcatSC`` runs classical spectral clustering on a single graph
built from the stack.  These are the weakest sensible multi-view baselines:
they use all views but ignore view structure entirely.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Baseline
from repro.cluster.kmeans import KMeans
from repro.cluster.spectral import spectral_clustering
from repro.core.graph_builder import build_multiview_affinities
from repro.utils.validation import check_views


def zscore_concatenate(views) -> np.ndarray:
    """Z-score each view per feature, then stack columns.

    Constant features (zero variance) are centered but not scaled.
    """
    views = check_views(views)
    normalized = []
    for x in views:
        mu = x.mean(axis=0, keepdims=True)
        sd = x.std(axis=0, keepdims=True)
        sd = np.where(sd > 0, sd, 1.0)
        normalized.append((x - mu) / sd)
    return np.hstack(normalized)


class ConcatKMeans(Baseline):
    """K-means on the z-scored concatenation of all views."""

    def fit_predict(self, views) -> np.ndarray:
        """Cluster the concatenated features."""
        stacked = zscore_concatenate(views)
        km = KMeans(self.n_clusters, random_state=self.random_state)
        return km.fit_predict(stacked)


class ConcatSC(Baseline):
    """Spectral clustering on one self-tuning graph over the concatenated
    features."""

    def fit_predict(self, views) -> np.ndarray:
        """Cluster the concatenated features through one graph."""
        stacked = zscore_concatenate(views)
        (affinity,) = build_multiview_affinities([stacked], kind="self_tuning")
        return spectral_clustering(
            affinity, self.n_clusters, random_state=self.random_state
        )
