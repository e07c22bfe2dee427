"""Clustering substrate: K-means, a spectral clustering driver, label tools.

The paper's headline claim is that its one-stage framework *removes* the
K-means stage from multi-view spectral clustering — so a faithful,
from-scratch K-means is required both for the two-stage baselines and for
the one-stage-vs-two-stage ablation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "KMeans": "kmeans",
    "KMeansResult": "kmeans",
    "kmeans_plus_plus_init": "kmeans",
    "indicator_from_labels": "labels",
    "repair_empty_clusters": "labels",
    "spectral_clustering": "spectral",
    "spectral_embedding": "spectral",
})
