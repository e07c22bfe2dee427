"""Single-view spectral clustering baselines.

The literature's comparison tables include ``SC(best)`` and ``SC(worst)``:
classical spectral clustering run on each view separately, reporting the
best/worst view per metric.  The selection is made post hoc by the
evaluation harness; this module provides the per-view runs.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.spectral import spectral_clustering
from repro.core.graph_builder import build_multiview_affinities
from repro.exceptions import ValidationError
from repro.utils.validation import check_views


class SingleViewSC:
    """Classical two-stage spectral clustering on one chosen view.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    view : int
        Index of the view to cluster.
    random_state : int, Generator, or None
    """

    def __init__(
        self, n_clusters: int, *, view: int = 0, random_state=None
    ) -> None:
        if n_clusters < 1:
            raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
        if view < 0:
            raise ValidationError(f"view must be >= 0, got {view}")
        self.n_clusters = int(n_clusters)
        self.view = int(view)
        self.random_state = random_state

    def fit_predict(self, views) -> np.ndarray:
        """Cluster using only the configured view."""
        views = check_views(views)
        if self.view >= len(views):
            raise ValidationError(
                f"view index {self.view} out of range for {len(views)} views"
            )
        (affinity,) = build_multiview_affinities([views[self.view]])
        return spectral_clustering(
            affinity, self.n_clusters, random_state=self.random_state
        )


def all_single_view_labels(
    views, n_clusters: int, *, random_state=None
) -> list[np.ndarray]:
    """Spectral clustering labels for every view separately, each with
    :class:`SingleViewSC`'s default graph and k-means settings.

    The evaluation harness turns these into the SC(best) / SC(worst) rows
    by scoring each against the ground truth.
    """
    views = check_views(views)
    return [
        SingleViewSC(
            n_clusters, view=v, random_state=random_state
        ).fit_predict(views)
        for v in range(len(views))
    ]
