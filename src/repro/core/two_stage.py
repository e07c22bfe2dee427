"""Two-stage ablation of the unified framework.

Identical graph pipeline, view weighting, and spectral-consensus term as
:class:`~repro.core.model.UnifiedMVSC` — auto-weighted affinity fusion with
joint normalization — but the embedding is discretized with K-means, the
status-quo pipeline the paper argues against.  Pairing the two isolates the
contribution of the one-stage discrete indicator learning (ablation A1 in
DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.core.config import UMSCConfig
from repro.core.graph_builder import build_multiview_affinities
from repro.core.model import _DenseAffinities
from repro.core.weights import update_view_weights
from repro.exceptions import ValidationError
from repro.linalg.eigen import eigsh_smallest

#: Embedding/weight alternations of stage 1.
_MAX_ITER = 10


class TwoStageMVSC:
    """Two-stage multi-view spectral clustering (embedding + K-means).

    Stage 1 alternates the shared embedding ``F`` with the view weights
    (same fused-affinity updates as the unified framework, minus
    rotation/indicator); stage 2 row-normalizes ``F`` and runs K-means with
    ``n_init`` restarts.

    Stage 1 runs UMSC's graph and weighting defaults (``graph="auto"``,
    exponential weighting, consensus 1) for a fixed 10 alternations.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    gamma : float
        Weight-smoothing exponent of the exponential weighting.
    n_neighbors : int
        Graph construction (see :class:`~repro.core.model.UnifiedMVSC`).
    n_init : int
        K-means restarts in stage 2.
    random_state : int, Generator, or None
        Seeds the K-means stage.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        gamma: float = 2.0,
        n_neighbors: int = 10,
        n_init: int = 20,
        random_state=None,
    ) -> None:
        # Reuse UMSCConfig validation for the shared knobs.
        self.config = UMSCConfig(
            n_clusters=n_clusters,
            gamma=gamma,
            n_neighbors=n_neighbors,
            max_iter=_MAX_ITER,
        )
        if n_init < 1:
            raise ValidationError(f"n_init must be >= 1, got {n_init}")
        self.n_init = int(n_init)
        self.random_state = random_state

    def fit_predict(self, views) -> np.ndarray:
        """Cluster raw multi-view features; returns labels."""
        affinities = build_multiview_affinities(
            views, n_neighbors=self.config.n_neighbors
        )
        return self.fit_affinities(affinities)

    def fit_affinities(self, affinities) -> np.ndarray:
        """Cluster precomputed per-view affinities; returns labels."""
        f = self.embed(affinities)
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        f = f / np.where(norms > 0, norms, 1.0)
        km = KMeans(
            self.config.n_clusters,
            n_init=self.n_init,
            random_state=self.random_state,
        )
        return km.fit_predict(f)

    def embed(self, affinities) -> np.ndarray:
        """Stage 1: alternate the fused embedding with view weights.

        Runs on UMSC's dense representation, so the embedding is the
        bottom eigenvectors of the operator UMSC's F-step uses.
        """
        cfg = self.config
        rep = _DenseAffinities.build(affinities, cfg)
        n_views = len(rep.affinities)
        w = np.full(n_views, 1.0 / n_views)
        f = None
        for _ in range(cfg.max_iter):
            _, f = eigsh_smallest(rep.operator(w), cfg.n_clusters)
            new_w = update_view_weights(
                rep.view_costs(f), mode=cfg.weighting, gamma=cfg.gamma
            )
            if np.allclose(new_w, w, atol=1e-10):
                break
            w = new_w
        assert f is not None
        return f
