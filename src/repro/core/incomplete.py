"""Incomplete multi-view clustering: samples missing from some views.

Real multi-view collections are rarely complete — a news story may lack
the Guardian version, an image may miss one descriptor.  The standard
graph-level treatment (used by the incomplete-multi-view-clustering
literature as the strong baseline) extends the unified framework directly:

1. build each view's affinity on its *observed* subsample only;
2. lift it back to the full sample set (zeros at unobserved pairs);
3. fuse with **per-pair availability normalization** — each pair's fused
   similarity is averaged over the views that actually observed both
   endpoints, so sparsely observed pairs are not penalized for missing
   evidence;
4. run the one-stage rotation/indicator machinery on the fused graph.

Every sample must be observed in at least one view.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph_builder import resolve_view_kind
from repro.graph.affinity import build_view_affinity
from repro.core.model import UnifiedMVSC
from repro.core.result import UMSCResult
from repro.exceptions import ValidationError
from repro.utils.validation import check_views


def _check_masks(masks, n: int, n_views: int) -> list[np.ndarray]:
    if len(masks) != n_views:
        raise ValidationError(
            f"need one mask per view: {n_views} views, {len(masks)} masks"
        )
    out = []
    for v, mask in enumerate(masks):
        arr = np.asarray(mask)
        if arr.shape != (n,):
            raise ValidationError(
                f"masks[{v}] must have shape ({n},), got {arr.shape}"
            )
        if arr.dtype != bool:
            if not set(np.unique(arr)).issubset({0, 1}):
                raise ValidationError(f"masks[{v}] must be boolean")
            arr = arr.astype(bool)
        if arr.sum() < 2:
            raise ValidationError(
                f"masks[{v}] observes fewer than 2 samples"
            )
        out.append(arr)
    coverage = np.zeros(n, dtype=int)
    for arr in out:
        coverage += arr
    uncovered = np.flatnonzero(coverage == 0)
    if uncovered.size:
        raise ValidationError(
            f"samples {uncovered[:5].tolist()}... are observed in no view"
        )
    return out


def fuse_incomplete_affinities(views, masks):
    """Availability-normalized fused affinity from partially observed views.

    Each view's affinity is UMSC's default graph (``auto`` kind, 10
    neighbors, fewer on a small observed subsample).

    Parameters
    ----------
    views : sequence of ndarray (n, d_v)
        Full-size view matrices; rows where the mask is False are ignored
        (their content does not matter).
    masks : sequence of bool arrays (n,)
        ``masks[v][i]`` is True iff sample ``i`` is observed in view ``v``.

    Returns
    -------
    ndarray of shape (n, n)
        The fused affinity; entry (i, j) averages the views that observed
        both samples, 0 if none did.
    """
    views = check_views(views)
    n = views[0].shape[0]
    masks = _check_masks(masks, n, len(views))

    fused = np.zeros((n, n))
    counts = np.zeros((n, n))
    for x, mask in zip(views, masks):
        idx = np.flatnonzero(mask)
        sub = x[idx]
        k = max(1, min(10, idx.size - 1))
        w_sub = build_view_affinity(
            sub, kind=resolve_view_kind(sub, "auto"), k=k
        )
        fused[np.ix_(idx, idx)] += w_sub
        counts[np.ix_(idx, idx)] += 1.0
    observed = counts > 0
    fused[observed] /= counts[observed]
    np.fill_diagonal(fused, 0.0)
    return (fused + fused.T) / 2.0


class IncompleteMVSC:
    """One-stage clustering of incomplete multi-view data.

    Runs :class:`~repro.core.model.UnifiedMVSC` at its defaults on the
    one fused graph, with uniform weighting and no consensus term
    (per-view subspaces are not meaningful when views cover different
    samples).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_multiview_blobs
    >>> ds = make_multiview_blobs(60, 2, view_dims=(8, 10), random_state=0)
    >>> masks = [np.ones(60, dtype=bool), np.ones(60, dtype=bool)]
    >>> masks[0][:10] = False   # first view misses ten samples
    >>> model = IncompleteMVSC(2, random_state=0)
    >>> labels = model.fit_predict(ds.views, masks)
    >>> labels.shape
    (60,)
    """

    def __init__(self, n_clusters: int, *, random_state=None) -> None:
        self._inner = UnifiedMVSC(
            n_clusters,
            consensus=0.0,  # single fused graph: no per-view subspaces
            weighting="uniform",
            random_state=random_state,
        )

    def fit(self, views, masks) -> UMSCResult:
        """Cluster partially observed views; returns the full result."""
        fused = fuse_incomplete_affinities(views, masks)
        return self._inner.fit_affinities([fused])

    def fit_predict(self, views, masks) -> np.ndarray:
        """Convenience: :meth:`fit` and return only the labels."""
        return self.fit(views, masks).labels
