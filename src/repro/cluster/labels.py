"""Label-vector and indicator-matrix utilities.

The unified framework works with a *discrete cluster indicator matrix*
``Y in {0,1}^{n x c}`` with exactly one 1 per row.  These helpers build
that representation from a label vector and repair degenerate
(empty-cluster) assignments, which any argmax-style discretization can
produce.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_labels, check_matrix


def _indicator_labels(labels, n_clusters: int | None) -> tuple[np.ndarray, int]:
    """``(labels, c)`` checked for indicator encoding: int64 in ``[0, c)``."""
    labels = check_labels(labels)
    high = int(labels.max())
    if labels.min() < 0:
        raise ValidationError("labels must be non-negative for indicator encoding")
    c = high + 1 if n_clusters is None else int(n_clusters)
    if c < 1:
        raise ValidationError(f"n_clusters must be >= 1, got {c}")
    if high >= c:
        raise ValidationError(f"labels contain value {high} >= n_clusters={c}")
    return labels, c


def indicator_from_labels(labels: np.ndarray, n_clusters: int | None = None) -> np.ndarray:
    """One-hot indicator matrix ``Y`` from a label vector.

    Parameters
    ----------
    labels : array-like of int, shape (n,)
        Labels in ``0..c-1`` (validated).
    n_clusters : int, optional
        Number of columns ``c``; defaults to ``labels.max() + 1``.

    Returns
    -------
    ndarray of shape (n, c)
        Rows are one-hot.
    """
    labels, c = _indicator_labels(labels, n_clusters)
    y = np.zeros((labels.size, c))
    y[np.arange(labels.size), labels] = 1.0
    return y


def repair_empty_clusters(
    labels: np.ndarray, n_clusters: int, scores: np.ndarray
) -> np.ndarray:
    """Ensure every cluster in ``0..n_clusters-1`` has at least one member.

    For each empty cluster, reassigns the point that is *least committed*
    to its current cluster: the one with the smallest margin between its
    current cluster's score and the empty cluster's.  Draws no
    randomness.  Points are never moved out of singleton clusters.

    Parameters
    ----------
    labels : array-like of int, shape (n,)
        Current assignment.
    n_clusters : int
        Required number of clusters ``c``; must satisfy ``c <= n``.
    scores : ndarray of shape (n, c)
        Soft assignment scores (such as ``F R``) used to pick victims.

    Returns
    -------
    ndarray of int64, shape (n,)
        Assignment where every cluster is non-empty.
    """
    labels = check_labels(labels).copy()
    n = labels.size
    if n_clusters > n:
        raise ValidationError(
            f"cannot make {n_clusters} non-empty clusters from {n} points"
        )
    scores = check_matrix(scores, "scores")
    if scores.shape != (n, n_clusters):
        raise ValidationError(
            f"scores must have shape ({n}, {n_clusters}), got {scores.shape}"
        )

    counts = np.bincount(labels, minlength=n_clusters)
    empty = [int(c) for c in np.flatnonzero(counts == 0)]
    for c in empty:
        movable = np.flatnonzero(counts[labels] > 1)
        if movable.size == 0:  # pragma: no cover - guarded by c <= n
            break
        # Margin between current-cluster score and the empty cluster's
        # score: move the point that loses the least.
        margin = scores[movable, labels[movable]] - scores[movable, c]
        victim = int(movable[np.argmin(margin)])
        counts[labels[victim]] -= 1
        labels[victim] = c
        counts[c] += 1
    return labels
