"""Weighted fusion of per-view graphs.

Multi-view spectral methods combine per-view affinities or Laplacians into a
single consensus operator.  Fusion with explicit weights is the primitive
behind kernel-addition baselines, AMGL-style auto-weighting, and the fused
Laplacian inside the unified framework's embedding update.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_square


def _check_stack(mats, name: str) -> list[np.ndarray]:
    mats = [check_square(m, f"{name}[{i}]") for i, m in enumerate(mats)]
    if not mats:
        raise ValidationError(f"{name} must be non-empty")
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != n:
            raise ValidationError(
                f"{name}[{i}] has size {m.shape[0]}, expected {n}"
            )
    return mats


def _check_weights(weights, n_views: int) -> np.ndarray:
    if weights is None:
        return np.full(n_views, 1.0 / n_views)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_views,):
        raise ValidationError(
            f"weights must have shape ({n_views},), got {w.shape}"
        )
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite and non-negative")
    total = float(np.sum(w))
    if total <= 0:
        raise ValidationError("weights must not all be zero")
    return w


def fuse_affinities(affinities) -> np.ndarray:
    """Uniform average of per-view affinities.

    Parameters
    ----------
    affinities : sequence of ndarray (n, n)
        Per-view symmetric affinities.

    Returns
    -------
    ndarray of shape (n, n)
    """
    mats = _check_stack(affinities, "affinities")
    w = np.full(len(mats), 1.0 / len(mats))
    # V copies of 1/V do not always sum to exactly 1 (V = 6, 7, ...), so
    # this renormalization moves the weights' last bits; the fused graph
    # is defined with it.
    w = w / np.sum(w)
    fused = np.zeros_like(mats[0])
    for wv, m in zip(w, mats):
        fused += wv * m
    return (fused + fused.T) / 2.0


def fuse_laplacians(laplacians, weights=None) -> np.ndarray:
    """Weighted sum of per-view Laplacians (weights used as-is).

    Unlike :func:`fuse_affinities`, weights are *not* renormalized: the
    unified framework's objective multiplies each view Laplacian by its raw
    weight ``w_v^gamma``, and the embedding subproblem needs exactly
    ``sum_v w_v^gamma L_v``.
    """
    mats = _check_stack(laplacians, "laplacians")
    w = _check_weights(weights, len(mats))
    fused = np.zeros_like(mats[0])
    for wv, m in zip(w, mats):
        fused += wv * m
    return (fused + fused.T) / 2.0
