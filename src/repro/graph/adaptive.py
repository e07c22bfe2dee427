"""Adaptive-neighbor graphs (CAN-style).

Nie, Wang & Huang (KDD 2014) learn, for each sample, a probability
distribution over its neighbors by solving

``min_{s_i in simplex}  sum_j d_ij s_ij + gamma s_ij^2``

whose closed-form solution assigns nonzero probability to exactly the ``k``
nearest neighbors when ``gamma`` is chosen per-row as

``gamma_i = (k d_{i,k+1} - sum_{j<=k} d_ij) / 2``.

The resulting graph is sparse, parameter-light (only ``k``), and is the
building block of the MLAN baseline and the ``adaptive`` affinity kind.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.simplex import simplex_projection_rowwise
from repro.utils.validation import check_matrix


def adaptive_neighbor_affinity(
    distances: np.ndarray, *, k: int = 10
) -> np.ndarray:
    """Learn a CAN adaptive-neighbor affinity from squared distances.

    Parameters
    ----------
    distances : ndarray of shape (n, n)
        Squared distances (graph-learning baselines iterate on modified
        distances, so they pass them rather than features).
    k : int
        Number of neighbors each sample connects to; must satisfy
        ``1 <= k <= n - 2`` (the closed form needs the ``(k+1)``-th
        neighbor distance to set ``gamma``).

    Returns
    -------
    ndarray of shape (n, n)
        Symmetric ``(S + S^T)/2`` of the row-stochastic CAN graph ``S``:
        at most ``k`` nonzeros per row before symmetrization,
        non-negative, zero diagonal.
    """
    d2 = check_matrix(distances, "distances")
    if d2.shape[0] != d2.shape[1]:
        raise ValidationError("distances must be square")
    return _can_affinity(d2, k)


def _can_affinity(d2: np.ndarray, k: int) -> np.ndarray:
    """:func:`adaptive_neighbor_affinity` of checked squared distances."""
    n = d2.shape[0]
    if not 1 <= k <= n - 2:
        # Raising (not clamping) keeps sweeps honest: a configured k that
        # cannot be realized must not silently run a different graph.
        raise ValidationError(
            f"k must be in [1, {n - 2}] for n={n}, got {k}"
        )
    work = d2.copy()
    np.fill_diagonal(work, np.inf)
    order = np.argsort(work, axis=1)
    rows = np.arange(n)[:, None]
    nearest = order[:, : k + 1]
    d_sorted = work[rows, nearest]  # (n, k+1), ascending
    d_k = d_sorted[:, k]  # distance to the (k+1)-th neighbor
    d_topk = d_sorted[:, :k]
    denom = k * d_k - np.sum(d_topk, axis=1)
    denom = np.where(denom > np.finfo(float).eps, denom, np.finfo(float).eps)
    s_vals = (d_k[:, None] - d_topk) / denom[:, None]
    # Rows with ties can leave tiny negatives / unnormalized mass: project.
    s_vals = simplex_projection_rowwise(s_vals)
    s = np.zeros((n, n))
    s[rows, nearest[:, :k]] = s_vals
    np.fill_diagonal(s, 0.0)
    return (s + s.T) / 2.0
