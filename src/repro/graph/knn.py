"""k-nearest-neighbor index computation over a distance matrix.

Validation lives here; the selection kernel (argpartition + stable
within-slice sort) is dispatched to the active
:class:`~repro.backends.ArrayBackend`.
"""

from __future__ import annotations

import numpy as np

from repro.backends import current_backend
from repro.exceptions import ValidationError


def kneighbors(
    distances: np.ndarray, k: int, *, include_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each row's ``k`` nearest neighbors.

    Parameters
    ----------
    distances : ndarray of shape (n, n)
        Precomputed pairwise distance matrix.
    k : int
        Number of neighbors per point; ``1 <= k <= n - 1`` (or ``n`` when
        ``include_self``).
    include_self : bool
        If False (default), a point is never its own neighbor.

    Returns
    -------
    (indices, dists)
        Both of shape ``(n, k)``; neighbors sorted by increasing distance.
    """
    backend = current_backend()
    if backend.validation_dtype is None:
        d = np.asarray(distances)
        if d.dtype not in (np.float32, np.float64):
            d = np.asarray(d, dtype=np.float64)
    else:
        d = np.asarray(distances, dtype=backend.validation_dtype)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"distances must be square 2-D, got shape {d.shape}")
    # min propagates NaN and, unlike isnan, allocates no n x n mask.
    if d.size and np.isnan(d.min()):
        raise ValidationError("distances contains NaN entries")
    n = d.shape[0]
    limit = n if include_self else n - 1
    if not 1 <= k <= limit:
        raise ValidationError(f"k must be in [1, {limit}] for n={n}, got {k}")
    return backend.knn_select(d, k, include_self=include_self)
