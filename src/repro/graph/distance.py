"""Pairwise distance kernels.

Dense, vectorized implementations sized for the paper's benchmarks
(n up to a few thousand).  Squared Euclidean distances are computed with the
expansion ``||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y`` and clipped at zero to
remove negative roundoff.

The arithmetic lives in the active :class:`~repro.backends.ArrayBackend`
(float64 numpy by default; see :mod:`repro.backends`).  These public
functions validate each input exactly once and run the structural check
(shared feature dimension), then dispatch.  Library code that already
holds validated arrays (the affinity kernels, the blockwise sparse kNN,
the CAN graph, the serving index) calls the backend method directly.
"""

from __future__ import annotations

import numpy as np

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.utils.validation import check_matrix


def _checked_pair(x, y, dtype) -> tuple[np.ndarray, np.ndarray | None]:
    x = check_matrix(x, "x", dtype=dtype)
    if y is not None:
        y = check_matrix(y, "y", dtype=dtype)
        if x.shape[1] != y.shape[1]:
            raise ValidationError(
                "x and y must share the feature dimension, "
                f"got {x.shape[1]} and {y.shape[1]}"
            )
    return x, y


def pairwise_sq_euclidean(
    x: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distance matrix between rows of ``x`` and ``y``.

    Parameters
    ----------
    x : ndarray of shape (n, d)
    y : ndarray of shape (m, d), optional
        Defaults to ``x`` (self-distances; the diagonal is exactly zero).

    Returns
    -------
    ndarray of shape (n, m)
        Non-negative squared distances, in the active backend's compute
        dtype.
    """
    backend = current_backend()
    x, y = _checked_pair(x, y, backend.validation_dtype)
    return backend.pairwise_sq_euclidean(x, y)


def pairwise_cosine_distances(
    x: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """Cosine distance matrix ``1 - cos(x_i, y_j)`` between rows.

    Zero rows are treated as maximally distant from *everything*
    (distance 1) — including themselves in the symmetric case — matching
    the convention that an empty document is unrelated to all others.
    Only nonzero rows get the exact-zero self-distance of the symmetric
    path; a dead document must not look like its own nearest neighbor.

    Parameters
    ----------
    x : ndarray of shape (n, d)
    y : ndarray of shape (m, d), optional
        Defaults to ``x``.

    Returns
    -------
    ndarray of shape (n, m)
        Values in ``[0, 2]``, in the active backend's compute dtype.
    """
    backend = current_backend()
    x, y = _checked_pair(x, y, backend.validation_dtype)
    return backend.pairwise_cosine_distances(x, y)
