"""Affinity (similarity graph) construction.

The standard recipes of the multi-view spectral clustering literature:

* :func:`gaussian_affinity` — global-bandwidth RBF kernel, with the median
  heuristic as the default bandwidth;
* :func:`self_tuning_affinity` — Zelnik-Manor & Perona local scaling
  ``exp(-d_ij^2 / (sigma_i sigma_j))`` with ``sigma_i`` the distance to the
  point's k-th neighbor; this is the construction assumed by the paper's
  family of methods;
* :func:`cosine_affinity` — shifted cosine similarity for text-like views;
* :func:`knn_sparsify` — keep only mutual/unioned k-NN edges;
* :func:`build_view_affinity` — the one-call recipe used by every algorithm
  in this repo (self-tuning + k-NN sparsification + symmetrization).

Each public function validates its input exactly once and runs a private
unchecked kernel; the kernels call the active backend's distance method
directly, and :func:`build_view_affinity` chains the kernels after its
single check of ``x``.
"""

from __future__ import annotations

import numpy as np

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.graph.adaptive import _can_affinity
from repro.observability.trace import hot_span
from repro.utils.validation import check_matrix, check_square


def _median_offdiag(d2: np.ndarray) -> float:
    """Median of the off-diagonal entries of a square matrix.

    Equivalent to ``np.median(d2[~np.eye(n, dtype=bool)])`` but without
    materializing the n*n boolean mask and the n*n-sized fancy-indexed
    copy: dropping the last element of the flat view and reshaping to
    ``(n - 1, n + 1)`` lands every diagonal entry in column 0, so the
    remaining columns are exactly the off-diagonal elements (a standard
    stride trick; the reshape is copy-free on the contiguous ravel).
    Returns 1.0 for an empty off-diagonal (n < 2), the historical
    default.
    """
    n = d2.shape[0]
    if n < 2:
        return 1.0
    off = np.ascontiguousarray(d2).ravel()[:-1].reshape(n - 1, n + 1)[:, 1:]
    return float(np.median(off))


def _checked_x(x) -> np.ndarray:
    return check_matrix(x, "x", dtype=current_backend().validation_dtype)


def gaussian_affinity(
    x: np.ndarray,
    *,
    sigma: float | None = None,
    zero_diagonal: bool = True,
) -> np.ndarray:
    """Global-bandwidth Gaussian (RBF) affinity ``exp(-d^2 / (2 sigma^2))``.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Feature matrix.
    sigma : float, optional
        Bandwidth.  Defaults to the median pairwise distance (median
        heuristic); must be positive if given.
    zero_diagonal : bool
        Remove self-loops (default True), the spectral clustering
        convention.
    """
    return _gaussian(_checked_x(x), sigma, zero_diagonal)


def _gaussian(x, sigma, zero_diagonal: bool = True) -> np.ndarray:
    backend = current_backend()
    d2 = backend.pairwise_sq_euclidean(x)
    if sigma is None:
        med = _median_offdiag(d2)
        sigma = np.sqrt(med) if med > 0 else 1.0
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    w = backend.gaussian_kernel(d2, float(sigma))
    if zero_diagonal:
        np.fill_diagonal(w, 0.0)
    return (w + w.T) / 2.0


def self_tuning_affinity(
    x: np.ndarray,
    *,
    k: int = 7,
    zero_diagonal: bool = True,
) -> np.ndarray:
    """Self-tuning (locally scaled) Gaussian affinity.

    ``W_ij = exp(-d_ij^2 / (sigma_i sigma_j))`` with ``sigma_i`` the distance
    from point ``i`` to its ``k``-th nearest neighbor (Zelnik-Manor & Perona,
    NIPS 2004).  Robust to clusters of different densities, which is why the
    multi-view literature defaults to it.

    Parameters
    ----------
    x : ndarray of shape (n, d)
    k : int
        Neighbor rank used for the local scale; clipped to ``n - 1``.
    zero_diagonal : bool
        Remove self-loops (default True).
    """
    return _self_tuning(_checked_x(x), k, zero_diagonal)


def _self_tuning(x, k: int, zero_diagonal: bool = True) -> np.ndarray:
    backend = current_backend()
    n = x.shape[0]
    if n < 2:
        raise ValidationError("self_tuning_affinity needs at least 2 samples")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)
    d2 = backend.pairwise_sq_euclidean(x)
    _, knn_d = backend.knn_select(np.sqrt(d2), k, include_self=False)
    sigma = knn_d[:, -1]
    # finfo of d2's own dtype: float64 here is bit-identical to the
    # historical np.finfo(float).eps, and a float32 backend must not let
    # a strong float64 eps scalar upcast the whole sigma vector.
    sigma = np.where(sigma > 0, sigma, np.finfo(d2.dtype).eps)
    w = backend.self_tuning_kernel(d2, sigma)
    if zero_diagonal:
        np.fill_diagonal(w, 0.0)
    return (w + w.T) / 2.0


def cosine_affinity(x: np.ndarray, *, zero_diagonal: bool = True) -> np.ndarray:
    """Cosine-similarity affinity rescaled into ``[0, 1]``.

    ``W_ij = (1 + cos(x_i, x_j)) / 2`` — the standard choice for sparse
    text-like views where Euclidean bandwidth selection is unreliable.
    Zero rows (empty documents) inherit the distance layer's convention:
    they sit at the neutral affinity 0.5 to everything *including
    themselves*, so a dead document never gets a self-similarity spike
    even with ``zero_diagonal=False``.
    """
    return _cosine(_checked_x(x), zero_diagonal)


def _cosine(x, zero_diagonal: bool = True) -> np.ndarray:
    sim = 1.0 - current_backend().pairwise_cosine_distances(x)
    w = (1.0 + sim) / 2.0
    np.clip(w, 0.0, 1.0, out=w)
    if zero_diagonal:
        np.fill_diagonal(w, 0.0)
    return (w + w.T) / 2.0


def knn_sparsify(w: np.ndarray, k: int, *, mutual: bool = False) -> np.ndarray:
    """Keep only edges where at least one endpoint ranks the other in its top-k.

    Parameters
    ----------
    w : ndarray of shape (n, n)
        Dense affinity (larger = more similar).
    k : int
        Neighbors kept per node.
    mutual : bool
        If True, keep an edge only when *both* endpoints rank each other in
        their top-k (intersection); default is the union rule.

    Returns
    -------
    ndarray of shape (n, n)
        Sparsified symmetric affinity with zero diagonal.
    """
    w = check_square(w, "w", dtype=current_backend().validation_dtype)
    return _knn_sparsify(w, k, mutual)


def _knn_sparsify(w, k: int, mutual: bool = False) -> np.ndarray:
    n = w.shape[0]
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k must be in [1, {n - 1}], got {k}")
    # Neighbors by *affinity*: convert to a distance-like ordering.
    neg = -w.copy()
    np.fill_diagonal(neg, np.inf)
    idx, _ = current_backend().knn_select(neg, k, include_self=False)
    mask = np.zeros_like(w, dtype=bool)
    mask[np.arange(n)[:, None], idx] = True
    mask = (mask & mask.T) if mutual else (mask | mask.T)
    out = np.where(mask, w, 0.0)
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, out.T)


def build_view_affinity(
    x: np.ndarray,
    *,
    kind: str = "self_tuning",
    k: int = 10,
) -> np.ndarray:
    """One-call affinity recipe used throughout the library.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        One view's feature matrix.
    kind : {"self_tuning", "gaussian", "cosine", "adaptive"}
        Kernel family.
    k : int
        Neighborhood size for local scaling / sparsification / adaptive
        graphs.  Every kind but ``adaptive`` (sparse by construction) is
        followed by union k-NN sparsification; ``gaussian`` takes the
        median-heuristic bandwidth.

    Returns
    -------
    ndarray of shape (n, n)
        Symmetric non-negative affinity with zero diagonal.
    """
    backend = current_backend()
    x = _checked_x(x)
    n = x.shape[0]
    k_eff = max(1, min(k, n - 1))
    with hot_span(
        "knn_affinity", kind=kind, n=n, k=k_eff, backend=backend.name
    ):
        if kind == "self_tuning":
            w = _self_tuning(x, min(7, k_eff))
        elif kind == "gaussian":
            w = _gaussian(x, None)
        elif kind == "cosine":
            w = _cosine(x)
        elif kind == "adaptive":
            # The CAN graph needs a (k+1)-th neighbor to set gamma, so
            # its valid range is [1, n - 2]; clamp the recipe's k
            # explicitly (the CAN kernel itself rejects out-of-range k).
            if n < 3:
                raise ValidationError(
                    f"adaptive affinity needs at least 3 samples, got {n}"
                )
            return _can_affinity(
                backend.pairwise_sq_euclidean(x), min(k_eff, n - 2)
            )
        else:
            raise ValidationError(f"unknown affinity kind: {kind!r}")
        w = _knn_sparsify(w, k_eff)
    return w
