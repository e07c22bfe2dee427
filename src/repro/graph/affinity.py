"""Affinity (similarity graph) construction.

:func:`build_view_affinity` is the one-call recipe used by every
algorithm in this repo.  It validates ``x`` once and chains private
unchecked kernels, which call the active backend's distance method
directly:

* ``_gaussian`` — global-bandwidth RBF kernel ``exp(-d^2 / (2 sigma^2))``;
  ``sigma=None`` takes the median heuristic;
* ``_self_tuning`` — Zelnik-Manor & Perona local scaling
  ``exp(-d_ij^2 / (sigma_i sigma_j))`` with ``sigma_i`` the distance to the
  point's k-th neighbor (k clipped to ``n - 1``); this is the construction
  assumed by the paper's family of methods;
* ``_cosine`` — shifted cosine similarity ``(1 + cos) / 2`` for text-like
  views; a zero row (empty document) sits at the neutral 0.5;
* ``_knn_sparsify`` — keep the edges where either endpoint ranks the other
  in its top k by affinity.

Every kernel returns a symmetric affinity with zero diagonal, built in
the buffer of its distance matrix: the distance kernels return an
exactly symmetric matrix and every map after them is elementwise, in
place, with a symmetric argument, so no kernel re-symmetrizes.
``_knn_sparsify`` allocates the one other ``n x n`` array, its output
(``_gaussian``'s median heuristic takes a transient copy of the
off-diagonal distances first).
"""

from __future__ import annotations

import numpy as np

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.graph.adaptive import _can_affinity
from repro.observability.trace import hot_span
from repro.utils.validation import check_matrix


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


def _gaussian(x, sigma) -> np.ndarray:
    backend = current_backend()
    d2 = backend.pairwise_sq_euclidean(x)
    if sigma is None:
        med = _median_offdiag(d2)
        sigma = np.sqrt(med) if med > 0 else 1.0
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    w = backend.gaussian_kernel(d2, float(sigma))
    np.fill_diagonal(w, 0.0)
    return w


def _self_tuning(x, k: int) -> np.ndarray:
    backend = current_backend()
    n = x.shape[0]
    if n < 2:
        raise ValidationError("self-tuning affinity needs at least 2 samples")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)
    d2 = backend.pairwise_sq_euclidean(x)
    # sqrt is monotone, so the k-th smallest root is the root of the
    # k-th smallest square: no n x n array of roots.
    _, knn_d2 = backend.knn_select(d2, k, include_self=False)
    sigma = np.sqrt(knn_d2[:, -1])
    # finfo of d2's own dtype: float64 here is bit-identical to the
    # historical np.finfo(float).eps, and a float32 backend must not let
    # a strong float64 eps scalar upcast the whole sigma vector.
    sigma = np.where(sigma > 0, sigma, np.finfo(d2.dtype).eps)
    w = backend.self_tuning_kernel(d2, sigma)
    np.fill_diagonal(w, 0.0)
    return w


def _cosine(x) -> np.ndarray:
    w = current_backend().pairwise_cosine_distances(x)
    np.subtract(1.0, w, out=w)  # the similarity
    np.add(1.0, w, out=w)
    w /= 2.0
    np.clip(w, 0.0, 1.0, out=w)
    np.fill_diagonal(w, 0.0)
    return w


def _knn_sparsify(w, k: int) -> np.ndarray:
    n = w.shape[0]
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k must be in [1, {n - 1}], got {k}")
    # Neighbors by *affinity*: rank the negated matrix, built in the
    # output's buffer.
    out = np.negative(w)
    np.fill_diagonal(out, np.inf)
    idx, _ = current_backend().knn_select(out, k, include_self=False)
    # Keep edge (i, j) when either endpoint ranks the other; ``w`` is
    # exactly symmetric, so ``w[i, j]`` serves both directions.
    rows = np.arange(n)[:, None]
    kept = w[rows, idx]
    out.fill(0.0)
    out[rows, idx] = kept
    out[idx, rows] = kept
    return out


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
