"""Sparse graph construction (scipy.sparse CSR) for large sample counts.

The dense pipeline materializes `n x n` arrays; beyond a few thousand
samples that is the memory wall.  This module provides sparse
counterparts that agree exactly with the dense recipe on the entries they
keep:

* :func:`sparse_knn_affinity` — self-tuning k-NN affinity as CSR, built
  from blockwise distance computation (never an `n x n` dense array);
* :func:`sparse_laplacian` — symmetric normalized Laplacian as CSR;
* :func:`sparse_spectral_embedding` — bottom-`c` eigenvectors via Lanczos.

Combined with :mod:`repro.graph.anchor` this covers both large-`n`
regimes: sparse graphs keep the exact neighborhood structure, anchor
graphs trade exactness for linear-time factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.graph.laplacian import _inverse_or_zero
from repro.linalg.eigen import eigsh_smallest
from repro.utils.validation import check_matrix


def _blockwise_knn(x: np.ndarray, k: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices/squared-distances of each row's k nearest neighbors.

    Processes query rows in blocks of size ``block`` so peak memory is
    ``O(block * n)`` instead of ``O(n^2)``.  ``x`` is already validated,
    so each block goes straight to the backend's distance kernel.
    """
    backend = current_backend()
    n = x.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    d2 = np.empty((n, k))
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = backend.pairwise_sq_euclidean(x[start:stop], x)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        rows = np.arange(stop - start)[:, None]
        order = np.argsort(dist[rows, part], axis=1, kind="stable")
        chosen = part[rows, order]
        idx[start:stop] = chosen
        d2[start:stop] = dist[rows, chosen]
    return idx, d2


def sparse_knn_affinity(
    x: np.ndarray,
    *,
    k: int = 10,
    scale_rank: int = 7,
    block: int = 512,
) -> scipy.sparse.csr_matrix:
    """Self-tuning k-NN affinity as a symmetric CSR matrix.

    The kernel is the Zelnik-Manor & Perona local scaling
    ``exp(-d_ij^2 / (sigma_i sigma_j))`` restricted to the union k-NN
    edge set, with ``sigma_i`` the distance to the ``scale_rank``-th
    neighbor — the same recipe as the dense
    :func:`repro.graph.affinity.self_tuning_affinity` +
    :func:`repro.graph.affinity.knn_sparsify` path, sparsified at
    construction time.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Feature matrix.
    k : int
        Neighbors per node (union symmetrization).
    scale_rank : int
        Neighbor rank defining the local bandwidth (clipped to ``k``).
    block : int
        Query block size controlling peak memory.

    Returns
    -------
    scipy.sparse.csr_matrix of shape (n, n)
        Symmetric, non-negative, zero diagonal.
    """
    x = check_matrix(x, "x")
    n = x.shape[0]
    if n < 2:
        raise ValidationError("sparse_knn_affinity needs at least 2 samples")
    k = max(1, min(k, n - 1))
    scale_rank = max(1, min(scale_rank, k))
    if block < 1:
        raise ValidationError(f"block must be >= 1, got {block}")

    idx, d2 = _blockwise_knn(x, k, block)
    sigma = np.sqrt(d2[:, scale_rank - 1])
    sigma = np.where(sigma > 0, sigma, np.finfo(float).eps)

    rows = np.repeat(np.arange(n), k)
    cols = idx.ravel()
    vals = np.exp(-d2.ravel() / (sigma[rows] * sigma[cols]))
    w = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    # Union symmetrization: keep the max of the two directions.
    w = w.maximum(w.T)
    w.setdiag(0.0)
    w.eliminate_zeros()
    return w


def sparse_laplacian(
    w: scipy.sparse.spmatrix, *, normalization: str = "symmetric"
) -> scipy.sparse.csr_matrix:
    """Graph Laplacian of a sparse symmetric affinity.

    Matches :func:`repro.graph.laplacian.laplacian` entrywise; isolated
    vertices get zero inverse degree.
    """
    if not scipy.sparse.issparse(w):
        raise ValidationError("sparse_laplacian expects a scipy sparse matrix")
    w = w.tocsr()
    if w.shape[0] != w.shape[1]:
        raise ValidationError("affinity must be square")
    if (abs(w - w.T) > 1e-8).nnz:
        raise ValidationError("affinity must be symmetric")
    if w.nnz and w.data.min() < -1e-12:
        raise ValidationError("affinity must be non-negative")
    n = w.shape[0]
    degrees = np.asarray(w.sum(axis=1)).ravel()
    eye = scipy.sparse.identity(n, format="csr")
    if normalization == "unnormalized":
        return (scipy.sparse.diags(degrees) - w).tocsr()
    if normalization == "symmetric":
        d_inv = scipy.sparse.diags(_inverse_or_zero(np.sqrt(degrees)))
        lap = eye - d_inv @ w @ d_inv
        return ((lap + lap.T) / 2.0).tocsr()
    if normalization == "random_walk":
        inv = scipy.sparse.diags(_inverse_or_zero(degrees))
        return (eye - inv @ w).tocsr()
    raise ValidationError(f"unknown normalization: {normalization!r}")


def sparse_spectral_embedding(
    w: scipy.sparse.spmatrix,
    n_components: int,
    *,
    row_normalize: bool = True,
) -> np.ndarray:
    """Bottom-eigenvector embedding of a sparse graph (Lanczos).

    Mirrors :func:`repro.cluster.spectral.spectral_embedding` on sparse
    input.
    """
    lap = sparse_laplacian(w)
    n = lap.shape[0]
    if not 1 <= n_components <= n:
        raise ValidationError(
            f"n_components must be in [1, {n}], got {n_components}"
        )
    _, vectors = eigsh_smallest(lap, n_components)
    emb = vectors
    if row_normalize:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.where(norms > 0, norms, 1.0)
    return emb
