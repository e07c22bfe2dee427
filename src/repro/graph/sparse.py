"""Sparse graph construction (scipy.sparse CSR) for large sample counts.

The dense pipeline materializes `n x n` arrays; beyond a few thousand
samples that is the memory wall.  This module provides sparse
counterparts that agree exactly with the dense recipe on the entries they
keep:

* :func:`sparse_knn_affinity` — self-tuning k-NN affinity as CSR, built
  from blockwise distance computation (never an `n x n` dense array);
* :func:`sparse_laplacian` — symmetric normalized Laplacian as CSR.

Combined with :mod:`repro.graph.anchor` this covers both large-`n`
regimes: sparse graphs keep the exact neighborhood structure, anchor
graphs trade exactness for linear-time factorization.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.graph.laplacian import _inverse_or_zero
from repro.utils.validation import check_matrix

#: Query rows per distance kernel call in :func:`sparse_knn_affinity`:
#: bounds peak memory at ``O(QUERY_BLOCK * n)``, never changes a value.
QUERY_BLOCK = 512

#: Neighbor rank whose distance sets the local bandwidth (clipped to k),
#: as in the dense self-tuning recipe.
SCALE_RANK = 7


def _blockwise_knn(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices/squared-distances of each row's k nearest neighbors.

    Processes query rows in blocks of :data:`QUERY_BLOCK` so peak memory
    is ``O(QUERY_BLOCK * n)`` instead of ``O(n^2)``.  ``x`` is already
    validated, so each block goes straight to the backend's distance
    kernel.
    """
    backend = current_backend()
    n = x.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    d2 = np.empty((n, k))
    for start in range(0, n, QUERY_BLOCK):
        stop = min(start + QUERY_BLOCK, n)
        dist = backend.pairwise_sq_euclidean(x[start:stop], x)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        rows = np.arange(stop - start)[:, None]
        order = np.argsort(dist[rows, part], axis=1, kind="stable")
        chosen = part[rows, order]
        idx[start:stop] = chosen
        d2[start:stop] = dist[rows, chosen]
    return idx, d2


def sparse_knn_affinity(x: np.ndarray, *, k: int = 10) -> scipy.sparse.csr_matrix:
    """Self-tuning k-NN affinity as a symmetric CSR matrix.

    The kernel is the Zelnik-Manor & Perona local scaling
    ``exp(-d_ij^2 / (sigma_i sigma_j))`` restricted to the union k-NN
    edge set, with ``sigma_i`` the distance to the :data:`SCALE_RANK`-th
    neighbor — the same recipe as the dense self-tuning kernel of
    :func:`repro.graph.affinity.build_view_affinity`, sparsified at
    construction time.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Feature matrix.
    k : int
        Neighbors per node (union symmetrization).

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
    scale_rank = min(SCALE_RANK, k)

    idx, d2 = _blockwise_knn(x, k)
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


class _Pattern(NamedTuple):
    """A square CSR pattern that fixed-structure kernels compute on.

    Canonical (sorted, duplicate-free) and structurally symmetric, with
    every diagonal entry stored, so a data array on it is a whole matrix
    and ``data[perm]`` is that matrix's transpose on the same pattern.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray  # row of each stored entry
    diag: np.ndarray  # position of each diagonal entry, in row order
    offdiag: np.ndarray  # positions of the off-diagonal entries, in order
    perm: np.ndarray  # data[perm] is the transpose's data


def _union_pattern(mats) -> tuple[_Pattern, list[np.ndarray]]:
    """The :class:`_Pattern` covering square sparse ``mats``, and their data.

    The pattern is the union of every matrix's stored entries, their
    mirror images and the diagonal; each matrix's data comes back
    aligned to it, 0 where the matrix stores nothing (duplicates are
    summed).  Built once per graph family: ``O(nnz log nnz)``.
    """
    n = mats[0].shape[0]
    coos = [scipy.sparse.coo_array(m) for m in mats]
    keys = [c.row.astype(np.int64) * n + c.col for c in coos]
    mirrored = [c.col.astype(np.int64) * n + c.row for c in coos]
    diagonal = np.arange(n, dtype=np.int64) * (n + 1)
    union = np.unique(np.concatenate(keys + mirrored + [diagonal]))
    rows, cols = np.divmod(union, n)
    index_dtype = np.int32 if max(n, union.size) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    pattern = _Pattern(
        indptr=indptr,
        indices=cols.astype(index_dtype),
        rows=rows,
        diag=np.searchsorted(union, diagonal),
        offdiag=np.flatnonzero(rows != cols),
        perm=np.searchsorted(union, cols * n + rows),
    )
    data = []
    for coo, key in zip(coos, keys):
        aligned = np.zeros(union.size)
        np.add.at(aligned, np.searchsorted(union, key), coo.data)
        data.append(aligned)
    return pattern, data


def _stored_degrees(pattern: _Pattern, data: np.ndarray) -> np.ndarray:
    """Row sums of ``data``'s nonzero off-diagonal entries, as scipy sums.

    A sum of scipy sparse matrices stores exactly these entries, and its
    ``sum(axis=1)`` runs ``np.add.reduceat`` over each non-empty row of
    that layout.  ``reduceat`` sums a row pairwise, so its rounding
    depends on which entries the row stores: summing the diagonal or
    explicit zeros too would change the degrees' last bits.
    """
    values = data[pattern.offdiag]
    rows = pattern.rows[pattern.offdiag]
    nonzero = values != 0.0
    if not nonzero.all():
        values, rows = values[nonzero], rows[nonzero]
    degrees = np.zeros(pattern.indptr.size - 1)
    if values.size:
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        degrees[rows[starts]] = np.add.reduceat(values, starts)
    return degrees


def _symmetric_laplacian(
    pattern: _Pattern, w: np.ndarray, degrees: np.ndarray
) -> scipy.sparse.csr_matrix:
    """``I - D^{-1/2} W D^{-1/2}`` on ``pattern``, symmetrized, unchecked.

    ``w`` is the affinity's data on ``pattern``.  Reproduces scipy's
    ``(L + L.T) / 2`` with ``L = eye - diags(s) @ W @ diags(s)`` bit for
    bit on every entry scipy stores: ``x = (s_i w_ij) s_j`` in that
    order, ``-x`` off the diagonal, ``1 - x`` on it, and both products
    averaged, since ``(s_i w) s_j`` and ``(s_j w) s_i`` can differ in
    the last bit.  Where ``x`` is zero scipy stores nothing and this
    stores ``-0.0``; both densify to ``+0.0``.  Zero-degree (isolated)
    vertices get a zero diagonal, as
    :func:`repro.graph.laplacian.laplacian` gives them.
    """
    inv_sqrt = _inverse_or_zero(np.sqrt(degrees))
    lap = inv_sqrt[pattern.rows] * w
    lap *= inv_sqrt[pattern.indices]
    np.negative(lap, out=lap)
    lap[pattern.diag] += np.where(degrees > 0.0, 1.0, 0.0)
    lap += lap[pattern.perm]
    lap /= 2.0
    n = degrees.size
    return scipy.sparse.csr_matrix(
        (lap, pattern.indices, pattern.indptr), shape=(n, n)
    )


def sparse_laplacian(w: scipy.sparse.spmatrix) -> scipy.sparse.csr_matrix:
    """Symmetric normalized Laplacian of a sparse symmetric affinity.

    Matches ``repro.graph.laplacian.laplacian(w, normalization=
    "symmetric")`` entrywise; isolated vertices get zero inverse degree
    and a zero diagonal.
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
    degrees = np.asarray(w.sum(axis=1)).ravel()
    pattern, (data,) = _union_pattern([w])
    return _symmetric_laplacian(pattern, data, degrees)
