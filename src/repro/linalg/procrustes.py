"""Orthogonal Procrustes rotation.

The rotation step of one-stage spectral clustering solves

``max_R  tr(R^T M)   s.t.  R^T R = I``

whose closed-form solution is ``R = U V^T`` where ``M = U S V^T`` is the
(thin) singular value decomposition.  This is the classical orthogonal
Procrustes problem; the same primitive also maps a continuous embedding onto
a discrete indicator matrix in the spectral rotation literature.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from repro.exceptions import NumericalError
from repro.robust.faults import register_fault_site
from repro.robust.policy import matrix_context, run_with_policy
from repro.utils.validation import check_matrix

_SITE_SVD = register_fault_site(
    "procrustes.svd", "polar factor via thin SVD (nearest_orthogonal)"
)


@functools.lru_cache(maxsize=64)
def _gesdd(dtype: np.dtype, shape: tuple[int, int]):
    """LAPACK ``gesdd`` and its thin-SVD workspace for one input type.

    The routine and ``lwork`` are the ones ``scipy.linalg.svd(a,
    full_matrices=False)`` picks for a double-precision ``a`` of this
    shape.  ``gesdd`` chooses its algorithm by ``lwork``, so the factors
    keep scipy's bits.  Threads may race to fill an entry; both compute
    the same value.
    """
    gesdd, gesdd_lwork = scipy.linalg.get_lapack_funcs(
        ("gesdd", "gesdd_lwork"), (np.empty(0, dtype),), ilp64="preferred"
    )
    work, info = gesdd_lwork(*shape, compute_uv=1, full_matrices=0)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork = int(work)
    if lwork > np.iinfo(gesdd.int_dtype).max:
        raise ValueError("Too large work array required")
    return gesdd, lwork


def _thin_svd_polar(mat: np.ndarray) -> np.ndarray:
    """``U V^T`` of ``scipy.linalg.svd(mat, full_matrices=False)``, bit for bit.

    ``mat`` is finite with ``p >= q >= 1``; the LAPACK call and its
    errors are scipy's, without its per-call dispatch and checks.
    """
    gesdd, lwork = _gesdd(mat.dtype, mat.shape)
    u, _, vt, info = gesdd(
        mat, compute_uv=1, full_matrices=0, lwork=lwork, overwrite_a=0
    )
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        if info == -4:
            raise ValueError("A has a NaN entry")
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u @ vt


def _qr_polar(m: np.ndarray) -> np.ndarray:
    """Sign-corrected thin QR as a degraded stand-in for the polar factor."""
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def nearest_orthogonal(m: np.ndarray) -> np.ndarray:
    """Project a matrix onto the set of orthonormal-column matrices.

    For ``m`` of shape ``(p, q)`` with ``p >= q``, returns the maximizer of
    ``tr(Q^T m)`` over ``Q`` with ``Q^T Q = I_q`` — i.e. the orthogonal
    polar factor ``U V^T`` of the thin SVD ``m = U S V^T``.

    Parameters
    ----------
    m : ndarray of shape (p, q)
        Any matrix with ``p >= q``.

    Returns
    -------
    ndarray of shape (p, q)
        The nearest (in Frobenius norm, for full-rank ``m``) matrix with
        orthonormal columns.
    """
    m = check_matrix(m, "m")
    if m.shape[0] < m.shape[1]:
        raise NumericalError(
            f"nearest_orthogonal requires p >= q, got shape {m.shape}"
        )
    p, q = m.shape

    def primary(perturb: float) -> np.ndarray:
        if perturb == 0.0:
            return _thin_svd_polar(m)  # finite: check_matrix checked it
        scale = max(1.0, float(np.max(np.abs(m))))
        # A perturbed copy can overflow: reject it as scipy.linalg.svd does.
        return _thin_svd_polar(
            np.asarray_chkfinite(m + (perturb * scale) * np.eye(p, q))
        )

    return run_with_policy(
        _SITE_SVD,
        primary,
        fallbacks=(("qr", lambda: _qr_polar(m)),),
        context=lambda: matrix_context(m, "m"),
    )


def orthogonal_procrustes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``min_R ||a R - b||_F`` over square orthogonal ``R``.

    Equivalently maximizes ``tr(R^T a^T b)``; the solution is the orthogonal
    polar factor of ``a^T b``.

    Parameters
    ----------
    a : ndarray of shape (n, q)
        Source frame.
    b : ndarray of shape (n, q)
        Target frame; must have the same shape as ``a``.

    Returns
    -------
    ndarray of shape (q, q)
        Orthogonal rotation ``R`` with ``R^T R = I``.
    """
    a = check_matrix(a, "a")
    b = check_matrix(b, "b")
    if a.shape != b.shape:
        raise NumericalError(
            f"a and b must have the same shape, got {a.shape} and {b.shape}"
        )
    return nearest_orthogonal(a.T @ b)
