"""Extremal eigenpair solvers for symmetric matrices.

Spectral clustering needs the ``k`` smallest eigenvectors of a graph
Laplacian (or the ``k`` largest of a normalized affinity).  For the problem
sizes of the paper's benchmarks (n up to a few thousand) a dense ``eigh`` is
both the fastest and the most robust choice; for larger sparse problems we
fall back to Lanczos (:func:`scipy.sparse.linalg.eigsh`).

Every solve runs under the unified failure policy
(:func:`repro.robust.policy.run_with_policy`): a failing solve is retried
with a deterministic diagonal shift (eigenvectors are unchanged and the
shift is subtracted from the eigenvalues, so a successful retry is exact),
a Lanczos run that still fails falls back to the dense path — counted via
the ``eigsh.arpack_fallback`` metric — and only a fully exhausted policy
raises :class:`~repro.exceptions.RecoveryExhaustedError` (a
:class:`~repro.exceptions.NumericalError`).  The registered fault sites
``eigen.full``, ``eigen.dense``, and ``eigen.lanczos`` let tests inject
failures at each path (see :mod:`repro.robust`).

All three entry points are pure functions of their inputs, so they
memoize through the ambient :mod:`repro.pipeline` cache when one is
active (keyed on the matrix bytes, ``k``, and which end of the spectrum);
cached results are bit-identical to direct computation.

The primary paths — dense LAPACK *and* the sparse ARPACK Lanczos solve —
cast their operand to the active backend's compute dtype
(:meth:`~repro.backends.ArrayBackend.prepare` for dense matrices,
``astype`` for sparse ones) and call scipy directly, so a float32
backend solves in single precision; every path hands back float64
pairs.  The fallbacks stay plain float64 — robustness recovery is
precision-sensitive, and a fallback must not share the failure mode of
the path it rescues.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from repro.backends import current_backend
from repro.exceptions import NumericalError, ValidationError
from repro.observability.trace import hot_span, metric_inc
from repro.pipeline.cache import current_cache
from repro.robust.faults import register_fault_site
from repro.robust.policy import matrix_context, run_with_policy
from repro.utils.validation import check_square

#: Above this dimension, prefer Lanczos when k << n and the matrix is sparse.
_DENSE_CUTOFF = 4096

_SITE_FULL = register_fault_site(
    "eigen.full", "full dense eigendecomposition (sorted_eigh)"
)
_SITE_DENSE = register_fault_site(
    "eigen.dense", "dense extremal eigenpairs (LAPACK subset eigh)"
)
_SITE_LANCZOS = register_fault_site(
    "eigen.lanczos", "sparse Lanczos extremal eigenpairs (ARPACK eigsh)"
)


def _shift_scale(a) -> float:
    """Deterministic magnitude for perturbed-retry diagonal shifts."""
    if scipy.sparse.issparse(a):
        peak = float(abs(a).max()) if a.nnz else 0.0
    else:
        peak = float(np.max(np.abs(a))) if a.size else 0.0
    return max(1.0, peak)


def _float64_pairs(values, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs as float64, whatever dtype the solver computed in."""
    return (
        np.asarray(values, dtype=np.float64),
        np.asarray(vectors, dtype=np.float64),
    )


def sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix, ascending eigenvalues.

    Parameters
    ----------
    a : ndarray of shape (n, n)
        Symmetric matrix (symmetrized internally to guard against roundoff).

    Returns
    -------
    (values, vectors)
        ``values`` ascending, ``vectors[:, i]`` the eigenvector of
        ``values[i]``.
    """
    a = check_square(a, "a")
    cache = current_cache()
    if cache is not None:
        return cache.memoize(
            "sorted_eigh", (a,), {}, lambda: _sorted_eigh(a)
        )
    return _sorted_eigh(a)


def _sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = (a + a.T) / 2.0
    n = sym.shape[0]

    def primary(perturb: float) -> tuple[np.ndarray, np.ndarray]:
        shift = perturb * _shift_scale(sym)
        mat = sym if shift == 0.0 else sym + shift * np.eye(n)
        values, vectors = _float64_pairs(
            *scipy.linalg.eigh(current_backend().prepare(mat))
        )
        if shift != 0.0:
            values = values - shift
        if not np.all(np.isfinite(values)):
            raise NumericalError(
                "eigendecomposition produced non-finite eigenvalues"
            )
        return values, vectors

    return run_with_policy(
        _SITE_FULL, primary, context=lambda: matrix_context(sym, "a")
    )


def _validate_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")


def _lanczos(a, k: int, *, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Sparse Lanczos under the failure policy, dense path as fallback."""
    n = a.shape[0]
    label = "smallest" if which == "SA" else "largest"

    def primary(perturb: float) -> tuple[np.ndarray, np.ndarray]:
        backend = current_backend()
        shift = perturb * _shift_scale(a)
        mat = a if shift == 0.0 else a + shift * scipy.sparse.identity(n)
        metric_inc("eigsh.calls")
        with hot_span(
            "eigsh", n=n, k=k, which=label, path="lanczos",
            backend=backend.name,
        ):
            work = mat.astype(backend.compute_dtype, copy=False)
            # A fixed start vector, seeded like the anchor path's probe:
            # without v0 ARPACK draws one from OS entropy, and two
            # solves of one matrix can differ.
            v0 = np.random.default_rng(0).standard_normal(n)
            values, vectors = _float64_pairs(
                *scipy.sparse.linalg.eigsh(
                    work, k=k, which=which, v0=v0.astype(work.dtype)
                )
            )
        if shift != 0.0:
            values = values - shift
        return values, vectors

    def dense() -> tuple[np.ndarray, np.ndarray]:
        metric_inc("eigsh.arpack_fallback")
        mat = np.asarray(a.todense())
        if which == "SA":
            return _dense_extremal(mat, k, smallest=True)
        values, vectors = _dense_extremal(mat, k, smallest=False)
        return values[::-1], vectors[:, ::-1]

    return run_with_policy(
        _SITE_LANCZOS,
        primary,
        fallbacks=(("dense", dense),),
        context=lambda: matrix_context(a, "a"),
    )


def _dense_extremal(
    a: np.ndarray, k: int, *, smallest: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` extremal eigenpairs of a dense symmetric matrix, ascending."""
    a = check_square(a, "a")
    n = a.shape[0]
    sym = (a + a.T) / 2.0
    subset = (0, k - 1) if smallest else (n - k, n - 1)
    label = "smallest" if smallest else "largest"

    def primary(perturb: float) -> tuple[np.ndarray, np.ndarray]:
        backend = current_backend()
        shift = perturb * _shift_scale(sym)
        mat = sym if shift == 0.0 else sym + shift * np.eye(n)
        metric_inc("eigsh.calls")
        with hot_span(
            "eigsh", n=n, k=k, which=label, path="dense", backend=backend.name
        ):
            work = backend.prepare(mat)
            values, vectors = _float64_pairs(
                *scipy.linalg.eigh(work, subset_by_index=subset)
            )
        if shift != 0.0:
            values = values - shift
        if not np.all(np.isfinite(values)):
            raise NumericalError(
                "eigendecomposition produced non-finite eigenvalues"
            )
        return values, vectors

    def full() -> tuple[np.ndarray, np.ndarray]:
        # Different LAPACK driver (full spectrum, then slice): survives
        # the occasional subset-driver failure and any injected fault on
        # the primary path.
        values, vectors = scipy.linalg.eigh(sym)
        lo, hi = subset
        return values[lo : hi + 1], vectors[:, lo : hi + 1]

    return run_with_policy(
        _SITE_DENSE,
        primary,
        fallbacks=(("full", full),),
        context=lambda: matrix_context(sym, "a"),
    )


def _eigsh_smallest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    if scipy.sparse.issparse(a):
        n = a.shape[0]
        if k >= n - 1 or n <= _DENSE_CUTOFF:
            return _eigsh_smallest(np.asarray(a.todense()), k)
        values, vectors = _lanczos(a, k, which="SA")
        order = np.argsort(values)
        return values[order], vectors[:, order]
    return _dense_extremal(a, k, smallest=True)


def _eigsh_largest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    if scipy.sparse.issparse(a):
        n = a.shape[0]
        if k >= n - 1 or n <= _DENSE_CUTOFF:
            return _eigsh_largest(np.asarray(a.todense()), k)
        values, vectors = _lanczos(a, k, which="LA")
        order = np.argsort(values)[::-1]
        return values[order], vectors[:, order]
    values, vectors = _dense_extremal(a, k, smallest=False)
    return values[::-1], vectors[:, ::-1]


def eigsh_smallest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` algebraically smallest eigenpairs of a symmetric matrix.

    Accepts dense arrays or scipy sparse matrices.  Dense path uses LAPACK's
    ``eigh`` with an index subset; the sparse path uses shift-invert-free
    Lanczos with ``sigma=None, which='SA'`` and falls back to the dense
    path if ARPACK fails to converge (via the unified failure policy).

    Returns
    -------
    (values, vectors)
        ``values`` ascending, shape ``(k,)``; ``vectors`` shape ``(n, k)``.
    """
    _validate_k(a.shape[0], k)
    cache = current_cache()
    if cache is not None:
        return cache.memoize(
            "eigsh",
            (a,),
            {"k": int(k), "which": "smallest"},
            lambda: _eigsh_smallest(a, k),
        )
    return _eigsh_smallest(a, k)


def eigsh_largest(a, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` algebraically largest eigenpairs of a symmetric matrix.

    Returns
    -------
    (values, vectors)
        ``values`` descending, shape ``(k,)``; ``vectors`` shape ``(n, k)``.
    """
    _validate_k(a.shape[0], k)
    cache = current_cache()
    if cache is not None:
        return cache.memoize(
            "eigsh",
            (a,),
            {"k": int(k), "which": "largest"},
            lambda: _eigsh_largest(a, k),
        )
    return _eigsh_largest(a, k)
