"""Generalized power iteration (GPI) on the Stiefel manifold.

The embedding update of the unified framework is a quadratic problem with
orthogonality constraints (QPOC):

``min_F  tr(F^T A F) - 2 tr(F^T B)    s.t.  F^T F = I_k``

with symmetric ``A`` (a fused graph Laplacian) and an ``(n, k)`` linear term
``B`` (the rotated indicator target).  Nie, Zhang & Li (IJCAI 2017) showed
the iteration

``M <- 2 (eta I - A) F + 2 B ;  F <- polar(M)``

is monotonically non-increasing in the objective whenever
``eta >= lambda_max(A)``, because ``eta I - A`` is then positive
semidefinite.  This module implements that iteration with a convergence
check on the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import current_backend
from repro.exceptions import NumericalError, ValidationError
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.trace import hot_span, metric_observe
from repro.robust.faults import maybe_inject, register_fault_site
from repro.utils.validation import check_matrix, check_symmetric

_SITE_ITERATE = register_fault_site(
    "gpi.iterate", "one generalized power iteration step (M = 2(eta I - A)F + 2B)"
)


@dataclass(frozen=True)
class GPIResult:
    """Outcome of a generalized power iteration run.

    Attributes
    ----------
    f : ndarray of shape (n, k)
        Orthonormal minimizer found.
    objective : float
        Final value of ``tr(F^T A F) - 2 tr(F^T B)``.
    n_iter : int
        Iterations performed.
    converged : bool
        Whether the relative objective change fell below tolerance.
    history : list of float
        Objective value after every iteration.
    """

    f: np.ndarray
    objective: float
    n_iter: int
    converged: bool
    history: list = field(default_factory=list)


def _qpoc_objective(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> float:
    return float(np.trace(f.T @ a @ f) - 2.0 * np.trace(f.T @ b))


def gpi_stiefel(
    a: np.ndarray,
    b: np.ndarray,
    f0: np.ndarray,
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> GPIResult:
    """Minimize ``tr(F^T A F) - 2 tr(F^T B)`` over ``F^T F = I``.

    The shift ``eta`` making ``eta I - A`` PSD is the infinity-norm
    (Gershgorin) bound on ``lambda_max(A)``, so no eigendecomposition is
    needed.

    Parameters
    ----------
    a : ndarray of shape (n, n)
        Symmetric quadratic term.
    b : ndarray of shape (n, k)
        Linear term; its column count sets the Stiefel dimension ``k``.
    f0 : ndarray of shape (n, k)
        Warm start with orthonormal columns.
    max_iter : int
        Iteration cap.
    tol : float
        Relative objective-change stopping tolerance.

    Returns
    -------
    GPIResult
    """
    a = check_symmetric(a, "a")
    b = check_matrix(b, "b")
    n, k = b.shape
    if a.shape[0] != n:
        raise ValidationError(
            f"a and b disagree on n: a is {a.shape[0]}x{a.shape[0]}, b has {n} rows"
        )
    if k > n:
        raise ValidationError(f"Stiefel dimension k={k} exceeds n={n}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")

    # Gershgorin bound: lambda_max(A) <= max_i sum_j |A_ij|.
    eta = max(float(np.max(np.sum(np.abs(a), axis=1))), 1e-12)
    f = check_matrix(f0, "f0")
    if f.shape != (n, k):
        raise ValidationError(f"f0 must have shape ({n}, {k}), got {f.shape}")

    backend = current_backend()
    # The per-iteration GEMMs run in the backend's compute dtype; the
    # polar factor (nearest_orthogonal) stays a float64 SVD for
    # robustness, so the iterate is re-prepared after each projection.
    shifted = backend.prepare(eta * np.eye(n) - a)
    a_c = backend.prepare(a)
    b_c = backend.prepare(b)
    f = backend.prepare(f)
    history: list[float] = []
    prev = _qpoc_objective(a_c, b_c, f)
    converged = False
    n_iter = 0
    with hot_span("gpi", n=n, k=k, backend=backend.name) as gpi_span:
        for n_iter in range(1, max_iter + 1):
            m = maybe_inject(_SITE_ITERATE, 2.0 * (shifted @ f) + 2.0 * b_c)
            if not np.all(np.isfinite(m)):
                raise NumericalError("GPI produced non-finite iterate")
            f = backend.prepare(nearest_orthogonal(m))
            obj = _qpoc_objective(a_c, b_c, f)
            history.append(obj)
            denom = max(abs(prev), 1e-12)
            if abs(prev - obj) / denom < tol:
                converged = True
                break
            prev = obj
        gpi_span.set(n_iter=n_iter, converged=converged)
    metric_observe("gpi.inner_iterations", n_iter)

    return GPIResult(
        f=np.asarray(f, dtype=np.float64),
        objective=history[-1] if history else prev,
        n_iter=n_iter,
        converged=converged,
        history=history,
    )
