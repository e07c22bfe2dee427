"""Objective evaluation for the unified framework.

The framework optimizes

``J(F, R, Y, w) = tr(F^T L(w) F) + lam ||G(Y) - F R||_F^2``

where ``L(w)`` is the symmetric normalized Laplacian of the *auto-weighted
fused affinity* ``W(w) = sum_v m_v(w) W_v / sum_v m_v(w)`` and
``G(Y) = Y (Y^T Y)^{-1/2}`` is the scaled discrete indicator.  Fusing at the
affinity level (then normalizing the fused graph jointly) empirically
dominates summing per-view normalized Laplacians: joint degree
normalization smooths the degree heterogeneity that per-view normalization
amplifies.

The view-weight update is driven by the per-view spectral costs
``h_v = tr(F^T L_v F)`` (per-view normalized Laplacians), the IRLS device
of this literature: views whose graph the current embedding fits poorly are
down-weighted.  The F/R/Y blocks descend ``J`` exactly for fixed ``w``; the
``w`` step is the standard reweighting heuristic, and the tracked objective
is monotone up to the small w-step perturbation.  :func:`joint_objective`
is the one definition of ``J``; each solver supplies its trace term.
"""

from __future__ import annotations

import numpy as np


def quadratic_trace(a, f: np.ndarray) -> float:
    """``tr(F^T A F)`` of a dense or sparse square ``A``."""
    return float(np.sum(f * (a @ f)))


def spectral_costs(laplacians, f: np.ndarray) -> np.ndarray:
    """Per-view spectral costs ``h_v = tr(F^T L_v F)``, clipped at 0."""
    h = np.array([quadratic_trace(lap, f) for lap in laplacians])
    return np.maximum(h, 0.0)


def disagreement_costs(bases, f: np.ndarray) -> np.ndarray:
    """Per-view disagreement ``c - ||U_v^T F||_F^2``, clipped at 0."""
    c = f.shape[1]
    h = np.array([c - float(np.sum((u.T @ f) ** 2)) for u in bases])
    return np.maximum(h, 0.0)


def joint_objective(trace, f, r, g, *, lam: float) -> np.ndarray:
    """``J = trace + lam ||G - F R||_F^2`` for each ``tr(F^T A(w) F)`` value.

    The residual does not depend on ``w``, so one call scores the traces
    taken under several weights; ``g`` is the scaled indicator ``G(Y)``.
    """
    d = f @ r  # (g - f @ r) ** 2, in place
    np.subtract(g, d, out=d)
    residual = float(np.sum(np.square(d, out=d)))
    return np.asarray(trace, dtype=np.float64) + lam * residual


def umsc_objective(fused_laplacian, f, r, g, *, lam: float) -> float:
    """:func:`joint_objective` with the trace term of a dense operator:
    ``fused_laplacian`` is the ``(n, n)`` ``A(w)``, ``f`` the orthonormal
    ``(n, c)`` embedding, ``r`` the ``(c, c)`` rotation and ``g`` ``G(Y)``."""
    trace = quadratic_trace(fused_laplacian, f)
    return float(joint_objective(trace, f, r, g, lam=lam))
