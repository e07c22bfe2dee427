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
is monotone up to the small w-step perturbation.
"""

from __future__ import annotations

import numpy as np


def spectral_costs(laplacians, f: np.ndarray) -> np.ndarray:
    """Per-view spectral costs ``h_v = tr(F^T L_v F)``, clipped at 0."""
    h = np.array([float(np.sum(f * (lap @ f))) for lap in laplacians])
    return np.maximum(h, 0.0)


def disagreement_costs(bases, f: np.ndarray) -> np.ndarray:
    """Per-view disagreement ``c - ||U_v^T F||_F^2``, clipped at 0."""
    c = f.shape[1]
    h = np.array([c - float(np.sum((u.T @ f) ** 2)) for u in bases])
    return np.maximum(h, 0.0)


def umsc_objective(
    fused_laplacian: np.ndarray,
    f: np.ndarray,
    r: np.ndarray,
    g: np.ndarray,
    *,
    lam: float,
) -> float:
    """Objective value at the current iterate.

    Parameters
    ----------
    fused_laplacian : ndarray of shape (n, n)
        Symmetric normalized Laplacian of the weighted fused affinity.
    f : ndarray of shape (n, c)
        Orthonormal embedding.
    r : ndarray of shape (c, c)
        Orthogonal rotation.
    g : ndarray of shape (n, c)
        *Scaled* indicator ``Y (Y^T Y)^{-1/2}``.
    lam : float
        Discretization trade-off.
    """
    spectral = float(np.sum(f * (fused_laplacian @ f)))
    residual = float(np.sum((g - f @ r) ** 2))
    return spectral + lam * residual
