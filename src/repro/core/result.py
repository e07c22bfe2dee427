"""Result type returned by the unified framework."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.observability.events import FitDiagnostics


@dataclass(frozen=True, repr=False)
class UMSCResult:
    """Everything a UMSC fit produces.

    Attributes
    ----------
    labels : ndarray of int64, shape (n,)
        Final clustering, read directly off the discrete indicator ``Y``
        (no K-means anywhere).
    indicator : ndarray of shape (n, c)
        The learned discrete cluster indicator matrix ``Y`` (one-hot rows).
    embedding : ndarray of shape (n, c)
        The shared continuous spectral embedding ``F`` (orthonormal
        columns).
    rotation : ndarray of shape (c, c)
        The learned orthogonal rotation ``R``.
    view_weights : ndarray of shape (V,)
        Final view weights ``w``.
    objective_history : list of float
        Objective after every outer iteration (monotone non-increasing).
    n_iter : int
        Outer iterations performed.
    converged : bool
        Whether the relative objective change fell below tolerance.
    diagnostics : FitDiagnostics or None
        Per-iteration instrumentation record (one
        :class:`~repro.observability.events.IterationEvent` per outer
        iteration: pre-reweighting objective, GPI inner iterations,
        label moves, view weights; block times are trace spans).  Always recorded
        by :class:`~repro.core.model.UnifiedMVSC`.
    """

    labels: np.ndarray
    indicator: np.ndarray
    embedding: np.ndarray
    rotation: np.ndarray
    view_weights: np.ndarray
    objective_history: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False
    diagnostics: FitDiagnostics | None = None

    @property
    def objective(self) -> float:
        """Final objective value."""
        return self.objective_history[-1] if self.objective_history else float("nan")

    def __repr__(self) -> str:
        weights = "[" + ", ".join(
            f"{float(w):.3f}" for w in np.asarray(self.view_weights).ravel()
        ) + "]"
        return (
            f"{type(self).__name__}(n_samples={self.labels.shape[0]}, "
            f"n_clusters={self.indicator.shape[1]}, "
            f"n_iter={self.n_iter}, converged={self.converged}, "
            f"objective={self.objective:.6g}, view_weights={weights})"
        )
