"""Configuration for the unified framework."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError

#: View-weighting regimes supported by the framework.
WEIGHTING_MODES = ("exponential", "parameter_free", "uniform")

#: Affinity kinds accepted by the graph builder ("auto" picks cosine for
#: sparse non-negative views and self-tuning otherwise).
GRAPH_KINDS = ("auto", "self_tuning", "gaussian", "cosine", "adaptive")


def check_solver_params(
    n_clusters, *, max_iter, weighting, gamma, n_restarts=1, **counts
) -> None:
    """Validate the hyperparameters every alternating solver shares.

    ``counts`` holds the solver's neighbour counts by name; they and the
    cluster/iteration/restart counts must all be >= 1.
    """
    named = {"n_clusters": n_clusters, "max_iter": max_iter}
    named.update(n_restarts=n_restarts, **counts)
    for name, value in named.items():
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    if weighting not in WEIGHTING_MODES:
        raise ValidationError(
            f"weighting must be one of {WEIGHTING_MODES}, got {weighting!r}"
        )
    if weighting == "exponential" and gamma <= 1:
        raise ValidationError(
            f"gamma must be > 1 for exponential weighting, got {gamma}"
        )


@dataclass(frozen=True)
class UMSCConfig:
    """Hyperparameters of :class:`~repro.core.model.UnifiedMVSC`.

    Attributes
    ----------
    n_clusters : int
        Number of clusters ``c``.
    lam : float
        Trade-off ``lambda`` between the spectral term and the
        discretization term ``||Y - F R||_F^2``.
    consensus : float
        Strength ``beta`` of the per-view spectral-consensus term
        ``-beta * sum_v w_v ||U_v^T F||^2`` that rewards agreement between
        the shared embedding and each view's own spectral subspace
        (0 disables it).
    gamma : float
        Weight-smoothing exponent for the ``exponential`` regime; must be
        > 1 (the closed-form weight update requires it).
    weighting : str
        One of :data:`WEIGHTING_MODES`.
    graph : str
        Affinity kind, one of :data:`GRAPH_KINDS`.
    n_neighbors : int
        k-NN graph sparsification / local-scaling parameter.
    max_iter : int
        Outer alternation cap.
    tol : float
        Relative objective-change stopping tolerance.
    gpi_max_iter : int
        Inner GPI iteration cap for the embedding update.
    gpi_tol : float
        Inner GPI tolerance.

    Execution settings (backend, worker count, cache) are not
    hyperparameters: they come from the run context
    (:mod:`repro.context`) and never change a result beyond a
    backend's documented tolerance.
    """

    n_clusters: int
    lam: float = 1.0
    consensus: float = 1.0
    gamma: float = 2.0
    weighting: str = "exponential"
    graph: str = "auto"
    n_neighbors: int = 10
    max_iter: int = 50
    tol: float = 1e-6
    gpi_max_iter: int = 50
    gpi_tol: float = 1e-8

    def __post_init__(self) -> None:
        check_solver_params(
            self.n_clusters,
            max_iter=self.max_iter,
            weighting=self.weighting,
            gamma=self.gamma,
            n_neighbors=self.n_neighbors,
        )
        if self.lam < 0:
            raise ValidationError(f"lam must be non-negative, got {self.lam}")
        if self.consensus < 0:
            raise ValidationError(
                f"consensus must be non-negative, got {self.consensus}"
            )
        if self.graph not in GRAPH_KINDS:
            raise ValidationError(
                f"graph must be one of {GRAPH_KINDS}, got {self.graph!r}"
            )
        if self.tol <= 0 or self.gpi_tol <= 0:
            raise ValidationError("tolerances must be positive")
        if self.gpi_max_iter < 1:
            raise ValidationError(
                f"gpi_max_iter must be >= 1, got {self.gpi_max_iter}"
            )
