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
    n_clusters, *, max_iter, weighting, gamma, n_restarts=1, block=1, **counts
) -> None:
    """Validate the hyperparameters every alternating solver shares.

    ``counts`` holds the solver's neighbour counts by name; they, the
    cluster/iteration/restart counts and ``block`` must all be >= 1.
    """
    named = {"n_clusters": n_clusters, "max_iter": max_iter}
    named.update(n_restarts=n_restarts, block=block, **counts)
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
    n_jobs : int or None
        Worker threads for per-view graph construction; ``None`` defers
        to the ambient default of
        :func:`repro.pipeline.parallel.use_jobs` (serial unless
        installed), ``-1`` uses every CPU.  Results are identical for
        any value.
    backend : str or None
        Compute backend for the hot kernels (``"numpy"`` or
        ``"float32"``; see :mod:`repro.backends`).  ``None`` (default)
        defers to the ambient backend (an enclosing
        :class:`~repro.backends.use_backend` block, the
        ``REPRO_BACKEND`` environment variable, or the ``numpy``
        default).  The numpy backend is bit-identical to earlier
        releases; alternates carry a documented tolerance.
    """

    n_clusters: int
    lam: float = 1.0
    consensus: float = 1.0
    gamma: float = 4.0
    weighting: str = "exponential"
    graph: str = "auto"
    n_neighbors: int = 10
    max_iter: int = 50
    tol: float = 1e-6
    gpi_max_iter: int = 50
    gpi_tol: float = 1e-8
    n_jobs: int | None = None
    backend: str | None = None

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
        if self.n_jobs is not None and self.n_jobs != -1 and self.n_jobs < 1:
            raise ValidationError(
                f"n_jobs must be None, -1, or >= 1, got {self.n_jobs}"
            )
        if self.backend is not None:
            from repro.backends import get_backend

            get_backend(self.backend)  # unknown names raise eagerly


#: Drift-ladder actions a streaming model can take between batches.
STREAM_ACTIONS = ("fold_in", "partial_refit", "full_refit")


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs of :class:`~repro.streaming.StreamingMVSC`.

    Attributes
    ----------
    refine_iters : int
        Alternations each cheap fold-in runs after its warm start (see
        :meth:`~repro.core.anchor_model.AnchorMVSC.partial_fit`).
    objective_threshold : float
        Relative objective-shift at which the objective detector demands
        a partial refit (twice the threshold demands a full refit).
        Set <= 0 to disable the detector.
    weight_threshold : float
        Total-variation shift of the normalized view weights at which
        the weight detector demands a partial refit (twice demands a
        full refit).  Set <= 0 to disable the detector.
    hysteresis : float
        Fraction of the firing threshold the severity must fall below
        before a detector re-arms (guards against chattering around the
        threshold).
    cooldown : int
        Batches a detector stays quiet after firing (refits are
        expensive; back-to-back refits on one sustained shift are
        wasted work).
    window : int
        Trailing batches the objective detector averages into its
        baseline.
    """

    refine_iters: int = 2
    objective_threshold: float = 0.25
    weight_threshold: float = 0.15
    hysteresis: float = 0.5
    cooldown: int = 2
    window: int = 8

    def __post_init__(self) -> None:
        if self.refine_iters < 1:
            raise ValidationError(
                f"refine_iters must be >= 1, got {self.refine_iters}"
            )
        if not 0.0 <= self.hysteresis <= 1.0:
            raise ValidationError(
                f"hysteresis must be in [0, 1], got {self.hysteresis}"
            )
        if self.cooldown < 0:
            raise ValidationError(
                f"cooldown must be >= 0, got {self.cooldown}"
            )
        if self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")
