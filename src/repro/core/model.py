"""The unified one-stage multi-view spectral clustering model (UMSC).

Solves

``min_{F,R,Y,w}  tr(F^T L(w) F) - beta sum_v m_v(w) ||U_v^T F||_F^2
                 + lam ||G(Y) - F R||_F^2``

where ``L(w)`` is the symmetric normalized Laplacian of the auto-weighted
fused affinity, ``U_v`` is view ``v``'s own spectral basis (bottom-``c``
eigenvectors of its normalized Laplacian, computed once), and
``G(Y) = Y (Y^T Y)^{-1/2}`` is the scaled discrete indicator (so the terms
live on comparable scales), subject to ``F^T F = I``, ``R^T R = I``, ``Y``
a cluster indicator matrix with no empty cluster, and ``w`` in the chosen
weighting regime.

The three ingredients the abstract's "unified" scheme integrates in one
stage: graph fusion (the ``L(w)`` term), per-view spectral consensus (the
``beta`` term — agreement between the shared embedding and each view's own
spectral subspace), and discrete indicator learning (the ``lam`` term —
the clustering is read off ``Y`` with no K-means).

Block coordinate descent; the F/R/Y blocks descend the objective exactly or
by a monotone inner solver, and the ``w`` block is the closed-form IRLS
reweighting of this literature (see :mod:`repro.core.objective`):

* ``F`` — generalized power iteration on the Stiefel manifold;
* ``R`` — orthogonal Procrustes (closed form);
* ``Y`` — coordinate descent with incremental column statistics (exact,
  monotone, never empties a cluster);
* ``w`` — closed form from the per-view spectral costs.

The final clustering is read directly off ``Y``: *no K-means stage
anywhere*, which is the paper's headline contribution.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.cluster.labels import indicator_from_labels
from repro.core.alternation import SITE_FIT, alternate, fit_start
from repro.core.config import UMSCConfig
from repro.core.discrete import rotation_initialize
from repro.core.graph_builder import build_laplacians, build_multiview_affinities
from repro.core.objective import (
    disagreement_costs,
    quadratic_trace,
    spectral_costs,
)
from repro.core.persistence import ServableModelMixin
from repro.core.result import UMSCResult
from repro.core.weights import fusion_multipliers, weighted_sum
from repro.exceptions import ValidationError
from repro.graph.laplacian import _degrees, _laplacian
from repro.linalg.eigen import eigsh_smallest
from repro.linalg.gpi import gpi_stiefel
from repro.observability.events import FitDiagnostics
from repro.observability.trace import current_trace, metric_set, span
from repro.linalg.procrustes import nearest_orthogonal
from repro.robust.faults import maybe_inject, register_fault_site
from repro.robust.policy import (
    collect_recoveries,
    failure_guard,
    matrix_context,
    run_with_policy,
)
from repro.utils.rng import check_random_state
from repro.utils.validation import check_symmetric

_SITE_GPI_SOLVE = register_fault_site(
    "gpi.solve", "full F-step GPI solve (falls back to a plain eigensolve)"
)


class UnifiedMVSC(ServableModelMixin):
    """Unified (one-stage) multi-view spectral clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters ``c``.
    lam : float
        Trade-off between the fused spectral term and the discretization
        term.  ``lam = 0`` degenerates into spectral rotation on the fused
        embedding (the embedding never feels the discrete labels).
    consensus : float
        Strength ``beta`` of the per-view spectral-consensus reward
        (0 disables; moderate values recover much of centroid
        co-regularization's robustness inside the one-stage scheme).
    gamma : float
        Weight-smoothing exponent (> 1) for the ``exponential`` regime;
        smaller values sharpen the view weighting.
    weighting : {"exponential", "parameter_free", "uniform"}
        View-weighting regime.
    graph : {"auto", "self_tuning", "gaussian", "cosine", "adaptive"}
        Affinity construction for :meth:`fit`; ignored by
        :meth:`fit_affinities`.
    n_neighbors : int
        Graph neighborhood size.
    max_iter : int
        Outer alternation cap.
    tol : float
        Relative objective-change stopping tolerance.
    n_restarts : int
        Random-rotation restarts in the initialization (the K-means-free
        analogue of discretization restarts).
    random_state : int, Generator, or None
        Seeds the rotation initialization (the only stochastic step).
    callbacks : sequence of FitCallback, optional
        Listeners receiving one structured
        :class:`~repro.observability.events.IterationEvent` per outer
        iteration (plus fit start/end hooks).  Iteration events also
        flow to the contextvar-active trace, if any; see
        :mod:`repro.observability`.

    Examples
    --------
    >>> from repro.datasets import make_multiview_blobs
    >>> ds = make_multiview_blobs(120, 3, view_dims=(10, 15), random_state=0)
    >>> model = UnifiedMVSC(n_clusters=3, random_state=0)
    >>> result = model.fit(ds.views)
    >>> sorted(set(result.labels.tolist()))
    [0, 1, 2]
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        lam: float = 1.0,
        consensus: float = 1.0,
        gamma: float = 2.0,
        weighting: str = "exponential",
        graph: str = "auto",
        n_neighbors: int = 10,
        max_iter: int = 50,
        tol: float = 1e-6,
        gpi_max_iter: int = 50,
        gpi_tol: float = 1e-8,
        n_restarts: int = 10,
        random_state=None,
        callbacks=(),
    ) -> None:
        self.config = UMSCConfig(
            n_clusters=n_clusters,
            lam=lam,
            consensus=consensus,
            gamma=gamma,
            weighting=weighting,
            graph=graph,
            n_neighbors=n_neighbors,
            max_iter=max_iter,
            tol=tol,
            gpi_max_iter=gpi_max_iter,
            gpi_tol=gpi_tol,
        )
        # UMSCConfig checked every other hyperparameter.
        if n_restarts < 1:
            raise ValidationError(
                f"n_restarts must be >= 1, got {n_restarts}"
            )
        self.n_restarts = int(n_restarts)
        self.random_state = random_state
        self.callbacks = tuple(callbacks)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"{type(self).__name__}(n_clusters={cfg.n_clusters}, "
            f"lam={cfg.lam}, consensus={cfg.consensus}, "
            f"gamma={cfg.gamma}, weighting={cfg.weighting!r}, "
            f"graph={cfg.graph!r}, n_neighbors={cfg.n_neighbors}, "
            f"max_iter={cfg.max_iter}, tol={cfg.tol}, "
            f"n_restarts={self.n_restarts})"
        )

    def _serving_config(self) -> dict:
        return {**asdict(self.config), "n_restarts": self.n_restarts}

    def fit(self, views) -> UMSCResult:
        """Cluster raw multi-view features.

        Builds one graph per view with the configured recipe, then runs the
        unified optimization.

        Parameters
        ----------
        views : sequence of ndarray (n, d_v)
            Per-view feature matrices sharing rows.
        """
        cfg = self.config
        with collect_recoveries(), failure_guard(SITE_FIT):
            with span("graph_build", kind=cfg.graph, n_views=len(views)):
                affinities = build_multiview_affinities(
                    views, kind=cfg.graph, n_neighbors=cfg.n_neighbors
                )
            result = self.fit_affinities(affinities)
        self._remember_fit(
            views,
            result.labels,
            result.view_weights,
            cfg.n_clusters,
            cfg.n_neighbors,
        )
        return result

    def fit_predict(self, views) -> np.ndarray:
        """Convenience: :meth:`fit` and return only the labels."""
        return self.fit(views).labels

    def fit_affinities(self, affinities) -> UMSCResult:
        """Run the unified optimization on precomputed per-view affinities.

        Parameters
        ----------
        affinities : sequence of ndarray (n, n)
            Symmetric non-negative per-view affinity matrices.

        Raises
        ------
        ReproError
            The only exception surface: invalid input raises
            :class:`~repro.exceptions.ValidationError`, and numerical
            failure that survives every recovery strategy raises
            :class:`~repro.exceptions.RecoveryExhaustedError` — a raw
            numpy/scipy exception never escapes.  Recovery actions taken
            along the way are recorded on ``result.diagnostics.recoveries``.
        """
        with collect_recoveries() as recoveries, failure_guard(SITE_FIT):
            maybe_inject(SITE_FIT)
            return self._fit_affinities(affinities, recoveries)

    def _fit_affinities(self, affinities, recoveries: list) -> UMSCResult:
        """Body of :meth:`fit_affinities`, run under the failure guard."""
        cfg = self.config
        c = cfg.n_clusters
        rng = check_random_state(self.random_state)
        rep = _DenseAffinities.build(
            affinities,
            cfg,
            on_start=lambda n, n_views: fit_start(
                type(self).__name__, self.callbacks, n, n_views, c
            ),
        )
        n, n_views = rep.affinities[0].shape[0], len(rep.affinities)

        # --- Initialization -------------------------------------------------
        with span("initialize", n_restarts=self.n_restarts):
            w = np.full(n_views, 1.0 / n_views)
            fused_lap = rep.operator(w)
            _, f = eigsh_smallest(fused_lap, c)
            r, labels = rotation_initialize(
                f, c, n_restarts=self.n_restarts, random_state=rng
            )
            if current_trace() is not None and c + 1 <= n:
                # Numerical-health probe: the spectral gap behind the
                # embedding (lambda_{c+1} - lambda_c of the fused
                # operator).  One extra eigensolve, taken only under an
                # active trace; the fit state is untouched.
                gap_values, _ = eigsh_smallest(fused_lap, c + 1)
                metric_set(
                    "health.eigengap", float(gap_values[-1] - gap_values[-2])
                )

        # Restarted (R, Y) pairs only while the labels are still mobile.
        run = alternate(
            rep,
            solver=type(self).__name__,
            w=w,
            max_iter=cfg.max_iter,
            callbacks=self.callbacks,
            labels=labels,
            f=f,
            r=r,
            rng=rng,
            restart_iters=2,
        )
        return UMSCResult(
            labels=run.labels,
            indicator=indicator_from_labels(run.labels, c),
            embedding=run.embedding,
            rotation=run.rotation,
            view_weights=run.weights,
            objective_history=[e.objective for e in run.events],
            n_iter=run.n_iter,
            converged=run.converged,
            diagnostics=FitDiagnostics(
                events=run.events, recoveries=tuple(recoveries)
            ),
        )


class _DenseAffinities:
    """Dense affinities: UMSC's :func:`alternate` input.

    The operator ``A(w) = L(W(w)) - beta sum_v m_v U_v U_v^T`` is cached
    for the last ``w``, so the F-step reuses the one the post-reweight
    objective built.
    """

    stopping = "objective"

    def __init__(self, affinities, laplacians, bases, config: UMSCConfig):
        self.affinities = affinities
        self.laplacians = laplacians
        self.bases = bases
        self.config = config
        self.n_clusters = config.n_clusters
        self.lam, self.tol = config.lam, config.tol
        self.weighting, self.gamma = config.weighting, config.gamma
        self._w: np.ndarray | None = None
        self._operator: np.ndarray | None = None

    @classmethod
    def build(cls, affinities, config: UMSCConfig, on_start=None):
        """Validate the affinities, then build the view Laplacians and bases.

        ``on_start(n, n_views)`` runs between the validation and the
        Laplacian build.  Per-view Laplacians drive the weight update
        and supply the spectral bases of the consensus term.
        """
        affinities = [
            check_symmetric(w, f"affinities[{i}]") for i, w in enumerate(affinities)
        ]
        if not affinities:
            raise ValidationError("affinities must be non-empty")
        n, n_views, c = affinities[0].shape[0], len(affinities), config.n_clusters
        if c > n:
            raise ValidationError(f"n_clusters={c} exceeds n_samples={n}")
        if on_start is not None:
            on_start(n, n_views)
        with span("view_laplacians", n_views=n_views):
            laplacians = build_laplacians(affinities)
        bases = []
        if config.consensus > 0:
            with span("view_bases", n_views=n_views, k=c):
                bases = [eigsh_smallest(lap, c)[1] for lap in laplacians]
        return cls(affinities, laplacians, bases, config)

    def operator(self, w: np.ndarray) -> np.ndarray:
        """``A(w)``, symmetric and possibly indefinite.

        :meth:`build` checked and symmetrized every affinity and the
        multipliers are non-negative, so ``W(w)`` is exactly symmetric
        and non-negative: the Laplacian runs unchecked (DESIGN.md,
        "Validation boundary").  The cache keys on a copy of ``w``, so
        a caller that updates its array in place gets a rebuild.
        """
        if not np.array_equal(w, self._w):
            cfg = self.config
            multipliers = fusion_multipliers(
                w, mode=self.weighting, gamma=self.gamma
            )
            fused = weighted_sum(self.affinities, multipliers)
            operator = _laplacian(fused, _degrees(fused), "symmetric")
            if cfg.consensus > 0:
                for m_v, u in zip(multipliers, self.bases):
                    operator -= cfg.consensus * m_v * (u @ u.T)
            self._w = np.array(w, dtype=np.float64)
            self._operator = (operator + operator.T) / 2.0
        return self._operator

    def embed(self, w, f, g, r) -> tuple[np.ndarray, int | None]:
        """F-step under the failure policy: GPI, retried, then eigensolve.

        The primary is the plain GPI solve (bit-identical to calling
        :func:`~repro.linalg.gpi.gpi_stiefel` directly); retries re-run it
        from a deterministically perturbed warm start, and the fallback
        drops the linear coupling term and takes the bottom eigenvectors
        of the fused operator (the ``lam = 0`` subproblem), which always
        yields a feasible Stiefel point.  With ``lam = 0`` that
        eigensolve is the F-step.  The inner iteration count is ``None``
        when the eigensolve produced ``f``.
        """
        cfg = self.config
        operator = self.operator(w)

        def eigensolve() -> tuple[np.ndarray, int | None]:
            return eigsh_smallest(operator, self.n_clusters)[1], None

        def primary(perturb: float) -> tuple[np.ndarray, int | None]:
            f0 = f if perturb == 0.0 else nearest_orthogonal(
                f + perturb * np.eye(*f.shape)
            )
            gpi = gpi_stiefel(
                operator,
                cfg.lam * (g @ r.T),
                f0=f0,
                max_iter=cfg.gpi_max_iter,
                tol=cfg.gpi_tol,
            )
            return gpi.f, gpi.n_iter

        if not cfg.lam > 0:
            return eigensolve()
        return run_with_policy(
            _SITE_GPI_SOLVE,
            primary,
            fallbacks=(("eigsh", eigensolve),),
            context=lambda: matrix_context(operator, "fused_lap"),
        )

    def view_costs(self, f: np.ndarray) -> np.ndarray:
        """Spectral cost plus consensus disagreement per view."""
        h = spectral_costs(self.laplacians, f)
        if self.config.consensus > 0:
            h = h + self.config.consensus * disagreement_costs(self.bases, f)
        return h

    def trace(self, w, f) -> float:
        return quadratic_trace(self.operator(w), f)
