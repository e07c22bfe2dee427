"""The F→R→Y→w alternation every one-stage solver runs.

:func:`alternate` iterates the unified framework's blocks — fused
embedding ``F``, rotation ``R``, discrete indicator ``Y``, view weights
``w`` — with no K-means.  The solvers differ only in how the per-view
graphs are stored, so each passes a *representation*:

``embed(w, f, g, r) -> (F, gpi_iterations)``
    The F-step under ``w``; ``f``, ``g = G(Y)`` and ``r`` are the
    previous iterate (``None`` before a cold start), used only by a
    coupled F-step.  ``gpi_iterations`` is ``None`` unless GPI ran.
``view_costs(F) -> h``
    Non-negative per-view costs for the closed-form w-step.
``trace(w, F) -> float``
    ``tr(F^T A(w) F)``, the trace term of the objective ``J``
    (:func:`~repro.core.objective.joint_objective`, residual weight
    ``lam``), recorded under the weights before and after each w-step.
``n_clusters``, ``weighting``, ``gamma``, ``lam``
    The fusion regime: ``embed`` fuses and the w-step reweights under it.
``stopping``
    ``"objective"`` stops on relative change of ``J`` below the
    representation's ``tol`` and warns when ``J`` rises or ``max_iter``
    ends the loop; ``"weights"`` stops once the weights stop moving,
    with no warning, and needs no ``tol``.

The loop owns the rest: cold-start rotation, Procrustes R-step,
coordinate-descent Y-step, the early restarted (R, Y) pairs, w-step,
stopping rule, health probes, and one span per block (tagged with the
iteration) that times it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.discrete import (
    _scaled_indicator,
    indicator_coordinate_descent,
    rotation_initialize,
    rotation_objective,
    scaled_indicator,
)
from repro.core.objective import joint_objective
from repro.core.weights import update_view_weights, weight_entropy
from repro.exceptions import (
    ConvergenceWarning,
    MonotonicityWarning,
    RecoveryExhaustedError,
)
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.events import IterationEvent, dispatch_event
from repro.observability.trace import current_trace, metric_set, span
from repro.robust.faults import register_fault_site
from repro.robust.policy import matrix_context

SITE_FIT = register_fault_site(
    "model.fit",
    "whole UnifiedMVSC/AnchorMVSC/SparseMVSC fit body (outer guard)",
    modes=("raise", "delay"),
)


@dataclass(frozen=True)
class Alternation:
    """Final iterate and record of one :func:`alternate` run."""

    labels: np.ndarray
    embedding: np.ndarray
    rotation: np.ndarray
    weights: np.ndarray
    costs: np.ndarray
    events: tuple
    n_iter: int
    converged: bool


def fit_start(solver: str, callbacks, n: int, n_views: int, c: int, **extra):
    """Dispatch ``on_fit_start`` with the problem's shape (plus ``extra``)."""
    info = dict(solver=solver, n_samples=n, n_views=n_views, n_clusters=c)
    dispatch_event(callbacks, "on_fit_start", {**info, **extra})


def _best_rotation_pair(f, r, labels, c: int, rng):
    """Keep the better of the current ``(R, Y)`` and a fresh restart.

    For fixed ``F``, the (R, Y) blocks enter the objective only through
    ``-2 lam tr(R^T F^T G(Y))``, so comparing
    :func:`~repro.core.discrete.rotation_objective` values picks the
    pair with the lower joint objective.
    """
    current = rotation_objective(f @ r, labels, c)
    cand_r, cand_labels = rotation_initialize(
        f, c, n_restarts=3, random_state=rng
    )
    candidate = rotation_objective(f @ cand_r, cand_labels, c)
    if candidate > current + 1e-12:
        return cand_r, cand_labels
    return r, labels


def alternate(
    rep,
    *,
    solver: str,
    w: np.ndarray,
    max_iter: int,
    callbacks=(),
    labels=None,
    f=None,
    r=None,
    rng=None,
    n_restarts: int = 10,
    restart_iters: int = 0,
    fit_end: bool = True,
) -> Alternation:
    """Run up to ``max_iter`` F→R→Y→w iterations over ``rep``.

    ``labels``/``f``/``r`` warm-start the loop; ``labels=None`` instead
    cold-starts in the first iteration, where
    :func:`~repro.core.discrete.rotation_initialize` (``n_restarts``
    restarts from ``rng``) picks ``R`` and ``Y`` together.  The first
    ``restart_iters`` Y-steps also try a fresh rotation and keep the
    better ``(R, Y)`` pair.  ``fit_end`` dispatches ``on_fit_end`` after
    the last iteration.
    """
    c = rep.n_clusters
    by_objective = rep.stopping == "objective"
    events: list[IterationEvent] = []
    prev = np.inf
    rel_change: float | None = None
    converged = False
    n_iter = 0
    # The caller's labels are checked once, here; the loop's own skip it.
    g = None if labels is None else scaled_indicator(labels, c)
    for n_iter in range(1, max_iter + 1):
        with span("f_step", iteration=n_iter) as f_span:
            f, gpi_iterations = rep.embed(w, f, g, r)
            if gpi_iterations is not None:
                f_span.set(gpi_iterations=gpi_iterations)
        label_moves: int | None = None
        if labels is None:
            with span("y_step", iteration=n_iter):
                r, labels = rotation_initialize(
                    f, c, n_restarts=n_restarts, random_state=rng
                )
        else:
            with span("r_step", iteration=n_iter):
                r = nearest_orthogonal(f.T @ g)
            # Restarted (R, Y)-step: accept-only-if-better, so the joint
            # objective still descends; only the early iterations (labels
            # still mobile) benefit.
            labels_before = labels
            with span("y_step", iteration=n_iter) as y_span:
                labels = indicator_coordinate_descent(f @ r, labels, c)
                if n_iter <= restart_iters:
                    r, labels = _best_rotation_pair(f, r, labels, c, rng)
                label_moves = int(np.count_nonzero(labels != labels_before))
                y_span.set(label_moves=label_moves)
        g = _scaled_indicator(labels, c)
        if current_trace() is not None:
            # Numerical-health probe: how far the rotated embedding sits
            # from the discrete indicator it is chasing.
            metric_set(
                "health.rotation_residual", float(np.linalg.norm(f @ r - g))
            )
        with span("w_step", iteration=n_iter):
            costs = rep.view_costs(f)
            new_w = update_view_weights(
                costs, mode=rep.weighting, gamma=rep.gamma
            )
            if current_trace() is not None:
                # Numerical-health probe: view-weight concentration (0 =
                # one view dominates; see the weight-collapse rule).
                metric_set("health.weight_entropy", weight_entropy(new_w))
        with span("objective", iteration=n_iter):
            # J under the weights the F/R/Y blocks just descended (where
            # their monotone descent applies), then under the new ones.
            obj_pre, obj = joint_objective(
                (rep.trace(w, f), rep.trace(new_w, f)), f, r, g, lam=rep.lam
            ).tolist()
        if not (np.isfinite(obj) and np.isfinite(obj_pre)):
            raise RecoveryExhaustedError(
                f"objective became non-finite at iteration {n_iter} "
                f"(pre-reweight {obj_pre!r}, recorded {obj!r})",
                site=SITE_FIT,
                attempts=n_iter,
                context=matrix_context(f, "f"),
            )
        scale = max(abs(obj), 1.0)
        if np.isfinite(prev):
            rel_change = abs(prev - obj) / scale
            if by_objective:
                _check_descent(solver, n_iter, prev, obj_pre, obj, rep.tol)
        if by_objective:
            converged = abs(prev - obj) <= rep.tol * scale
        else:
            converged = bool(np.allclose(new_w, w, atol=1e-10))
        prev = obj
        w = new_w
        event = IterationEvent(
            solver=solver,
            iteration=n_iter,
            objective=obj,
            objective_pre_reweight=obj_pre,
            rel_change=rel_change,
            gpi_iterations=gpi_iterations,
            label_moves=label_moves,
            view_weights=tuple(float(x) for x in w),
        )
        events.append(event)
        dispatch_event(callbacks, "on_iteration", event)
        if converged:
            break

    if fit_end:
        info = dict(solver=solver, n_iter=n_iter, converged=converged)
        dispatch_event(callbacks, "on_fit_end", {**info, "objective": prev})
    if by_objective and not converged:
        last_rel = "n/a" if rel_change is None else f"{rel_change:.3e}"
        warnings.warn(
            f"{solver} stopped after max_iter={max_iter} without meeting "
            f"tol={rep.tol}: last relative objective change {last_rel}, last "
            f"objective {prev:.6g}",
            ConvergenceWarning,
            stacklevel=3,
        )
    return Alternation(
        labels=labels,
        embedding=f,
        rotation=r,
        weights=w,
        costs=costs,
        events=tuple(events),
        n_iter=n_iter,
        converged=converged,
    )


def _check_descent(solver, n_iter, last, obj_pre, obj, tol) -> None:
    """MonotonicityWarning when the objective rose past the tolerance band."""
    tol_band = tol * max(abs(last), 1.0)
    if obj_pre > last + tol_band:
        warnings.warn(
            f"{solver} objective increased at iteration {n_iter} before "
            f"reweighting ({last:.6g} -> {obj_pre:.6g}): the monotone "
            f"F/R/Y block descent was violated",
            MonotonicityWarning,
            stacklevel=4,
        )
    elif obj > last + tol_band:
        warnings.warn(
            f"{solver} recorded objective increased at iteration {n_iter} "
            f"({last:.6g} -> {obj:.6g}) due to the w-step reweighting; the "
            f"pre-reweighting value {obj_pre:.6g} still descended (see "
            f"result.diagnostics)",
            MonotonicityWarning,
            stacklevel=4,
        )
