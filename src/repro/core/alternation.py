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
``n_clusters``, ``weighting``, ``gamma``
    The fusion regime: ``embed`` fuses and the w-step reweights under it.
``objective(w, f, r, labels) -> float`` and ``context() -> str``
    Optional.  With them the loop stops on relative objective change,
    warns when the objective rises, and raises on a non-finite value
    with ``context()`` as the conditioning summary; without them it
    stops once the weights stop moving.

The loop owns the rest: cold-start rotation, Procrustes R-step,
coordinate-descent Y-step, the early restarted (R, Y) pairs, w-step,
stopping rule, health probes, and one span plus one ``block_seconds``
entry per block.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.discrete import (
    indicator_coordinate_descent,
    rotation_initialize,
    rotation_objective,
    scaled_indicator,
)
from repro.core.weights import update_view_weights
from repro.exceptions import (
    ConvergenceWarning,
    MonotonicityWarning,
    RecoveryExhaustedError,
)
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.events import IterationEvent, dispatch_event
from repro.observability.health import weight_entropy
from repro.observability.trace import current_trace, metric_set, span
from repro.robust.faults import register_fault_site

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


@contextmanager
def _block(seconds: dict, name: str, iteration: int):
    """Span ``name`` and add its wall-clock time to ``seconds[name]``."""
    tick = time.perf_counter()
    with span(name, iteration=iteration) as handle:
        yield handle
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - tick


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
    tol: float = 0.0,
    fit_end: bool = True,
) -> Alternation:
    """Run up to ``max_iter`` F→R→Y→w iterations over ``rep``.

    ``labels``/``f``/``r`` warm-start the loop; ``labels=None`` instead
    cold-starts in the first iteration, where
    :func:`~repro.core.discrete.rotation_initialize` (``n_restarts``
    restarts from ``rng``) picks ``R`` and ``Y`` together.  The first
    ``restart_iters`` Y-steps also try a fresh rotation and keep the
    better ``(R, Y)`` pair.  ``tol`` applies only with ``objective``;
    ``fit_end`` dispatches ``on_fit_end`` after the last iteration.
    """
    c = rep.n_clusters
    has_objective = hasattr(rep, "objective")
    events: list[IterationEvent] = []
    prev = np.inf
    rel_change: float | None = None
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        seconds: dict[str, float] = {}
        g = None if labels is None else scaled_indicator(labels, c)
        with _block(seconds, "f_step", n_iter) as f_span:
            f, gpi_iterations = rep.embed(w, f, g, r)
            if gpi_iterations is not None:
                f_span.set(gpi_iterations=gpi_iterations)
        label_moves: int | None = None
        if labels is None:
            with _block(seconds, "y_step", n_iter):
                r, labels = rotation_initialize(
                    f, c, n_restarts=n_restarts, random_state=rng
                )
        else:
            with _block(seconds, "r_step", n_iter):
                r = nearest_orthogonal(f.T @ g)
            # Restarted (R, Y)-step: accept-only-if-better, so the joint
            # objective still descends; only the early iterations (labels
            # still mobile) benefit.
            labels_before = labels
            with _block(seconds, "y_step", n_iter) as y_span:
                labels = indicator_coordinate_descent(f @ r, labels, c)
                if n_iter <= restart_iters:
                    r, labels = _best_rotation_pair(f, r, labels, c, rng)
                label_moves = int(np.count_nonzero(labels != labels_before))
                y_span.set(label_moves=label_moves)
        if current_trace() is not None:
            # Numerical-health probe: how far the rotated embedding sits
            # from the discrete indicator it is chasing.
            metric_set(
                "health.rotation_residual",
                float(np.linalg.norm(f @ r - scaled_indicator(labels, c))),
            )
        obj = obj_pre = None
        if has_objective:
            # The monotone F/R/Y descent applies to the objective under
            # the weights the blocks just descended, so that value is
            # recorded before the w-step.
            with _block(seconds, "objective", n_iter):
                obj_pre = rep.objective(w, f, r, labels)
        with _block(seconds, "w_step", n_iter):
            costs = rep.view_costs(f)
            new_w = update_view_weights(
                costs, mode=rep.weighting, gamma=rep.gamma
            )
            if current_trace() is not None:
                # Numerical-health probe: view-weight concentration (0 =
                # one view dominates; see the weight-collapse rule).
                metric_set("health.weight_entropy", weight_entropy(new_w))
        if has_objective:
            with _block(seconds, "objective", n_iter):
                obj = rep.objective(new_w, f, r, labels)
            if not (np.isfinite(obj) and np.isfinite(obj_pre)):
                raise RecoveryExhaustedError(
                    f"objective became non-finite at iteration {n_iter} "
                    f"(pre-reweight {obj_pre!r}, recorded {obj!r})",
                    site=SITE_FIT,
                    attempts=n_iter,
                    context=rep.context(),
                )
            scale = max(abs(obj), 1.0)
            if np.isfinite(prev):
                rel_change = abs(prev - obj) / scale
                _check_descent(solver, n_iter, prev, obj_pre, obj, tol)
            converged = abs(prev - obj) <= tol * scale
            prev = obj
        else:
            converged = np.allclose(new_w, w, atol=1e-10)
        w = new_w
        event = IterationEvent(
            solver=solver,
            iteration=n_iter,
            objective=obj,
            objective_pre_reweight=obj_pre,
            rel_change=rel_change,
            block_seconds=seconds,
            gpi_iterations=gpi_iterations,
            label_moves=label_moves,
            view_weights=tuple(float(x) for x in w),
        )
        events.append(event)
        dispatch_event(callbacks, "on_iteration", event)
        if converged:
            break

    if fit_end:
        info = {"solver": solver, "n_iter": n_iter}
        if has_objective:
            info.update(converged=converged, objective=prev)
        dispatch_event(callbacks, "on_fit_end", info)
    if has_objective and not converged:
        last_rel = "n/a" if rel_change is None else f"{rel_change:.3e}"
        warnings.warn(
            f"{solver} stopped after max_iter={max_iter} without meeting "
            f"tol={tol}: last relative objective change {last_rel}, last "
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
        converged=bool(converged),
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
