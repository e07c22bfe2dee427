"""The iteration-event protocol: what one outer solver iteration emits.

Every outer iteration of the unified solvers produces one structured
:class:`IterationEvent` — objective value(s), inner-solver effort,
label mobility, current view weights — delivered to any number of
:class:`FitCallback` listeners and to the active trace's sinks.  Block
wall-times are not part of the event: each block is a span.  The full
per-fit record rides on the result object as a :class:`FitDiagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.trace import current_trace


@dataclass(frozen=True)
class IterationEvent:
    """One outer iteration of a solver, structured.

    Attributes
    ----------
    solver : str
        Emitting solver class name (``"UnifiedMVSC"``, ``"AnchorMVSC"``,
        ``"SparseMVSC"``).
    iteration : int
        1-based outer iteration index.
    objective : float or None
        The objective ``J`` after the w-step, recorded by every solver
        (Sparse and Anchor at ``lam = 1``); UMSC's ``objective_history``.
    objective_pre_reweight : float or None
        ``J`` *before* the w-step rebuilt the fused operator — the value
        UMSC's monotone F/R/Y block-descent guarantee applies to.
    rel_change : float or None
        Relative change of ``objective`` vs. the previous iteration (the
        quantity UMSC's stopping rule thresholds).
    gpi_iterations : int or None
        Inner GPI iterations the F-step used (``None`` when the F-step
        is a plain eigensolve).
    label_moves : int or None
        Rows whose cluster assignment changed during this iteration's
        Y-block.
    view_weights : tuple of float
        View weights ``w`` after this iteration's w-step.
    """

    solver: str
    iteration: int
    objective: float | None = None
    objective_pre_reweight: float | None = None
    rel_change: float | None = None
    gpi_iterations: int | None = None
    label_moves: int | None = None
    view_weights: tuple = ()

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSONL sink)."""
        return {
            "solver": self.solver,
            "iteration": self.iteration,
            "objective": self.objective,
            "objective_pre_reweight": self.objective_pre_reweight,
            "rel_change": self.rel_change,
            "gpi_iterations": self.gpi_iterations,
            "label_moves": self.label_moves,
            "view_weights": list(self.view_weights),
        }


class FitCallback:
    """Base class / protocol for per-fit listeners.

    Sinks override any subset; every hook is a no-op here, so partial
    implementations stay cheap.  Duck-typed objects with the same
    method names work too — the dispatcher looks methods up by name.
    """

    def on_fit_start(self, info: dict) -> None:
        """Called once before the first iteration; ``info`` identifies
        the solver and problem (``solver``, ``n_samples``, ...)."""

    def on_iteration(self, event: IterationEvent) -> None:
        """Called once per outer iteration with the structured event."""

    def on_fit_end(self, info: dict) -> None:
        """Called once after the last iteration with the outcome
        (``n_iter``, ``converged``, ``objective``, ...)."""


def _deliver(listeners, method: str, payload) -> None:
    """Call ``method`` on every listener that defines it."""
    for listener in listeners:
        hook = getattr(listener, method, None)
        if hook is not None:
            hook(payload)


def dispatch_event(callbacks, method: str, payload) -> None:
    """Deliver ``payload`` to ``method`` of every callback and of the
    active trace's sinks.

    ``callbacks`` is any iterable of listener objects.  Every hook also
    flows to the sinks of the contextvar-active
    :class:`~repro.observability.trace.Trace`, so enabling a trace
    observes an *un-modified* model; only iteration events are also
    recorded on the trace itself (``trace.events``).
    """
    _deliver(callbacks, method, payload)
    trace = current_trace()
    if trace is None:
        return
    if method == "on_iteration":
        trace.emit(payload)
    else:
        _deliver(trace.sinks, method, payload)


@dataclass(frozen=True)
class FitDiagnostics:
    """The full per-iteration record of one fit.

    Attached to :class:`~repro.core.result.UMSCResult` as
    ``result.diagnostics``; always recorded (one small event per outer
    iteration) whether or not tracing is active.

    Attributes
    ----------
    events : tuple of IterationEvent
        One entry per outer iteration.
    recoveries : tuple of repro.robust.RecoveryEvent
        Every recovery action the failure policy took during the fit
        (perturbed retries, fallbacks, skipped restarts); empty on a
        clean run.
    """

    events: tuple = ()
    recoveries: tuple = ()
