"""The unified numerical-failure policy: retry → fallback chain → raise.

Before this layer, numerical failures surfaced ad hoc: only the ARPACK
eigensolver had a (hand-rolled) dense fallback, and everything else died
wherever numpy happened to raise.  :func:`run_with_policy` replaces that
with one uniform contract for every registered kernel site:

1. run the primary computation; validate its output is finite;
2. on a recoverable failure, retry up to ``max_retries`` times with a
   *deterministic* (jitter-free) perturbation scale passed to the
   primary — reproducible by construction, no randomness;
3. then walk the site's fallback chain (e.g. Lanczos → dense, GPI →
   plain eigensolve, SVD → QR);
4. if everything fails, raise
   :class:`~repro.exceptions.RecoveryExhaustedError` carrying the site
   name, attempt count, and a matrix-conditioning summary — never a bare
   numpy/scipy exception.

Every recovery action emits a ``recovery.*`` counter on the active trace
and a :class:`RecoveryEvent` into the run context's log installed by
:class:`collect_recoveries`, which the solvers attach to
``UMSCResult.diagnostics``.  :func:`failure_guard` is the outermost line
of defense: it wraps whole ``fit()`` / experiment bodies so no raw
third-party exception can escape the library.

Examples
--------
>>> from repro.robust.policy import FailurePolicy, run_with_policy, use_policy
>>> from repro.robust.faults import register_fault_site
>>> _ = register_fault_site("demo.flaky", "docstring example site")
>>> calls = []
>>> def primary(perturb):
...     calls.append(perturb)
...     if len(calls) == 1:
...         raise FloatingPointError("transient")
...     return 42.0
>>> with use_policy(FailurePolicy(max_retries=1)):
...     run_with_policy("demo.flaky", primary)
42.0
>>> calls[0] == 0.0 and calls[1] > 0.0  # deterministic perturbed retry
True
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.context import _CONTEXT, scoped
from repro.exceptions import (
    NumericalError,
    RecoveryExhaustedError,
    ReproError,
)
from repro.observability.trace import current_request_id, metric_inc
from repro.robust.faults import maybe_inject

#: Failures the policy treats as recoverable numerical trouble.  Notably
#: *excludes* :class:`~repro.exceptions.ValidationError` (bad input is the
#: caller's bug, not numerical noise) but *includes*
#: :class:`~repro.exceptions.NumericalError`, numpy's ``LinAlgError``,
#: ``RuntimeError`` (scipy's convergence failures, ARPACK included), and
#: the harness's ``InjectedFault``.
RECOVERABLE_EXCEPTIONS = (
    ArithmeticError,
    np.linalg.LinAlgError,
    RuntimeError,
)


@dataclass(frozen=True)
class FailurePolicy:
    """How a kernel site responds to a recoverable numerical failure.

    Attributes
    ----------
    max_retries : int
        Perturbed re-runs of the primary after the first failure.
    use_fallbacks : bool
        Whether to walk the site's fallback chain after retries.
    perturbation : float
        Base deterministic perturbation scale; retry ``k`` receives
        ``perturbation * 10**(k-1)`` (jitter-free, so recovered runs are
        reproducible).
    """

    max_retries: int = 1
    use_fallbacks: bool = True
    perturbation: float = 1e-8

    def retry_scale(self, attempt: int) -> float:
        """Perturbation magnitude handed to retry number ``attempt`` (>= 1)."""
        return self.perturbation * (10.0 ** (attempt - 1))


#: Policy used when none is active and none is passed explicitly.
DEFAULT_POLICY = FailurePolicy()


def current_policy() -> FailurePolicy:
    """The ambient :class:`FailurePolicy` (:data:`DEFAULT_POLICY` if unset)."""
    policy = _CONTEXT.get().policy
    return policy if policy is not None else DEFAULT_POLICY


def use_policy(policy: FailurePolicy) -> scoped:
    """Context manager installing an ambient :class:`FailurePolicy`.

    Mirrors :func:`~repro.observability.trace.use_trace`; the CLI's
    ``--max-retries`` flag uses this so a policy reaches every kernel
    without threading a parameter through the stack.

    Examples
    --------
    >>> from repro.robust.policy import FailurePolicy, current_policy, use_policy
    >>> with use_policy(FailurePolicy(max_retries=3)):
    ...     current_policy().max_retries
    3
    >>> current_policy().max_retries
    1
    """
    return scoped(policy=policy)


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action taken by the failure policy.

    Attributes
    ----------
    site : str
        The policy/fault site involved.
    strategy : {"retry", "fallback", "skip", "exhausted", "guard"}
        What the policy did: a perturbed retry succeeded, a fallback
        succeeded, a failing unit was skipped (rotation restarts), every
        strategy was spent, or the outer guard wrapped a stray exception.
    attempt : int
        Attempt count at the time of the action.
    error : str
        The failure that triggered the action.
    detail : str
        Strategy-specific annotation (fallback name, ...).
    succeeded : bool
        Whether the action produced a usable result.
    request_id : str
        The request identity (:func:`~repro.observability.trace.
        use_request`) active when the recovery fired, if any — a
        coalesced serving batch carries its comma-joined request ids, so
        a recovered request stays explainable end to end.
    """

    site: str
    strategy: str
    attempt: int
    error: str
    detail: str = ""
    succeeded: bool = True
    request_id: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation (mirrors the event/sink schema)."""
        return {
            "site": self.site,
            "strategy": self.strategy,
            "attempt": self.attempt,
            "error": self.error,
            "detail": self.detail,
            "succeeded": self.succeeded,
            "request_id": self.request_id,
        }


class collect_recoveries(scoped):
    """Context manager collecting :class:`RecoveryEvent` for one fit.

    Re-entrant: a nested collection (``fit`` → ``fit_affinities``) joins
    the outermost list instead of shadowing it, so graph-construction
    recoveries land on the same diagnostics record as solver ones.  The
    list lives on the run context, so recoveries made in
    ``parallel_map`` workers land there too.

    Examples
    --------
    >>> from repro.robust.policy import RecoveryEvent, collect_recoveries
    >>> from repro.robust.policy import record_recovery
    >>> with collect_recoveries() as events:
    ...     record_recovery(RecoveryEvent("demo.flaky", "retry", 1, "boom"))
    >>> [(e.site, e.strategy) for e in events]
    [('demo.flaky', 'retry')]
    """

    def __enter__(self) -> list:
        outermost = _CONTEXT.get().recoveries is None
        self._fields = {"recoveries": []} if outermost else {}
        return super().__enter__().recoveries


def record_recovery(event: RecoveryEvent) -> None:
    """Append ``event`` to the active recovery log and count it.

    No-op log-wise when no :class:`collect_recoveries` is active; the
    ``recovery.<strategy>`` counter still reaches the active trace.
    Events without an explicit ``request_id`` inherit the ambient
    request identity (:func:`~repro.observability.trace.use_request`),
    so serving-path recoveries stay joined to their requests.
    """
    if not event.request_id:
        ambient = current_request_id()
        if ambient:
            event = replace(event, request_id=ambient)
    metric_inc(f"recovery.{event.strategy}")
    log = _CONTEXT.get().recoveries
    if log is not None:
        log.append(event)


def _issparse(value) -> bool:
    """``scipy.sparse.issparse`` without importing scipy.sparse.

    No sparse matrix can exist before that module is loaded, so a process
    that never loaded it (a serving process) has none to check.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(value)


def _finite(value) -> bool:
    """True when every float array reachable in ``value`` is fully finite."""
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            return bool(np.all(np.isfinite(value)))
        return True
    if _issparse(value):
        return bool(np.all(np.isfinite(value.data)))
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    return True


def _check_value(site: str, value, validate) -> None:
    if validate is None:
        if not _finite(value):
            raise NumericalError(
                f"{site} produced non-finite output"
            )
        return
    if validate(value) is False:
        raise NumericalError(f"{site} output failed validation")


def _resolve_context(context) -> str:
    if context is None:
        return ""
    return context() if callable(context) else str(context)


def run_with_policy(
    site: str,
    primary,
    *,
    fallbacks=(),
    validate=None,
    context=None,
):
    """Execute one kernel under the ambient :func:`current_policy`.

    Parameters
    ----------
    site : str
        Registered fault-site name; the primary's output additionally
        passes through :func:`~repro.robust.faults.maybe_inject` at this
        site, so arming a fault plan exercises exactly this machinery.
    primary : callable
        ``primary(perturbation: float)`` — the kernel.  Receives ``0.0``
        on the first attempt and the policy's deterministic retry scale
        afterwards; kernels with no meaningful perturbation ignore it.
    fallbacks : sequence of (name, callable)
        Zero-argument alternatives tried in order after retries are
        spent.  Fallback outputs are validated but *not* re-injected, so
        a persistent injected fault at ``site`` still lets the fallback
        demonstrate recovery.
    validate : callable, optional
        ``validate(value) -> bool``; ``None`` means the default
        all-floats-finite check.
    context : str or callable, optional
        Conditioning summary (or lazy producer of one) attached to the
        exhaustion error; see :func:`matrix_context`.

    Returns
    -------
    The first validated result.

    Raises
    ------
    RecoveryExhaustedError
        When the primary, every retry, and every fallback failed.
    """
    resolved = current_policy()
    last_exc: Exception | None = None
    attempts = 0
    for attempt in range(resolved.max_retries + 1):
        perturb = 0.0 if attempt == 0 else resolved.retry_scale(attempt)
        attempts += 1
        try:
            value = maybe_inject(site, primary(perturb))
            _check_value(site, value, validate)
        except RECOVERABLE_EXCEPTIONS as exc:
            last_exc = exc
            continue
        if attempt > 0:
            record_recovery(
                RecoveryEvent(
                    site=site,
                    strategy="retry",
                    attempt=attempts,
                    error=str(last_exc),
                    succeeded=True,
                )
            )
        return value
    fallback_name = ""
    if resolved.use_fallbacks:
        for name, fallback in fallbacks:
            fallback_name = name
            attempts += 1
            try:
                value = fallback()
                _check_value(site, value, validate)
            except RECOVERABLE_EXCEPTIONS as exc:
                last_exc = exc
                continue
            record_recovery(
                RecoveryEvent(
                    site=site,
                    strategy="fallback",
                    attempt=attempts,
                    error=str(last_exc),
                    detail=name,
                    succeeded=True,
                )
            )
            return value
    record_recovery(
        RecoveryEvent(
            site=site,
            strategy="exhausted",
            attempt=attempts,
            error=str(last_exc),
            succeeded=False,
        )
    )
    message = f"{site} failed after {attempts} attempt(s)"
    if fallback_name:
        message += f"; the {fallback_name} fallback also failed"
    message += f": {last_exc}"
    raise RecoveryExhaustedError(
        message,
        site=site,
        attempts=attempts,
        context=_resolve_context(context),
    ) from last_exc


@contextmanager
def failure_guard(site: str):
    """Outermost safety net: no raw third-party exception escapes.

    Wraps a whole ``fit()`` / experiment body.  :class:`~repro.exceptions.
    ReproError` (including :class:`~repro.exceptions.ValidationError`)
    passes through untouched — those are the library's own, documented
    failure surface.  Anything else is wrapped into
    :class:`~repro.exceptions.RecoveryExhaustedError` with the site name,
    after recording a ``guard`` recovery event.
    """
    try:
        yield
    except ReproError:
        raise
    except Exception as exc:
        record_recovery(
            RecoveryEvent(
                site=site,
                strategy="guard",
                attempt=1,
                error=str(exc),
                detail=type(exc).__name__,
                succeeded=False,
            )
        )
        raise RecoveryExhaustedError(
            f"unhandled {type(exc).__name__}: {exc}",
            site=site,
            attempts=1,
        ) from exc


def matrix_context(a, name: str = "A") -> str:
    """Compact conditioning summary of a matrix for failure forensics.

    Cheap enough to compute at failure time (one pass over the entries):
    shape/dtype, finite fraction, Frobenius norm, absolute-value range,
    and the symmetry gap for square dense inputs.
    """
    try:
        if _issparse(a):
            data = a.data
            finite = float(np.mean(np.isfinite(data))) if data.size else 1.0
            fro = float(np.sqrt(np.sum(data[np.isfinite(data)] ** 2)))
            return (
                f"{name}: sparse {a.shape} {a.dtype} nnz={a.nnz} "
                f"finite={finite:.3f} fro={fro:.4g}"
            )
        arr = np.asarray(a)
        if arr.size == 0:
            return f"{name}: empty array {arr.shape}"
        finite_mask = np.isfinite(arr)
        finite = float(np.mean(finite_mask))
        abs_finite = np.abs(arr[finite_mask])
        fro = float(np.sqrt(np.sum(abs_finite**2)))
        lo = float(abs_finite.min()) if abs_finite.size else float("nan")
        hi = float(abs_finite.max()) if abs_finite.size else float("nan")
        parts = [
            f"{name}: {arr.shape} {arr.dtype}",
            f"finite={finite:.3f}",
            f"fro={fro:.4g}",
            f"|x|∈[{lo:.3g}, {hi:.3g}]",
        ]
        if arr.ndim == 2 and arr.shape[0] == arr.shape[1] and finite == 1.0:
            gap = float(np.max(np.abs(arr - arr.T)))
            parts.append(f"sym_gap={gap:.3g}")
        return " ".join(parts)
    except Exception:  # forensics must never mask the original failure
        return f"{name}: <context unavailable>"
