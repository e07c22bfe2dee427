"""Robustness substrate: fault injection + a unified numerical-failure policy.

Production multi-view clustering has no second stage to absorb a bad
embedding, so every numerical kernel in the one-stage pipeline must be
*injectable* (a test can make it fail on demand), *observable* (failures
and recoveries emit counters and events), and *recoverable* (a uniform
retry / fallback / raise policy instead of ad-hoc ``try/except``).  Two
modules provide that:

* :mod:`repro.robust.faults` — a deterministic, contextvar-scoped
  fault-injection harness.  Numerical kernels register named *fault
  sites*; :func:`inject_faults` arms a :class:`FaultPlan` that can
  raise, corrupt outputs with NaN/Inf, or delay at chosen sites and
  invocation counts.  With no plan armed the harness is a single
  contextvar lookup (the same no-op discipline as
  :func:`repro.observability.trace.use_trace` and
  :func:`repro.pipeline.cache.use_cache`).
* :mod:`repro.robust.policy` — the unified failure policy.
  :func:`run_with_policy` executes a kernel under a
  :class:`FailurePolicy`: deterministic (jitter-free) perturbed
  retries, then a fallback chain, then a
  :class:`~repro.exceptions.RecoveryExhaustedError` carrying the site
  name, attempt count, and matrix-conditioning context.  Recoveries
  stream to the active trace (``recovery.*`` counters) and to the
  contextvar-scoped recovery log the solvers attach to
  ``UMSCResult.diagnostics``.

See ``docs/robustness.md`` for the site catalogue, the policy
semantics, and how to write a fault-injection test.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_POLICY": "policy",
    "RECOVERABLE_EXCEPTIONS": "policy",
    "FailurePolicy": "policy",
    "FaultPlan": "faults",
    "FaultSite": "faults",
    "FaultSpec": "faults",
    "InjectedFault": "faults",
    "RecoveryEvent": "policy",
    "collect_recoveries": "policy",
    "current_faults": "faults",
    "current_policy": "policy",
    "failure_guard": "policy",
    "inject_faults": "faults",
    "matrix_context": "policy",
    "maybe_inject": "faults",
    "record_recovery": "policy",
    "register_fault_site": "faults",
    "registered_fault_sites": "faults",
    "run_with_policy": "policy",
    "use_policy": "policy",
})
