"""One run context: the ambient state a computation runs under.

All run state that call sites consult without a parameter (trace, open
span, backend, fault plan, ...) lives on one frozen :class:`RunContext`
in one :class:`~contextvars.ContextVar`; every ``use_*`` manager is a
thin :class:`scoped` over it.  So a worker running under
:func:`contextvars.copy_context` (``parallel_map``, the serving worker)
sees all of the state of the thread that handed it the work.

Examples
--------
>>> from repro.context import current_context, scoped
>>> with scoped(jobs=4, cache=None) as ctx:  # ``None`` keeps the ambient value
...     ctx.jobs, ctx.cache is None
(4, True)
>>> current_context().jobs is None
True
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class RunContext:
    """The ambient state of one run; every field defaults to ``None``."""

    trace: Any = None  #: the active ``Trace``
    span: Any = None  #: ``SpanRecord`` open here: the next span's parent
    request_id: str | None = None  #: stamped on spans and recoveries
    profiling: Any = None  #: ``ProfilingSession`` fed by hot spans
    memory: Any = None  #: ``MemorySession`` fed by hot spans
    backend: Any = None  #: ``ArrayBackend`` pinned by ``use_backend``
    policy: Any = None  #: ``FailurePolicy`` from ``use_policy``
    recoveries: list | None = None  #: the outermost recovery log
    faults: Any = None  #: ``FaultPlan`` armed by ``inject_faults``
    jobs: int | None = None  #: default worker count from ``use_jobs``
    cache: Any = None  #: ``ComputationCache`` from ``use_cache``

    def _replace(self, fields: dict) -> RunContext:
        """A copy with ``fields`` replaced; every live span derives one,
        and ``dataclasses.replace`` (re-running ``__init__``) costs 6x."""
        new = object.__new__(RunContext)
        state = new.__dict__
        state.update(self.__dict__)
        state.update(fields)
        return new


_CONTEXT: ContextVar[RunContext] = ContextVar(
    "repro_run_context", default=RunContext()
)


def current_context() -> RunContext:
    """The :class:`RunContext` active on this thread of control."""
    return _CONTEXT.get()


class scoped:
    """Context manager replacing some :class:`RunContext` fields.

    Fields passed as ``None`` are skipped, so an optional setting keeps
    the ambient value instead of clearing it.  Entering yields the
    value passed when exactly one field is named (``use_cache(c)``
    yields ``c``, ``use_backend(None)`` yields ``None``), otherwise the
    new context.
    """

    def __init__(self, **fields) -> None:
        self._single = len(fields) == 1
        self._value = next(iter(fields.values()), None)
        self._fields = {k: v for k, v in fields.items() if v is not None}
        self._token = None

    def __enter__(self):
        if self._fields:
            self._token = _CONTEXT.set(_CONTEXT.get()._replace(self._fields))
        return self._value if self._single else _CONTEXT.get()

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _CONTEXT.reset(self._token)
            self._token = None
        return False
