"""Span/timer tracing with a contextvar-scoped active trace.

Instrumented code brackets regions with :func:`span`; while no trace is
active (the default) ``span`` returns one shared no-op handle, so the
hot paths pay a single contextvar lookup and nothing else.  Activating
a :class:`Trace` with :func:`use_trace` turns the same call sites into
real timers whose completed :class:`SpanRecord` entries accumulate on
the trace and stream to its sinks.

Spans nest: a span opened while another is running records the parent's
name and its own depth, so a profile can distinguish the ``f_step``
wall-time from the ``gpi`` solver time spent inside it.  The open span
is a field of the run context (:mod:`repro.context`), so a worker thread
nests under the span its caller had open, never under another thread's.
The designated hot call sites open :func:`hot_span`, which also feeds
an armed profiling or memory session.

Every completed span additionally carries correlation identity — the
owning trace's ``trace_id``, its own ``span_id``, the enclosing span's
``parent_id``, and a wall-clock ``timestamp`` (epoch seconds at entry)
alongside the ``perf_counter`` ``start``/``duration`` pair — so spans
written by different processes or belonging to different requests can be
joined after the fact.  A request-scoped identity travels with
:func:`use_request`: while one is active, every completed span (and
every :class:`~repro.robust.policy.RecoveryEvent`) is stamped with the
``request_id``, which is how the serving layer makes one slow or
recovered request explainable end to end.

Examples
--------
>>> from repro.observability.trace import Trace, span, use_trace
>>> with use_trace(Trace("demo")) as trace:
...     with span("outer"):
...         with span("inner", k=3):
...             pass
>>> [(s.name, s.depth, s.parent) for s in trace.spans]
[('inner', 1, 'outer'), ('outer', 0, None)]
>>> trace.spans[0].attributes
{'k': 3}
>>> all(s.trace_id == trace.trace_id for s in trace.spans)
True
>>> trace.spans[0].parent_id == trace.spans[1].span_id
True
>>> span("outside") is span("any other name")  # disabled: shared no-op
True
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field

# The collectors a hot span feeds load with it, so checking whether one
# is armed (``current_profiling``, ``current_memory``) never imports.
import repro.observability.memory  # noqa: F401
import repro.observability.profiling  # noqa: F401
from repro.context import _CONTEXT, scoped
from repro.observability.metrics import MetricsRegistry


def new_id() -> str:
    """A fresh 16-hex-char correlation id (trace ids, span ids, requests)."""
    return uuid.uuid4().hex[:16]


@dataclass
class SpanRecord:
    """One completed timed region of a trace.

    Attributes
    ----------
    name : str
        Stable phase key (e.g. ``"f_step"``, ``"gpi"``); totals are
        aggregated per name.
    start : float
        ``time.perf_counter()`` at entry (process-local clock).
    duration : float
        Wall-clock seconds spent inside the region.
    depth : int
        Nesting depth at entry (0 = top level).
    parent : str or None
        Name of the enclosing span, if any.
    attributes : dict
        Free-form JSON-ready annotations (iteration index, problem
        sizes, inner-iteration counts, ...).
    trace_id : str
        Id of the owning :class:`Trace`; spans from different files or
        processes join on this key.
    span_id : str
        This span's own id (unique within the process).
    parent_id : str or None
        ``span_id`` of the enclosing span, if any — the structural
        parent link (``parent`` keeps the *name* for readability).
    timestamp : float
        Wall-clock epoch seconds at span entry (``time.time()``), in
        addition to the monotonic ``start``; the key that lets traces
        from different processes be laid on one timeline.
    thread : int
        ``threading.get_ident()`` of the recording thread (the Chrome
        trace export lays spans out in one lane per thread).
    request_id : str or None
        The request identity active (via :func:`use_request`) when the
        span was opened, if any.
    links : list of str
        ``span_id``s of causally related spans that are *not* ancestors
        (a serving batch span links to its coalesced request spans).
    """

    name: str
    start: float = 0.0
    duration: float = 0.0
    depth: int = 0
    parent: str | None = None
    attributes: dict = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    timestamp: float = 0.0
    thread: int = 0
    request_id: str | None = None
    links: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSONL sink).

        The identity keys (``trace_id`` ... ``links``) are additive on
        top of the original schema; existing keys are unchanged.
        """
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "attributes": dict(self.attributes),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "timestamp": self.timestamp,
            "thread": self.thread,
            "request_id": self.request_id,
            "links": list(self.links),
        }


class _NoopSpan:
    """Shared do-nothing span handle returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attributes):
        """Ignore attributes; return self for chaining."""
        return self

    def link(self, *span_ids):
        """Ignore links; return self for chaining."""
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


#: The singleton handle every ``span(...)`` call returns when disabled.
NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager timing one region of the active trace; while its
    body runs it is the context's open span, the parent of nested ones."""

    __slots__ = ("_trace", "record", "_token")

    def __init__(self, trace: "Trace", name: str, attributes: dict) -> None:
        self._trace = trace
        self.record = SpanRecord(name=name, attributes=attributes)

    def set(self, **attributes):
        """Attach/overwrite attributes on the underlying record."""
        self.record.attributes.update(attributes)
        return self

    def link(self, *span_ids):
        """Link causally related (non-ancestor) spans by their ids."""
        self.record.links.extend(span_ids)
        return self

    def __enter__(self):
        ctx = _CONTEXT.get()
        record = self.record
        trace_id = self._trace.trace_id
        parent = ctx.span
        # A span of an enclosing, different trace is not a parent: a
        # nested ``use_trace`` starts its own tree.
        if parent is not None and parent.trace_id == trace_id:
            record.depth = parent.depth + 1
            record.parent = parent.name
            record.parent_id = parent.span_id
        record.trace_id = trace_id
        record.span_id = new_id()
        record.thread = threading.get_ident()
        record.request_id = ctx.request_id
        self._token = _CONTEXT.set(ctx._replace({"span": record}))
        record.timestamp = time.time()
        record.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record.duration = time.perf_counter() - self.record.start
        _CONTEXT.reset(self._token)
        self._trace._finish(self.record)
        return False


class _HotSpan:
    """A span whose body also runs under the context's armed collectors.

    A collector's ``_begin()`` returns ``None`` to decline the block (it
    is measuring an enclosing one, or this is not the arming thread).
    Collectors end *before* the span closes, so its attributes can
    carry their capture.
    """

    __slots__ = ("_span", "_name", "_profiling", "_memory", "_tokens")

    def __init__(self, ctx, name: str, attributes: dict) -> None:
        self._span = span(name, **attributes)
        self._name = name
        self._profiling = ctx.profiling
        self._memory = ctx.memory
        # Filled in place on entry: nothing may be freed between the
        # memory collector's baseline and the body.
        self._tokens = [None, None]

    def set(self, **attributes):
        self._span.set(**attributes)
        return self

    def link(self, *span_ids):
        self._span.link(*span_ids)
        return self

    def __enter__(self):
        self._span.__enter__()
        if self._profiling is not None:
            self._tokens[0] = self._profiling._begin()
        if self._memory is not None:
            self._tokens[1] = self._memory._begin()
        return self

    def __exit__(self, *exc):
        profile, start = self._tokens
        if start is not None:
            self._memory._end(start, self._name, self._span)
        if profile is not None:
            self._profiling._end(profile, self._name, self._span)
        return self._span.__exit__(*exc)


class Trace:
    """A recording session: completed spans, iteration events, metrics.

    Parameters
    ----------
    name : str
        Label for the session (shows up in sink output).
    sinks : sequence
        Objects implementing any subset of the
        :class:`~repro.observability.events.FitCallback` protocol plus
        the optional ``on_span(record)`` / ``close()`` hooks; completed
        spans and emitted events stream to every sink.
    """

    def __init__(self, name: str = "trace", sinks=()) -> None:
        self.name = name
        self.sinks = list(sinks)
        self.spans: list[SpanRecord] = []
        self.events: list = []
        self.metrics = MetricsRegistry()
        self.trace_id = new_id()
        self.pid = os.getpid()
        # Spans complete on every thread that runs under this trace;
        # the lock keeps each record and its sink writes in one piece.
        self._lock = threading.Lock()

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)
            for sink in self.sinks:
                on_span = getattr(sink, "on_span", None)
                if on_span is not None:
                    on_span(record)

    def record(self, record: SpanRecord) -> SpanRecord:
        """Adopt an externally timed :class:`SpanRecord`.

        For regions that cannot be bracketed by a stack-scoped
        :func:`span` — a serving request whose lifetime starts in a
        client thread and ends when the worker resolves its future.
        Missing identity fields (``trace_id``, ``span_id``) are filled
        in; the completed record streams to the sinks like any other.
        """
        if not record.trace_id:
            record.trace_id = self.trace_id
        if not record.span_id:
            record.span_id = new_id()
        self._finish(record)
        return record

    def emit(self, event) -> None:
        """Record one iteration event and forward it to every sink."""
        self.events.append(event)
        for sink in self.sinks:
            on_iteration = getattr(sink, "on_iteration", None)
            if on_iteration is not None:
                on_iteration(event)

    def phase_stats(self) -> dict:
        """``{span name: (count, total seconds)}`` over completed spans.

        Nested spans are counted under their own names (``gpi`` time is
        also inside ``f_step`` time); compare like-depth names when
        summing to a total.
        """
        stats: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            count, total = stats.get(s.name, (0, 0.0))
            stats[s.name] = (count + 1, total + s.duration)
        return stats

    def phase_totals(self) -> dict:
        """``{span name: total seconds}`` over completed spans."""
        return {name: total for name, (_, total) in self.phase_stats().items()}

    def close(self) -> None:
        """Announce the trace end, then flush/close every sink.

        Sinks implementing ``on_trace_end(trace)`` get the whole trace
        before ``close()`` — the JSONL sink uses this to append the
        trace metadata and final metrics snapshot so a trace file is
        self-describing (see ``repro metrics dump --from-trace``).
        """
        for sink in self.sinks:
            on_trace_end = getattr(sink, "on_trace_end", None)
            if on_trace_end is not None:
                on_trace_end(self)
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def current_trace() -> Trace | None:
    """The trace active in this context, or ``None`` (the default)."""
    return _CONTEXT.get().trace


def span(name: str, **attributes):
    """Bracket a timed region of the active trace.

    Returns a context manager; with no active trace this is the shared
    no-op handle :data:`NOOP_SPAN` (nothing is recorded, overhead is one
    contextvar lookup).  The returned handle's ``set(**attrs)`` attaches
    annotations discovered mid-region (inner iteration counts, ...).
    """
    trace = _CONTEXT.get().trace
    if trace is None:
        return NOOP_SPAN
    return _LiveSpan(trace, name, attributes)


def hot_span(name: str, **attributes):
    """A :func:`span` that also feeds the context's armed collectors.

    For the designated hot call sites.  With no profiling or memory
    session armed this returns exactly what ``span(name, **attributes)``
    returns, after the same single context lookup; in particular, with
    tracing also off it is the shared no-op handle:

    >>> hot_span("anything") is NOOP_SPAN
    True
    """
    ctx = _CONTEXT.get()
    if ctx.profiling is None and ctx.memory is None:
        if ctx.trace is None:
            return NOOP_SPAN
        return _LiveSpan(ctx.trace, name, attributes)
    return _HotSpan(ctx, name, attributes)


def metric_inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` on the active trace (no-op if none)."""
    trace = _CONTEXT.get().trace
    if trace is not None:
        trace.metrics.counter(name).inc(amount)


def metric_observe(name: str, value: float) -> None:
    """Observe ``value`` in histogram ``name`` on the active trace."""
    trace = _CONTEXT.get().trace
    if trace is not None:
        trace.metrics.histogram(name).observe(value)


def metric_set(name: str, value: float) -> None:
    """Set gauge ``name`` on the active trace (no-op if none)."""
    trace = _CONTEXT.get().trace
    if trace is not None:
        trace.metrics.gauge(name).set(value)


class use_trace(scoped):
    """Context manager activating ``trace`` for the enclosed block.

    On exit the previous active trace (usually none) is restored and the
    trace's sinks are flushed/closed; the trace object itself stays
    readable (``spans`` / ``events`` / ``phase_totals()``).

    Examples
    --------
    >>> from repro.observability.trace import Trace, current_trace, use_trace
    >>> with use_trace(Trace("t")) as t:
    ...     current_trace() is t
    True
    >>> current_trace() is None
    True
    """

    def __init__(self, trace: Trace) -> None:
        super().__init__(trace=trace)
        self.trace = trace

    def __exit__(self, *exc) -> bool:
        super().__exit__(*exc)
        self.trace.close()
        return False


def current_request_id() -> str | None:
    """The request identity active in this context, or ``None``."""
    return _CONTEXT.get().request_id


def use_request(request_id: str | None) -> scoped:
    """Context manager stamping a request identity on the enclosed work.

    While active, every completed span and every
    :class:`~repro.robust.policy.RecoveryEvent` records ``request_id``,
    so work done on behalf of one request (or one coalesced batch of
    requests — pass a comma-joined id list) stays attributable after the
    fact.  Independent of :func:`use_trace`: with tracing disabled this
    costs one context set/reset and changes nothing else; ``None`` keeps
    the ambient identity.

    Examples
    --------
    >>> from repro.observability.trace import current_request_id, use_request
    >>> with use_request("req-1"):
    ...     current_request_id()
    'req-1'
    >>> current_request_id() is None
    True
    """
    return scoped(request_id=request_id)
