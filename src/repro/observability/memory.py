"""Opt-in per-phase memory attribution for designated hot spans.

The profiling layer answers *which functions* burn time; this module
answers *where the bytes go*.  The designated hot call sites (pairwise
distances / kNN affinity, the eigensolves, the GPI loop, batched serving
prediction) open :func:`~repro.observability.trace.hot_span`, which is
dormant until a :class:`MemorySession` is armed with
:class:`use_memory_tracking`; then each hot block measures its
:mod:`tracemalloc` allocation delta and in-block peak, attaches them to
the span's attributes (so they travel through the JSONL sink), and
accumulates them into a per-site table
(:meth:`MemorySession.table`) — the instrument ROADMAP item 1's
"sub-quadratic memory end to end" target is judged against.

**Disabled cost is the design constraint**: with no session armed, a
hot span costs the same single context lookup as
:func:`~repro.observability.trace.span` — so with profiling and tracing
also off it returns the shared
:data:`~repro.observability.trace.NOOP_SPAN` and stays inside the <2%
disarmed-overhead budget that ``benchmarks/bench_robust_overhead.py``
gates.

:mod:`tracemalloc` keeps one process-global peak, so nested hot spans
measure only the outermost block; inner ones degrade to plain
(profile-capable) spans, and a session measures only on the thread
that armed it: workers never reset the peak under its block.  The
session-wide
:attr:`MemorySession.peak_alloc_bytes` is the high-water mark of traced
allocations across the whole activation window — the benchmark runner
stores it (plus the sampler-measured peak RSS) into ``BENCH_<tag>.json``
so ``repro bench compare`` can gate memory regressions alongside time.

Examples
--------
>>> from repro.observability.memory import use_memory_tracking
>>> from repro.observability.trace import hot_span
>>> with use_memory_tracking() as session:
...     with hot_span("hot.block"):
...         _ = bytearray(1 << 20)
>>> session.sites()
['hot.block']
>>> session.table()["hot.block"]["peak_alloc_bytes"] >= (1 << 20)
True
"""

from __future__ import annotations

import threading

from repro.context import _CONTEXT, scoped


class MemorySession:
    """Accumulated per-site allocation stats, keyed by span name.

    One session typically spans one bench pass or one CLI invocation;
    every hot span executed while it is armed adds its allocation delta
    and peak here (repeated executions of the same site accumulate:
    calls and deltas sum, peaks take the max).
    """

    def __init__(self) -> None:
        self._sites: dict = {}
        self._peak = 0
        self._active = False  # tracemalloc peak is global; guards nesting
        #: The arming thread (re-set by :class:`use_memory_tracking`).
        self._owner = threading.get_ident()

    def _begin(self):
        """Start metering one hot block; ``None`` when it must not."""
        import tracemalloc  # first use: a dormant tracker loads no tracemalloc

        armed = threading.get_ident() == self._owner
        if self._active or not armed or not tracemalloc.is_tracing():
            return None
        self._active = True
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def _end(self, start: int, name: str, span) -> None:
        """Record the block begun at ``start`` (site ``name``, ``span``)."""
        import tracemalloc

        current, peak = tracemalloc.get_traced_memory()
        self._active = False
        self.observe_peak(peak)
        alloc, peak = max(current - start, 0), max(peak - start, 0)
        self.record(name, alloc, peak)
        span.set(memory={"alloc_bytes": alloc, "peak_alloc_bytes": peak})

    def record(
        self, name: str, alloc_bytes: int, peak_alloc_bytes: int
    ) -> None:
        """Fold one finished block's measurements into the site table."""
        entry = self._sites.setdefault(
            name, {"calls": 0, "alloc_bytes": 0, "peak_alloc_bytes": 0}
        )
        entry["calls"] += 1
        entry["alloc_bytes"] += int(alloc_bytes)
        entry["peak_alloc_bytes"] = max(
            entry["peak_alloc_bytes"], int(peak_alloc_bytes)
        )

    def observe_peak(self, traced_peak_bytes: int) -> None:
        """Raise the session-wide high-water mark to ``traced_peak_bytes``."""
        self._peak = max(self._peak, int(traced_peak_bytes))

    @property
    def peak_alloc_bytes(self) -> int:
        """Peak traced allocation over the whole activation window."""
        return self._peak

    def sites(self) -> list:
        """The measured span names seen so far (sorted)."""
        return sorted(self._sites)

    def table(self) -> dict:
        """JSON-safe ``{site: {calls, alloc_bytes, peak_alloc_bytes}}``."""
        return {name: dict(stats) for name, stats in self._sites.items()}


def current_memory() -> MemorySession | None:
    """The armed session, or ``None`` when memory tracking is dormant."""
    return _CONTEXT.get().memory


class use_memory_tracking(scoped):
    """Context manager arming a :class:`MemorySession` on this thread.

    Starts :mod:`tracemalloc` if it is not already tracing (and stops it
    again on exit only in that case, so an outer tracemalloc user is
    left undisturbed).

    >>> with use_memory_tracking() as session:
    ...     current_memory() is session
    True
    >>> current_memory() is None
    True
    """

    def __init__(self) -> None:
        self.session = MemorySession()
        super().__init__(memory=self.session)
        self._started_tracing = False

    def __enter__(self) -> MemorySession:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        self.session._owner = threading.get_ident()
        return super().__enter__()

    def __exit__(self, *exc) -> bool:
        import tracemalloc

        super().__exit__(*exc)
        if tracemalloc.is_tracing():
            self.session.observe_peak(tracemalloc.get_traced_memory()[1])
        if self._started_tracing:
            tracemalloc.stop()
        return False

