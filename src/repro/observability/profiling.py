"""Opt-in deterministic profiling hooks for designated hot spans.

The trace layer answers *which phase* is slow; this module answers
*which functions inside it*.  A handful of known-hot call sites —
pairwise distances / kNN affinity construction, the ``eigsh``
eigensolves, the GPI iterate loop, batched serving prediction — open
:func:`~repro.observability.trace.hot_span` instead of a bare
:func:`~repro.observability.trace.span`.  A hot span is dormant until a
:class:`ProfilingSession` is armed with :class:`use_profiling`; then
each hot block runs under a fresh :class:`cProfile.Profile`
(deterministic tracing, no sampling), its top functions by cumulative
time are attached to the span's attributes (so they travel through the
JSONL sink), and the raw stats merge into the session for a per-site
:meth:`ProfilingSession.hotspots` table afterwards.

**Disabled cost is the design constraint**: with no session armed, a
hot span costs the same single context lookup as ``span(...)`` — so
with tracing *also* off it returns the shared
:data:`~repro.observability.trace.NOOP_SPAN` and stays inside the <3%
telemetry budget that ``benchmarks/bench_serving_throughput.py`` gates.

CPython allows one active profiler per thread, so nested hot spans
(``serving.predict`` under an outer profiled bench body) profile only
the outermost block; inner ones degrade to plain spans.  A session
profiles only on the thread that armed it: worker threads still record
their trace spans but never start a second profiler.

Examples
--------
>>> from repro.observability.profiling import use_profiling
>>> from repro.observability.trace import hot_span
>>> with use_profiling(limit=5) as session:
...     with hot_span("hot.block"):
...         _ = sorted(range(1000))
>>> session.sites()
['hot.block']
>>> bool(session.hotspots("hot.block"))
True
"""

from __future__ import annotations

import os.path
import threading

from repro.context import _CONTEXT, scoped
from repro.exceptions import ValidationError

#: How many hotspot rows a session keeps per query by default.
DEFAULT_LIMIT = 10

#: How many rows a hot span attaches to its span attributes.
SPAN_ATTR_ROWS = 5


def _func_label(func) -> str:
    """A compact ``file:line:name`` label for one pstats function key."""
    filename, lineno, name = func
    if filename.startswith("~") or not filename:
        return name  # builtin / C function
    return f"{os.path.basename(filename)}:{lineno}:{name}"


def _merge_rows(stats_objects, limit: int) -> list:
    """Top functions by cumulative time across ``stats_objects``.

    Rows are JSON-safe dicts sorted by descending ``cumtime`` with the
    label as a deterministic tiebreak, so repeated identical runs
    produce identically ordered tables.
    """
    merged: dict = {}
    for stats in stats_objects:
        for func, (_cc, ncalls, tottime, cumtime, _callers) in (
            stats.stats.items()
        ):
            row = merged.setdefault(func, [0, 0.0, 0.0])
            row[0] += ncalls
            row[1] += tottime
            row[2] += cumtime
    rows = [
        {
            "function": _func_label(func),
            "calls": int(ncalls),
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        }
        for func, (ncalls, tottime, cumtime) in merged.items()
    ]
    rows.sort(key=lambda r: (-r["cumtime"], -r["tottime"], r["function"]))
    return rows[:limit]


class ProfilingSession:
    """Accumulated cProfile stats, keyed by the profiled span's name.

    One session typically spans one bench run or one CLI invocation;
    every hot span executed while it is armed merges its profile here
    (stats from repeated executions of the same site add up, like
    ``pstats.Stats.add``).
    """

    def __init__(self, *, limit: int = DEFAULT_LIMIT) -> None:
        if int(limit) < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        self.limit = int(limit)
        self._stats: dict = {}
        self._active = False  # one cProfile per thread; guards nesting
        #: The arming thread (re-set by :class:`use_profiling`).
        self._owner = threading.get_ident()

    def _begin(self):
        """Start profiling one hot block; ``None`` when it must not."""
        if self._active or threading.get_ident() != self._owner:
            return None
        import cProfile  # first use: a dormant profiler loads no cProfile

        self._active = True
        profile = cProfile.Profile()
        profile.enable()
        return profile

    def _end(self, profile, name: str, span) -> None:
        """Stop ``profile`` and record it under ``name`` and on ``span``."""
        profile.disable()
        import pstats

        self._active = False
        span.set(profile=_merge_rows([pstats.Stats(profile)], SPAN_ATTR_ROWS))
        self.record(name, profile)

    def record(self, name: str, profile) -> None:
        """Merge one finished :class:`cProfile.Profile` under ``name``."""
        import pstats

        existing = self._stats.get(name)
        if existing is None:
            self._stats[name] = pstats.Stats(profile)
        else:
            existing.add(profile)

    def sites(self) -> list:
        """The profiled span names seen so far (sorted)."""
        return sorted(self._stats)

    def hotspots(self, name: str | None = None, *, top: int | None = None):
        """Top functions by cumulative seconds, as JSON-safe rows.

        Parameters
        ----------
        name : str, optional
            Restrict to one profiled site; default merges every site.
        top : int, optional
            Row cap (default: the session's ``limit``).
        """
        if name is not None:
            selected = [self._stats[name]] if name in self._stats else []
        else:
            selected = list(self._stats.values())
        return _merge_rows(selected, top if top is not None else self.limit)


def current_profiling() -> ProfilingSession | None:
    """The armed session, or ``None`` when profiling is dormant."""
    return _CONTEXT.get().profiling


class use_profiling(scoped):
    """Context manager arming a :class:`ProfilingSession` on this thread.

    >>> with use_profiling() as session:
    ...     current_profiling() is session
    True
    >>> current_profiling() is None
    True
    """

    def __init__(self, *, limit: int = DEFAULT_LIMIT) -> None:
        self.session = ProfilingSession(limit=limit)
        super().__init__(profiling=self.session)

    def __enter__(self) -> ProfilingSession:
        self.session._owner = threading.get_ident()
        return super().__enter__()

