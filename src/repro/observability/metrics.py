"""Counters, gauges, and histograms for solver and serving telemetry.

A :class:`MetricsRegistry` travels with every
:class:`~repro.observability.trace.Trace`; instrumented code records
into it through the module-level helpers
:func:`~repro.observability.trace.metric_inc` /
:func:`~repro.observability.trace.metric_observe` /
:func:`~repro.observability.trace.metric_set`, which are no-ops while
tracing is disabled.  Typical series: GPI inner-iteration counts,
Y-step label moves per sweep, eigensolver invocations, serving request
latencies.

All three primitives are **thread-safe**: the micro-batching
:class:`~repro.serving.service.PredictionService` shares one registry
between its worker thread and every client thread, so increments and
observations are guarded by a per-metric lock (a concurrent hammer test
asserts no lost updates).

:class:`Histogram` storage is **bounded**: beyond
:data:`DEFAULT_RESERVOIR_SIZE` kept samples the histogram decimates to a
deterministic arrival-strided reservoir, so long-running services cannot
grow memory without bound.  ``count`` / ``total`` / ``min`` / ``max`` /
``mean`` stay exact forever; quantiles are exact while ``count`` is
within the cap and reservoir estimates after.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.exceptions import ValidationError

#: Kept-sample cap of a :class:`Histogram` before decimation starts.
DEFAULT_RESERVOIR_SIZE = 4096


class Counter:
    """A thread-safe monotone sum of non-negative increments.

    Examples
    --------
    >>> c = Counter("eigh.calls")
    >>> c.inc(); c.inc(2.0)
    >>> c.value
    3.0
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """The running total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValidationError(
                f"counter increment must be >= 0, got {amount}"
            )
        with self._lock:
            self._value += float(amount)

    def __repr__(self) -> str:
        return f"Counter(name={self.name!r}, value={self._value!r})"


class Gauge:
    """A thread-safe point-in-time value that can move both ways.

    Unlike a :class:`Counter` a gauge tracks a *level* — queue depth,
    resident set size, worker count — so ``set`` overwrites and
    ``inc`` / ``dec`` move it by signed deltas.

    Examples
    --------
    >>> g = Gauge("serving.queue_depth")
    >>> g.set(4.0); g.dec(); g.inc(2.0)
    >>> g.value
    5.0
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def set(self, value: float) -> None:
        """Overwrite the current level."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the level up by ``amount``."""
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Move the level down by ``amount``."""
        with self._lock:
            self._value -= float(amount)

    def __repr__(self) -> str:
        return f"Gauge(name={self.name!r}, value={self._value!r})"


class Histogram:
    """Thread-safe bounded summary of observed values with quantiles.

    Scalar summaries (``count`` / ``total`` / ``min`` / ``max`` /
    ``mean``) are streamed exactly and never depend on storage.  For
    quantiles the histogram keeps a **deterministic strided reservoir**:
    every observation is kept until :data:`DEFAULT_RESERVOIR_SIZE` are
    stored; at the cap the reservoir drops every second kept sample and
    doubles its stride, so it always holds the observations at arrival
    indices ``0, s, 2s, ...`` for the current stride ``s``.  No
    randomness is involved — two histograms fed the same sequence hold
    identical samples.

    Exactness guarantee: while ``count <= DEFAULT_RESERVOIR_SIZE``
    (stride 1, the common case for per-iteration solver series),
    ``percentile`` is computed over *every* observation and matches
    ``numpy.percentile(all_values, q)`` exactly.  Beyond the cap it is
    an estimate over the evenly-strided subsample.

    Examples
    --------
    >>> h = Histogram("gpi.inner_iterations")
    >>> for v in (3, 5, 4):
    ...     h.observe(v)
    >>> h.count, h.total, h.min, h.max
    (3, 12.0, 3.0, 5.0)
    >>> h.percentile(50)
    4.0
    """

    __slots__ = (
        "name",
        "_values",
        "_stride",
        "_count",
        "_total",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._stride = 1
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            if self._count % self._stride == 0:
                if len(self._values) >= DEFAULT_RESERVOIR_SIZE:
                    # Decimate deterministically: keep arrival indices
                    # 0, 2s, 4s, ... and record every (2s)-th from now on.
                    self._values = self._values[::2]
                    self._stride *= 2
                if self._count % self._stride == 0:
                    self._values.append(value)
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def values(self) -> list:
        """Kept samples (every observation while under the cap)."""
        with self._lock:
            return list(self._values)

    @property
    def exact(self) -> bool:
        """Whether the reservoir still holds *every* observation."""
        return self._stride == 1

    @property
    def count(self) -> int:
        """Number of observations (exact, storage-independent)."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of observations (exact, storage-independent)."""
        return self._total

    @property
    def min(self) -> float:
        """Smallest observation (``nan`` when empty)."""
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        """Largest observation (``nan`` when empty)."""
        return self._max if self._count else float("nan")

    @property
    def mean(self) -> float:
        """Mean observation (``nan`` when empty)."""
        return self._total / self._count if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``nan`` when empty).

        Linear interpolation over the kept samples, matching
        ``numpy.percentile``'s default; exact over all observations
        while :attr:`exact` holds.
        """
        with self._lock:
            if not self._values:
                return float("nan")
            return float(np.percentile(self._values, q))

    def quantile_summary(self) -> dict:
        """``{"p50", "p90", "p95", "p99"}`` over the kept samples."""
        qs = (50, 90, 95, 99)
        with self._lock:
            if self._values:
                levels = np.percentile(self._values, qs)
            else:
                levels = [float("nan")] * len(qs)
        return {f"p{g}": float(v) for g, v in zip(qs, levels)}

    def __repr__(self) -> str:
        return (
            f"Histogram(name={self.name!r}, count={self._count}, "
            f"mean={self.mean:.6g}, exact={self.exact})"
        )


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        with self._lock:
            if name not in self.counters:
                self.counters[name] = Counter(name)
            return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        with self._lock:
            if name not in self.gauges:
                self.gauges[name] = Gauge(name)
            return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        with self._lock:
            if name not in self.histograms:
                self.histograms[name] = Histogram(name)
            return self.histograms[name]

    def snapshot(self) -> dict:
        """JSON-ready ``{"counters", "gauges", "histograms"}`` dump.

        Histogram entries keep the pre-reservoir keys (``count`` /
        ``total`` / ``min`` / ``max`` / ``mean``) for sink backward
        compatibility, and add the ``p50``/``p90``/``p95``/``p99``
        quantile summary.
        """
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: g.value for n, g in self.gauges.items()},
            "histograms": {
                n: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                    **h.quantile_summary(),
                }
                for n, h in self.histograms.items()
            },
        }
