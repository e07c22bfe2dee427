"""Lightweight process-resource sampling (RSS / CPU time).

:class:`ResourceSampler` runs a daemon thread that periodically reads
the process's resident set size and cumulative CPU time, entirely from
the standard library: ``/proc/self/status`` where available (Linux),
falling back to :mod:`resource` peak-RSS elsewhere, and ``os.times()``
for CPU seconds.  Use it as a context manager around anything worth
metering — a model fit, an experiment-runner session, a serving
process — and read :meth:`ResourceSampler.summary` afterwards:

>>> from repro.observability.resource import ResourceSampler
>>> with ResourceSampler(interval_seconds=0.01) as sampler:
...     _ = sum(range(10000))
>>> usage = sampler.summary()
>>> sorted(usage)
['cpu_seconds', 'mean_rss_bytes', 'n_samples', 'peak_rss_bytes', 'wall_seconds']
>>> usage["n_samples"] >= 1
True

When constructed with a ``registry``, every sample also publishes the
``process.rss_bytes`` / ``process.cpu_seconds`` / ``process.peak_rss_bytes``
gauges, so a serving ``/metrics`` endpoint exposes live resource levels
alongside request telemetry.  The benchmark runner attaches a sampler to
every bench and persists the peaks into ``BENCH_*.json``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ValidationError

_PROC_STATUS = "/proc/self/status"


def read_rss_bytes() -> int:
    """Current resident set size in bytes (best available source).

    Prefers ``VmRSS`` from ``/proc/self/status``; falls back to
    ``resource.getrusage`` peak RSS (a high-water mark, not the current
    level) on platforms without procfs, and to 0 when neither exists.
    """
    try:
        with open(_PROC_STATUS, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss units are platform-defined: bytes on macOS,
        # kilobytes on Linux/BSD.  Branch on the platform — a magnitude
        # heuristic misclassifies small macOS processes as kilobytes.
        return int(peak) * (1 if sys.platform == "darwin" else 1024)
    except (ImportError, ValueError, OSError):
        return 0


def read_cpu_seconds() -> float:
    """Cumulative user + system CPU seconds of this process."""
    times = os.times()
    return float(times.user + times.system)


@dataclass(frozen=True)
class ResourceSample:
    """One point-in-time reading of the process's resource levels.

    Attributes
    ----------
    wall : float
        ``time.perf_counter()`` at the reading.
    rss_bytes : int
        Resident set size (see :func:`read_rss_bytes`).
    cpu_seconds : float
        Cumulative process CPU time at the reading.
    """

    wall: float
    rss_bytes: int
    cpu_seconds: float


class ResourceSampler:
    """Background thread sampling RSS and CPU time at a fixed interval.

    Parameters
    ----------
    interval_seconds : float
        Sleep between samples (default 50 ms; the reads are two procfs
        lines plus an ``os.times()`` call, cheap enough for 10 ms).
    registry : MetricsRegistry, optional
        When given, each sample updates the ``process.rss_bytes`` /
        ``process.cpu_seconds`` / ``process.peak_rss_bytes`` gauges.

    One sample is always taken synchronously at :meth:`start` and
    another at :meth:`stop`, so even a window shorter than the interval
    yields usable peaks.  Repeated starts of a running sampler and
    repeated stops are no-ops, but a sampler covers exactly one window:
    :meth:`start` after :meth:`stop` raises :class:`ValidationError`
    instead of silently mixing stale samples into a new window.
    """

    def __init__(self, interval_seconds: float = 0.05, *, registry=None) -> None:
        if float(interval_seconds) <= 0:
            raise ValidationError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        self.interval = float(interval_seconds)
        self.registry = registry
        self.samples: list[ResourceSample] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cpu0 = 0.0
        self._wall0 = 0.0
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Take a baseline sample and launch the sampling thread.

        Raises
        ------
        ValidationError
            The sampler's window was already closed with :meth:`stop`;
            a sampler covers exactly one window, so restarting would
            silently mix stale samples into the new one.
        """
        if self._stopped:
            raise ValidationError(
                "ResourceSampler windows are single-use: this sampler "
                "was already stopped; construct a new one"
            )
        if self._thread is not None:
            return self
        self._cpu0 = read_cpu_seconds()
        self._wall0 = time.perf_counter()
        self._sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop the thread, take a final sample, return :meth:`summary`."""
        if self._thread is not None and not self._stopped:
            self._stop.set()
            self._thread.join()
            self._sample()
            self._stopped = True
        return self.summary()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- readings ----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        sample = ResourceSample(
            wall=time.perf_counter(),
            rss_bytes=read_rss_bytes(),
            cpu_seconds=read_cpu_seconds(),
        )
        with self._lock:
            self.samples.append(sample)
        if self.registry is not None:
            self.registry.gauge("process.rss_bytes").set(
                sample.rss_bytes
            )
            self.registry.gauge("process.cpu_seconds").set(
                sample.cpu_seconds - self._cpu0
            )
            self.registry.gauge("process.peak_rss_bytes").set(
                self.peak_rss_bytes
            )

    # -- summaries ---------------------------------------------------------

    @property
    def peak_rss_bytes(self) -> int:
        """Largest RSS reading so far (0 before the first sample)."""
        with self._lock:
            return max((s.rss_bytes for s in self.samples), default=0)

    @property
    def cpu_seconds(self) -> float:
        """CPU time consumed since :meth:`start`."""
        with self._lock:
            if not self.samples:
                return 0.0
            return self.samples[-1].cpu_seconds - self._cpu0

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time covered by the sampling window so far."""
        with self._lock:
            if not self.samples:
                return 0.0
            return self.samples[-1].wall - self._wall0

    def summary(self) -> dict:
        """JSON-ready peaks and totals of the sampled window."""
        with self._lock:
            n = len(self.samples)
            rss = [s.rss_bytes for s in self.samples]
        return {
            "peak_rss_bytes": max(rss, default=0),
            "mean_rss_bytes": (sum(rss) / n) if n else 0.0,
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
            "n_samples": n,
        }
