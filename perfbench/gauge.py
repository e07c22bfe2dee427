"""A fixed reference kernel that gauges how fast the CPU runs right now.

On the shared reference host the same fit on the same input takes 15-35%
longer in some minutes than in others, in CPU time as well as in
wall-clock, so it is not only steal.  Whole runs land in slow or fast
stretches, so medians within a run cannot remove it.  The workloads
therefore read this gauge after every timed operation (serve: after
each closed-loop segment) and report the operation's CPU time scaled to
the reference speed::

    scaled = cpu_s * REF_S / mean(reading before, reading after)

The kernel runs only numpy and scipy on inputs made once from a fixed
seed, none of the program under test: a faster program leaves the
readings as they are, so its scaled time falls as much as its CPU time.
Its mix follows the fits' own: a Python row loop of small numpy calls
(like ``core.discrete``'s coordinate descent), a kNN graph, a dense
eigensolve and small matrix products.  Its arrays stay below glibc's
128 KiB mmap threshold, so a reading does not depend on the allocator
state a fit leaves behind.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: CPU seconds of one :func:`kernel` run on the reference machine (2-vCPU
#: shared Xeon, one BLAS thread) in a quiet minute.  Only the scale of
#: the scaled times depends on it.
REF_S = 0.02

_rng = np.random.default_rng(0)
_POINTS = _rng.random((120, 20))
_SQ = (_POINTS**2).sum(axis=1)
_SYM = _rng.random((100, 100))
_SYM = _SYM + _SYM.T
_ROWS = _rng.random((200, 4))
_K = 10


def _row_loop(total: float) -> float:
    rows = _ROWS.copy()
    for i in range(rows.shape[0]):
        row = rows[i]
        j = int(np.argmax(row))
        row *= 0.5
        row[j] += 1.0
        total += float(np.dot(row, row))
    return total


def _spectral(total: float) -> float:
    dist = _SQ[:, None] + _SQ[None, :] - 2.0 * (_POINTS @ _POINTS.T)
    nearest = np.argsort(dist, axis=1)[:, 1 : _K + 1]
    affinity = np.zeros_like(dist)
    np.put_along_axis(
        affinity, nearest, np.exp(-np.take_along_axis(dist, nearest, 1)), 1
    )
    affinity = (affinity + affinity.T) / 2.0
    lap = np.diag(affinity.sum(axis=1)) - affinity
    _, vecs = scipy.linalg.eigh(lap, subset_by_index=[0, 3])
    labels = np.argmax(np.abs(vecs), axis=1)
    for _ in range(4):
        for i in range(labels.size):
            counts = np.bincount(labels, minlength=4)
            labels[i] = int(np.argmin(np.abs(vecs[i]) - counts * 1e-3))
    return total + float(labels.sum())


def kernel() -> float:
    """Run the reference work once; returns a checksum of its results."""
    total = 0.0
    for _ in range(10):
        total += float(np.linalg.eigvalsh(_SYM)[0])
        total += float((_SYM @ _SYM)[0, 0])
        total = _row_loop(total)
    return _spectral(total)


class Gauge:
    """Scales operation CPU times by readings of :func:`kernel`."""

    def __init__(self) -> None:
        kernel()  # warm-up: the first calls into LAPACK are slower
        self.readings: list[float] = []
        self.wall_s = 0.0  # wall-clock spent reading, kept out of passes
        self.read()

    def read(self) -> float:
        """Run the kernel once; returns its CPU seconds."""
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        seconds = time.process_time() - cpu
        self.wall_s += time.perf_counter() - wall
        self.readings.append(seconds)
        return seconds

    def scale(self, cpu_s: float) -> float:
        """``cpu_s``, just measured, at the reference speed; reads again."""
        before = self.readings[-1]
        after = self.read()
        return cpu_s * REF_S * 2.0 / (before + after)

    def speed(self) -> float:
        """Median speed over the run relative to the reference (1 = same)."""
        return REF_S / float(np.median(self.readings))


class NoGauge:
    """Leaves times as measured (the traced replay)."""

    wall_s = 0.0

    def read(self) -> None:
        pass

    def scale(self, cpu_s: float) -> float:
        return cpu_s
