"""Thread-pool parallelism for independent per-view computations.

Per-view graph construction is embarrassingly parallel — the views share
nothing — and the heavy kernels (pairwise distances, k-NN selection) are
numpy/BLAS calls that release the GIL, so plain threads give real
speedups with zero serialization cost.

The run context (:mod:`repro.context`) carries an ambient default job
count (installed with :func:`use_jobs`, e.g. by the CLI's ``--jobs``),
so call sites deep in the stack honor it without threading a
parameter through every layer; it is the only place a worker count is
chosen.

Each task runs under a copy of the calling thread's context, so a result
does not depend on how it was scheduled: worker spans nest under the
caller's open span, and kernels meet the caller's backend, fault plan,
failure policy and recovery log (all safe to share across threads).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

from repro.context import _CONTEXT, scoped
from repro.exceptions import ValidationError


def resolve_jobs(n_jobs: int | None = None, n_tasks: int | None = None) -> int:
    """Effective worker count for a parallel region.

    Parameters
    ----------
    n_jobs : int, optional
        ``None`` defers to the ambient default (see :func:`use_jobs`),
        itself defaulting to 1 (serial); ``-1`` means one worker per CPU;
        positive values are taken as-is.
    n_tasks : int, optional
        Number of independent tasks; the result never exceeds it.

    Returns
    -------
    int
        At least 1.
    """
    if n_jobs is None:
        n_jobs = _CONTEXT.get().jobs
    if n_jobs is None:
        n_jobs = 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        n_jobs = os.cpu_count() or 1
    if n_jobs < 1:
        raise ValidationError(
            f"n_jobs must be a positive int or -1, got {n_jobs}"
        )
    if n_tasks is not None:
        n_jobs = max(1, min(n_jobs, n_tasks))
    return n_jobs


def use_jobs(n_jobs: int) -> scoped:
    """Context manager installing an ambient default job count.

    Examples
    --------
    >>> from repro.pipeline.parallel import resolve_jobs, use_jobs
    >>> resolve_jobs()
    1
    >>> with use_jobs(4):
    ...     resolve_jobs()
    4
    >>> resolve_jobs(2, n_tasks=8)
    2
    """
    resolve_jobs(n_jobs)  # validate eagerly
    return scoped(jobs=n_jobs)


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items`` on the run context's worker count.

    Results keep input order, and the output is bit-identical to the
    serial map — ``fn`` must be a pure function of its item.  With an
    effective job count of 1 (the default) this is a plain loop on the
    calling thread; otherwise each task runs under its own copy of the
    calling thread's context (a context cannot be entered by two
    threads at once).
    """
    items = list(items)
    jobs = resolve_jobs(n_tasks=len(items))
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, fn, item)
            for item in items
        ]
        return [future.result() for future in futures]
