"""Run fingerprint and the production-path guard."""

from __future__ import annotations

import ctypes
import os
import platform

#: What a timed pass must run: the reference backend and no observers.
PRODUCTION_BACKEND = "numpy"


class NotProductionPath(RuntimeError):
    """A timed pass would measure something other than production code."""


def check_production_path() -> None:
    """Raise :class:`NotProductionPath` unless the plain program would run.

    The backend must be the default ``numpy`` one (``REPRO_BACKEND`` can
    select another), and no ``repro.observability`` trace, profiler or
    memory tracker and no computation cache may be active: each of them
    changes the work a fit does.
    """
    from repro.backends import current_backend
    from repro.observability.memory import current_memory
    from repro.observability.profiling import current_profiling
    from repro.observability.trace import current_trace
    from repro.pipeline.cache import current_cache

    backend = current_backend().name
    if backend != PRODUCTION_BACKEND:
        raise NotProductionPath(
            f"backend {backend!r} is active (REPRO_BACKEND="
            f"{os.environ.get('REPRO_BACKEND')!r}); timed runs use "
            f"{PRODUCTION_BACKEND!r}"
        )
    active = [
        name
        for name, value in (
            ("trace", current_trace()),
            ("profiler", current_profiling()),
            ("memory tracker", current_memory()),
            ("computation cache", current_cache()),
        )
        if value is not None
    ]
    if active:
        raise NotProductionPath(
            f"active during a timed pass: {', '.join(active)}"
        )


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> tuple[str, object]:
    """BLAS build name/version and its thread count, as far as known."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        build = "unknown"
    threads: object = None
    # OpenBLAS reports its pool size through a C entry point; find the
    # loaded library the way threadpoolctl does, without depending on it.
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
            "OMP_NUM_THREADS"
        ) or "default"
    return build, threads


def _git_commit(root: str) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(git, *name.split("/"))
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: str) -> dict:
    """Where and on what a result was measured."""
    import numpy as np
    import scipy

    from repro.backends import current_backend

    blas, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "backend": current_backend().name,
        "commit": _git_commit(root),
    }
