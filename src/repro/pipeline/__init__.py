"""Computation pipeline: shared caching and per-view parallelism.

The repeated-seed / grid-sweep protocol recomputes identical per-view
graphs and eigendecompositions hundreds of times; this subsystem removes
that redundancy without touching any algorithm:

* :mod:`repro.pipeline.cache` — content-addressed memoization of
  per-view affinities, Laplacians, and extremal eigenpairs, with an
  in-memory LRU store and an optional on-disk ``.npz`` store;
* :mod:`repro.pipeline.parallel` — thread-pool mapping over independent
  per-view computations, with an ambient default job count.

Both are **off by default** and ambient when on: activate a cache with
:func:`use_cache` (or ``--cache-dir`` on the CLI) and a worker count
with :func:`use_jobs` (``--jobs``), and every model and baseline that
goes through the shared graph/linalg layer picks them up.  Results are
bit-identical to the serial, uncached path.

See ``docs/pipeline_cache.md`` for cache keys, stores, CLI flags, and
invalidation semantics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CacheStats": "cache",
    "ComputationCache": "cache",
    "cache_key": "cache",
    "clear_disk_store": "cache",
    "current_cache": "cache",
    "disk_store_stats": "cache",
    "memoized_parallel": "cache",
    "parallel_map": "parallel",
    "resolve_jobs": "parallel",
    "use_cache": "cache",
    "use_jobs": "parallel",
})
