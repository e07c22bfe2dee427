"""Content-addressed computation cache for the graph/eigen layer.

The evaluation protocol (repeated seeds, parameter grids, baseline
comparisons) re-runs the *same* per-view graph constructions, Laplacians,
and eigendecompositions over and over: the graphs depend only on the data
and the graph hyperparameters, never on the algorithmic seed.  This module
memoizes those pure computations behind a content-addressed key —

``blake2b(namespace | format version | array bytes/shape/dtype | params)``

— so a cached result can never be served for different inputs, and cached
runs are bit-identical to uncached ones (the stored arrays *are* the
arrays the compute produced; fetches return defensive copies).

Two stores back the cache:

* an in-memory LRU store bounded by entry count and total bytes;
* an optional on-disk ``.npz`` store (one file per key) that survives
  processes and is shared by ``repro cache {stats,clear}``.

Activation mirrors the observability layer: the active cache is a field
of the run context (:mod:`repro.context`), :func:`use_cache` installs
one for a block, and with no active cache every call site computes
directly with zero overhead.
Hits and misses are counted on the cache itself and mirrored to the
active trace as ``cache.hit`` / ``cache.miss`` counters inside
``graph_cache`` spans.

Examples
--------
>>> import numpy as np
>>> from repro.pipeline.cache import ComputationCache, use_cache
>>> cache = ComputationCache()
>>> x = np.eye(3)
>>> with use_cache(cache):
...     a = cache.memoize("demo", (x,), {"k": 2}, lambda: (x * 2.0,))
...     b = cache.memoize("demo", (x,), {"k": 2}, lambda: (x * 2.0,))
>>> cache.stats().hits, cache.stats().misses
(1, 1)
>>> np.array_equal(a[0], b[0])
True
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from repro.backends import current_backend
from repro.context import _CONTEXT, scoped
from repro.exceptions import ValidationError
from repro.observability.trace import metric_inc, span
from repro.pipeline.parallel import parallel_map

#: Bump when the key schema or stored-value layout changes; old disk
#: entries then simply miss instead of deserializing wrongly.
#: v2: keys additionally bind the active compute backend's cache token.
CACHE_FORMAT_VERSION = 2


def _hash_array(h, x) -> None:
    """Feed one dense or CSR-sparse array into a running hash."""
    if scipy.sparse.issparse(x):
        csr = x.tocsr()
        if not csr.has_sorted_indices:
            # A CSR input is the caller's own matrix: sort a copy.
            csr = csr.sorted_indices()
        h.update(f"csr:{csr.shape}:{csr.data.dtype.str}".encode())
        h.update(np.ascontiguousarray(csr.indptr).tobytes())
        h.update(np.ascontiguousarray(csr.indices).tobytes())
        h.update(np.ascontiguousarray(csr.data).tobytes())
        return
    arr = np.ascontiguousarray(x)
    h.update(f"nd:{arr.shape}:{arr.dtype.str}".encode())
    h.update(arr.tobytes())


def cache_key(namespace: str, arrays=(), params: dict | None = None) -> str:
    """Content-addressed key for one computation.

    Parameters
    ----------
    namespace : str
        The computation family (``"affinity"``, ``"laplacian"``,
        ``"eigsh"``, ...); identical inputs under different namespaces
        never collide.
    arrays : sequence of ndarray or scipy sparse
        The input data; hashed by dtype, shape, and raw bytes.
    params : dict, optional
        Scalar hyperparameters (affinity kind, k, normalization, ...);
        hashed by sorted ``repr``.

    Returns
    -------
    str
        Hex digest (stable across processes for equal inputs and equal
        active backend).  The active
        :class:`~repro.backends.ArrayBackend`'s cache token is part of
        the key, so a result computed under one numerical contract
        (say float32) can never satisfy a lookup made under another.
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(
        f"v{CACHE_FORMAT_VERSION}:{current_backend().cache_token()}:"
        f"{namespace}".encode()
    )
    for x in arrays:
        _hash_array(h, x)
    if params:
        h.update(repr(sorted(params.items())).encode())
    return h.hexdigest()


def _value_nbytes(value: tuple) -> int:
    total = 0
    for x in value:
        if scipy.sparse.issparse(x):
            csr = x.tocsr()
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        else:
            total += x.nbytes
    return total


def _copy_value(value: tuple) -> tuple:
    return tuple(
        x.copy() if scipy.sparse.issparse(x) else np.array(x, copy=True)
        for x in value
    )


def _save_npz(path: str, value: tuple) -> None:
    payload: dict = {"__kinds__": np.array(
        ["sparse" if scipy.sparse.issparse(x) else "dense" for x in value]
    )}
    for i, x in enumerate(value):
        if scipy.sparse.issparse(x):
            csr = x.tocsr()
            payload[f"a{i}_data"] = csr.data
            payload[f"a{i}_indices"] = csr.indices
            payload[f"a{i}_indptr"] = csr.indptr
            payload[f"a{i}_shape"] = np.asarray(csr.shape)
        else:
            payload[f"a{i}"] = np.asarray(x)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)


def _load_npz(path: str) -> tuple:
    with np.load(path, allow_pickle=False) as data:
        kinds = [str(k) for k in data["__kinds__"]]
        value = []
        for i, kind in enumerate(kinds):
            if kind == "sparse":
                value.append(
                    scipy.sparse.csr_matrix(
                        (
                            data[f"a{i}_data"],
                            data[f"a{i}_indices"],
                            data[f"a{i}_indptr"],
                        ),
                        shape=tuple(data[f"a{i}_shape"]),
                    )
                )
            else:
                value.append(data[f"a{i}"])
    return tuple(value)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters and store sizes of one cache."""

    hits: int
    misses: int
    evictions: int
    memory_entries: int
    memory_bytes: int
    disk_entries: int
    disk_bytes: int
    by_namespace: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ComputationCache:
    """Content-addressed memoization store (memory LRU + optional disk).

    Parameters
    ----------
    max_items : int
        In-memory entry cap; least-recently-used entries evict first.
    max_bytes : int
        In-memory total-payload cap in bytes (counts array payloads).
    directory : str, optional
        On-disk ``.npz`` store; entries written there are found by any
        later process pointed at the same directory.  Created on first
        write.

    Notes
    -----
    Thread-safe (one re-entrant lock guards both stores); values are
    copied on insert and on fetch, so callers can never corrupt a cached
    entry by mutating what they got back.
    """

    def __init__(
        self,
        *,
        max_items: int = 256,
        max_bytes: int = 1 << 30,
        directory: str | None = None,
    ) -> None:
        if max_items < 1:
            raise ValidationError(f"max_items must be >= 1, got {max_items}")
        if max_bytes < 1:
            raise ValidationError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_items = int(max_items)
        self.max_bytes = int(max_bytes)
        self.directory = os.fspath(directory) if directory is not None else None
        self._lock = threading.RLock()
        self._store: OrderedDict[str, tuple] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._by_namespace: dict[str, dict] = {}

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"{type(self).__name__}(max_items={self.max_items}, "
            f"max_bytes={self.max_bytes}, directory={self.directory!r}, "
            f"entries={s.memory_entries}, hits={s.hits}, misses={s.misses})"
        )

    # -- store internals -------------------------------------------------

    def _disk_path(self, key: str) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.npz")

    def _lookup(self, key: str) -> tuple | None:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                return _copy_value(self._store[key])
        path = self._disk_path(key)
        if path is not None and os.path.exists(path):
            try:
                value = _load_npz(path)
            except (OSError, KeyError, ValueError):
                return None  # corrupt/foreign file: treat as a miss
            self._insert_memory(key, value)
            return _copy_value(value)
        return None

    def _insert_memory(self, key: str, value: tuple) -> None:
        nbytes = _value_nbytes(value)
        with self._lock:
            if key in self._store:
                return
            self._store[key] = value
            self._bytes += nbytes
            while self._store and (
                len(self._store) > self.max_items or self._bytes > self.max_bytes
            ):
                evicted_key, evicted = self._store.popitem(last=False)
                self._bytes -= _value_nbytes(evicted)
                self._evictions += 1
                if evicted_key == key:
                    break  # single value larger than max_bytes

    # -- public API ------------------------------------------------------

    def fetch(self, key: str, *, namespace: str = "") -> tuple | None:
        """Look up one key, counting a hit or a miss.

        Returns the stored tuple of arrays (as copies) or ``None``.
        Every lookup is bracketed by a ``graph_cache`` span and mirrored
        to the active trace's ``cache.hit`` / ``cache.miss`` counters.
        """
        with span("graph_cache", namespace=namespace) as s:
            value = self._lookup(key)
            hit = value is not None
            with self._lock:
                ns = self._by_namespace.setdefault(
                    namespace, {"hits": 0, "misses": 0}
                )
                if hit:
                    self._hits += 1
                    ns["hits"] += 1
                else:
                    self._misses += 1
                    ns["misses"] += 1
            metric_inc("cache.hit" if hit else "cache.miss")
            if namespace:
                metric_inc(
                    f"cache.{'hit' if hit else 'miss'}.{namespace}"
                )
            s.set(hit=hit)
        return value

    def insert(self, key: str, value: tuple) -> None:
        """Store one computed value (a tuple of dense/sparse arrays)."""
        value = _copy_value(tuple(value))
        self._insert_memory(key, value)
        path = self._disk_path(key)
        if path is not None:
            os.makedirs(self.directory, exist_ok=True)
            _save_npz(path, value)

    def memoize(self, namespace: str, arrays, params, compute) -> tuple:
        """Fetch-or-compute one value.

        ``compute`` must be a zero-argument callable returning a tuple of
        arrays; it runs (and its result is stored) only on a miss.
        """
        key = cache_key(namespace, arrays, params)
        value = self.fetch(key, namespace=namespace)
        if value is not None:
            return value
        value = tuple(compute())
        self.insert(key, value)
        return value

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` snapshot."""
        with self._lock:
            by_ns = {ns: dict(c) for ns, c in self._by_namespace.items()}
            snapshot = (
                self._hits,
                self._misses,
                self._evictions,
                len(self._store),
                self._bytes,
            )
        disk_entries, disk_bytes = disk_store_stats(self.directory)
        return CacheStats(
            hits=snapshot[0],
            misses=snapshot[1],
            evictions=snapshot[2],
            memory_entries=snapshot[3],
            memory_bytes=snapshot[4],
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
            by_namespace=by_ns,
        )

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries stay)."""
        with self._lock:
            self._store.clear()
            self._bytes = 0


def disk_store_stats(directory: str | None) -> tuple[int, int]:
    """``(entry count, total bytes)`` of one on-disk store directory."""
    if directory is None or not os.path.isdir(directory):
        return 0, 0
    entries = 0
    total = 0
    for name in os.listdir(directory):
        if name.endswith(".npz"):
            entries += 1
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return entries, total


def clear_disk_store(directory: str) -> int:
    """Delete every ``.npz`` entry in a disk store; returns the count."""
    if not os.path.isdir(directory):
        return 0
    removed = 0
    for name in os.listdir(directory):
        if name.endswith(".npz"):
            try:
                os.remove(os.path.join(directory, name))
                removed += 1
            except OSError:
                pass
    return removed


def current_cache() -> ComputationCache | None:
    """The cache active in this context, or ``None`` (the default)."""
    return _CONTEXT.get().cache


def use_cache(cache: ComputationCache) -> scoped:
    """Context manager activating ``cache`` for the enclosed block.

    Mirrors :class:`~repro.observability.trace.use_trace`: call sites in
    the graph/linalg layer consult :func:`current_cache` and memoize only
    while one is active.

    Examples
    --------
    >>> from repro.pipeline.cache import ComputationCache, current_cache, use_cache
    >>> with use_cache(ComputationCache()) as cache:
    ...     current_cache() is cache
    True
    >>> current_cache() is None
    True
    """
    return scoped(cache=cache)


def memoized_parallel(
    items,
    compute,
    *,
    namespace: str,
    key_arrays,
    key_params=None,
):
    """Cached, optionally parallel map of ``compute`` over ``items``.

    The per-item pattern behind parallel graph construction: all cache
    lookups, hit/miss accounting, and inserts run on the calling thread
    (so counters do not depend on the job count and the stores see no
    concurrent mutation from workers); only the cache *misses* are
    computed, through :func:`~repro.pipeline.parallel.parallel_map` on
    the run context's worker count.

    Parameters
    ----------
    items : sequence
        Opaque task inputs.
    compute : callable
        ``compute(item) -> array`` (dense or sparse); must be a pure
        function of the item.
    namespace : str
        Cache namespace for the keys.
    key_arrays : callable
        ``key_arrays(item) -> tuple of arrays`` identifying the input.
    key_params : dict or callable, optional
        Static params dict, or ``key_params(item) -> dict``.

    Returns
    -------
    list
        One result per item, in input order; bit-identical to a serial,
        uncached map.
    """
    items = list(items)
    cache = current_cache()
    results: list = [None] * len(items)
    keys: list = [None] * len(items)
    missing: list[int] = []
    for i, item in enumerate(items):
        if cache is None:
            missing.append(i)
            continue
        params = key_params(item) if callable(key_params) else dict(key_params or {})
        keys[i] = cache_key(namespace, key_arrays(item), params)
        got = cache.fetch(keys[i], namespace=namespace)
        if got is None:
            missing.append(i)
        else:
            results[i] = got[0]
    computed = parallel_map(lambda i: compute(items[i]), missing)
    for i, value in zip(missing, computed):
        if cache is not None:
            cache.insert(keys[i], (value,))
        results[i] = value
    return results
