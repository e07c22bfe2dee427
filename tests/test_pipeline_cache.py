"""Tests for repro.pipeline — computation cache and parallel map.

The contract under test: caching and parallelism are *transparent*.
Every result produced through the cache (memory or disk, serial or
parallel) must be bit-identical to the direct computation, and the
hit/miss accounting must be exact.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from repro import UnifiedMVSC
from repro.core.graph_builder import build_laplacians, build_multiview_affinities
from repro.evaluation.sweeps import grid_sweep
from repro.exceptions import ValidationError
from repro.observability import Trace, use_trace
from repro.pipeline import (
    ComputationCache,
    cache_key,
    clear_disk_store,
    current_cache,
    disk_store_stats,
    memoized_parallel,
    parallel_map,
    resolve_jobs,
    use_cache,
    use_jobs,
)


class TestCacheKey:
    def test_deterministic(self):
        x = np.arange(12.0).reshape(3, 4)
        assert cache_key("ns", (x,), {"k": 5}) == cache_key("ns", (x,), {"k": 5})

    def test_sensitive_to_data(self):
        x = np.arange(12.0).reshape(3, 4)
        y = x.copy()
        y[0, 0] += 1e-12
        assert cache_key("ns", (x,)) != cache_key("ns", (y,))

    def test_sensitive_to_params(self):
        x = np.eye(3)
        assert cache_key("ns", (x,), {"k": 5}) != cache_key("ns", (x,), {"k": 6})
        assert cache_key("ns", (x,), {"kind": "rbf"}) != cache_key(
            "ns", (x,), {"kind": "cosine"}
        )

    def test_sensitive_to_namespace(self):
        x = np.eye(3)
        assert cache_key("affinity", (x,)) != cache_key("laplacian", (x,))

    def test_sensitive_to_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        assert cache_key("ns", (a,)) != cache_key("ns", (b,))
        assert cache_key("ns", (a,)) != cache_key("ns", (a.reshape(2, 2),))

    def test_param_order_irrelevant(self):
        x = np.eye(2)
        assert cache_key("ns", (x,), {"a": 1, "b": 2}) == cache_key(
            "ns", (x,), {"b": 2, "a": 1}
        )

    def test_sparse_arrays_hashable(self):
        sp = scipy.sparse.random(8, 8, density=0.3, random_state=0, format="csr")
        assert cache_key("ns", (sp,)) == cache_key("ns", (sp.copy(),))
        dense_key = cache_key("ns", (np.asarray(sp.todense()),))
        assert cache_key("ns", (sp,)) != dense_key

    def test_key_leaves_an_unsorted_csr_untouched(self):
        # One row stored as columns [1, 0]: hashing must not reorder it.
        x = scipy.sparse.csr_array(
            (np.array([1.0, 2.0]), np.array([1, 0]), np.array([0, 2, 2])),
            shape=(2, 2),
        )
        key = cache_key("ns", (x,))
        assert x.indices.tolist() == [1, 0]
        assert x.data.tolist() == [1.0, 2.0]
        assert not x.has_sorted_indices
        assert key == cache_key("ns", (x.sorted_indices(),))


class TestComputationCache:
    def test_hit_miss_accounting(self):
        cache = ComputationCache()
        x = np.eye(4)
        calls = []
        for _ in range(3):
            cache.memoize("demo", (x,), {"k": 1}, lambda: (calls.append(1), x * 2)[1:])
        s = cache.stats()
        assert (s.hits, s.misses) == (2, 1)
        assert len(calls) == 1
        assert s.by_namespace["demo"] == {"hits": 2, "misses": 1}
        assert s.hit_rate == pytest.approx(2 / 3)

    def test_fetch_returns_copy(self):
        cache = ComputationCache()
        x = np.arange(6.0)
        key = cache_key("ns", (x,))
        cache.insert(key, (x,))
        got = cache.fetch(key)[0]
        got[:] = -1.0
        again = cache.fetch(key)[0]
        np.testing.assert_array_equal(again, np.arange(6.0))

    def test_insert_copies_value(self):
        cache = ComputationCache()
        x = np.arange(6.0)
        key = cache_key("ns", (x,))
        cache.insert(key, (x,))
        x[:] = -1.0
        np.testing.assert_array_equal(cache.fetch(key)[0], np.arange(6.0))

    def test_eviction_by_items(self):
        cache = ComputationCache(max_items=2)
        arrays = [np.full(3, float(i)) for i in range(4)]
        keys = [cache_key("ns", (a,)) for a in arrays]
        for k, a in zip(keys, arrays):
            cache.insert(k, (a,))
        s = cache.stats()
        assert s.memory_entries == 2
        assert s.evictions >= 2
        assert cache.fetch(keys[0]) is None  # oldest evicted
        assert cache.fetch(keys[3]) is not None  # newest kept

    def test_eviction_by_bytes(self):
        one_kb = np.zeros(128)  # 1024 bytes of float64
        cache = ComputationCache(max_bytes=3000)
        for i in range(4):
            cache.insert(cache_key("ns", (one_kb + i,)), (one_kb + i,))
        s = cache.stats()
        assert s.memory_bytes <= 3000
        assert s.evictions >= 1

    def test_lru_order(self):
        cache = ComputationCache(max_items=2)
        a, b, c = (np.full(2, float(i)) for i in range(3))
        ka, kb, kc = (cache_key("ns", (v,)) for v in (a, b, c))
        cache.insert(ka, (a,))
        cache.insert(kb, (b,))
        cache.fetch(ka)  # touch a so b becomes least-recently-used
        cache.insert(kc, (c,))
        assert cache.fetch(ka) is not None
        assert cache.fetch(kb) is None

    def test_clear(self):
        cache = ComputationCache()
        cache.insert(cache_key("ns", (np.eye(2),)), (np.eye(2),))
        cache.clear()
        s = cache.stats()
        assert s.memory_entries == 0 and s.memory_bytes == 0

    def test_invalid_limits(self):
        with pytest.raises(ValidationError):
            ComputationCache(max_items=0)
        with pytest.raises(ValidationError):
            ComputationCache(max_bytes=0)

    def test_trace_counters_mirrored(self):
        cache = ComputationCache()
        x = np.eye(3)
        trace = Trace("test")
        with use_trace(trace):
            cache.memoize("aff", (x,), {}, lambda: (x,))
            cache.memoize("aff", (x,), {}, lambda: (x,))
        assert trace.metrics.counter("cache.miss").value == 1.0
        assert trace.metrics.counter("cache.hit").value == 1.0
        assert trace.metrics.counter("cache.hit.aff").value == 1.0
        assert any(s.name == "graph_cache" for s in trace.spans)


class TestDiskStore:
    def test_round_trip_dense(self, tmp_path):
        d = str(tmp_path / "store")
        x = np.random.default_rng(0).normal(size=(7, 5))
        key = cache_key("ns", (x,))
        ComputationCache(directory=d).insert(key, (x, x * 2))
        # A fresh cache (fresh process stand-in) finds it on disk.
        got = ComputationCache(directory=d).fetch(key)
        assert got is not None
        np.testing.assert_array_equal(got[0], x)
        np.testing.assert_array_equal(got[1], x * 2)

    def test_round_trip_sparse(self, tmp_path):
        d = str(tmp_path / "store")
        sp = scipy.sparse.random(
            9, 9, density=0.4, random_state=1, format="csr"
        )
        key = cache_key("ns", (sp,))
        ComputationCache(directory=d).insert(key, (sp,))
        got = ComputationCache(directory=d).fetch(key)[0]
        assert scipy.sparse.issparse(got)
        np.testing.assert_array_equal(
            np.asarray(got.todense()), np.asarray(sp.todense())
        )

    def test_stats_and_clear(self, tmp_path):
        d = str(tmp_path / "store")
        cache = ComputationCache(directory=d)
        for i in range(3):
            cache.insert(cache_key("ns", (np.full(4, float(i)),)), (np.eye(2),))
        entries, nbytes = disk_store_stats(d)
        assert entries == 3 and nbytes > 0
        assert clear_disk_store(d) == 3
        assert disk_store_stats(d) == (0, 0)

    def test_missing_directory(self, tmp_path):
        missing = str(tmp_path / "nope")
        assert disk_store_stats(missing) == (0, 0)
        assert clear_disk_store(missing) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        d = tmp_path / "store"
        d.mkdir()
        key = cache_key("ns", (np.eye(2),))
        (d / f"{key}.npz").write_bytes(b"not an npz file")
        assert ComputationCache(directory=str(d)).fetch(key) is None


class TestActivation:
    def test_default_inactive(self):
        assert current_cache() is None

    def test_use_cache_scopes(self):
        cache = ComputationCache()
        with use_cache(cache):
            assert current_cache() is cache
            with use_cache(ComputationCache()) as inner:
                assert current_cache() is inner
            assert current_cache() is cache
        assert current_cache() is None


class TestParallel:
    def test_resolve_jobs(self):
        assert resolve_jobs() == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1
        assert resolve_jobs(8, n_tasks=2) == 2
        with use_jobs(4):
            assert resolve_jobs() == 4
        with pytest.raises(ValidationError):
            resolve_jobs(0)
        with pytest.raises(ValidationError):
            resolve_jobs(-2)

    def test_parallel_map_order_preserved(self):
        items = list(range(20))
        for jobs in (4, 1):
            with use_jobs(jobs):
                assert parallel_map(lambda i: i * i, items) == [
                    i * i for i in items
                ]

    def test_memoized_parallel_counts_once_per_item(self):
        cache = ComputationCache()
        xs = [np.full((4, 4), float(i)) for i in range(3)]
        with use_cache(cache), use_jobs(2):
            first = memoized_parallel(
                xs, lambda x: x * 2, namespace="ns",
                key_arrays=lambda x: (x,),
            )
            second = memoized_parallel(
                xs, lambda x: x * 2, namespace="ns",
                key_arrays=lambda x: (x,),
            )
        s = cache.stats()
        assert (s.hits, s.misses) == (3, 3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_memoized_parallel_without_cache(self):
        with use_jobs(2):
            out = memoized_parallel(
                [np.eye(2), np.eye(3)], lambda x: x + 1, namespace="ns",
                key_arrays=lambda x: (x,),
            )
        np.testing.assert_array_equal(out[0], np.eye(2) + 1)
        np.testing.assert_array_equal(out[1], np.eye(3) + 1)


class TestTransparency:
    """Caching/parallelism never change any numbers."""

    def test_affinities_parallel_matches_serial(self, small_dataset):
        serial = build_multiview_affinities(small_dataset.views, n_neighbors=8)
        with use_jobs(2):
            parallel = build_multiview_affinities(
                small_dataset.views, n_neighbors=8
            )
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_affinities_cached_match_uncached(self, small_dataset):
        uncached = build_multiview_affinities(small_dataset.views, n_neighbors=8)
        cache = ComputationCache()
        with use_cache(cache):
            cold = build_multiview_affinities(small_dataset.views, n_neighbors=8)
            warm = build_multiview_affinities(small_dataset.views, n_neighbors=8)
        for a, b, c in zip(uncached, cold, warm):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
        s = cache.stats()
        n_views = len(small_dataset.views)
        assert (s.hits, s.misses) == (n_views, n_views)

    def test_laplacians_cached_match_uncached(self, affinity_pair):
        uncached = build_laplacians(affinity_pair)
        with use_cache(ComputationCache()):
            cached = build_laplacians(affinity_pair)
        for a, b in zip(uncached, cached):
            np.testing.assert_array_equal(a, b)

    def test_umsc_fit_bit_identical(self, small_dataset):
        baseline = UnifiedMVSC(
            small_dataset.n_clusters, random_state=0
        ).fit(small_dataset.views)
        with use_cache(ComputationCache()):
            cached = UnifiedMVSC(
                small_dataset.n_clusters, random_state=0
            ).fit(small_dataset.views)
        with use_jobs(2):
            parallel = UnifiedMVSC(
                small_dataset.n_clusters, random_state=0
            ).fit(small_dataset.views)
        np.testing.assert_array_equal(baseline.labels, cached.labels)
        np.testing.assert_array_equal(baseline.labels, parallel.labels)
        np.testing.assert_array_equal(baseline.embedding, cached.embedding)

    def test_grid_sweep_no_redundant_computation(self, small_dataset):
        # Acceptance criterion: across a seeds x grid sweep sharing one
        # cache, each distinct graph/eigen computation happens exactly
        # once — a second identical sweep adds zero new misses — and the
        # scores are bit-identical to the uncached serial path.
        grid = {"lam": [0.5, 1.0], "n_neighbors": [8, 10]}

        def build(random_state=0, **params):
            return UnifiedMVSC(
                small_dataset.n_clusters, random_state=random_state, **params
            )

        def sweep_scores():
            points = []
            for seed in (0, 1, 2):
                result = grid_sweep(
                    small_dataset, build, grid, random_state=seed
                )
                points.extend(p.scores["acc"] for p in result.points)
            return points

        cache = ComputationCache()
        baseline = sweep_scores()
        with use_cache(cache), use_jobs(2):
            cached = sweep_scores()
        misses_after_first = cache.stats().misses
        with use_cache(cache), use_jobs(2):
            again = sweep_scores()
        s = cache.stats()
        assert s.misses == misses_after_first  # zero redundant computations
        assert s.hits > 0
        assert baseline == cached == again
