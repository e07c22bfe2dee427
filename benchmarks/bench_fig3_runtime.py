"""Figure 3 — runtime comparison across methods and scales.

The paper's efficiency argument: the unified one-stage method costs about
as much as plain multi-view spectral clustering (it replaces the K-means
stage with cheaper rotation/assignment updates) and far less than the
iterative co-regularization methods.  This bench times every method on a
size sweep of synthetic data and asserts that shape.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backends import use_backend
from repro.baselines import AMGL, CoRegSC, KernelAdditionSC
from repro.bench import BENCHES
from repro.core import TwoStageMVSC, UnifiedMVSC
from repro.datasets import make_multiview_blobs
from repro.evaluation.tables import format_rows
from repro.observability import Trace, use_trace
from repro.pipeline import ComputationCache, use_cache

SIZES = (150, 300, 600)


def _methods(c):
    return {
        "KernelAddSC": KernelAdditionSC(c, random_state=0),
        "CoRegSC": CoRegSC(c, random_state=0),
        "AMGL": AMGL(c, random_state=0),
        "TwoStageMVSC": TwoStageMVSC(c, random_state=0),
        "UMSC": UnifiedMVSC(c, random_state=0),
    }


def _dataset(n):
    return make_multiview_blobs(
        n, 5, view_dims=(30, 40, 20), separation=5.0, random_state=1
    )


def measure_runtimes() -> dict:
    """``{method: {n: seconds}}`` over the size sweep."""
    out: dict = {}
    for n in SIZES:
        ds = _dataset(n)
        for name, model in _methods(ds.n_clusters).items():
            start = time.perf_counter()
            if name == "UMSC":
                model.fit(ds.views)
            else:
                model.fit_predict(ds.views)
            out.setdefault(name, {})[n] = time.perf_counter() - start
    return out


@pytest.mark.slow
def test_fig3_runtime_prints(capsys, benchmark):
    times = benchmark.pedantic(measure_runtimes, rounds=1, iterations=1)
    rows = [
        [name] + [f"{times[name][n]:.2f}s" for n in SIZES] for name in times
    ]
    with capsys.disabled():
        print("\n=== Figure 3: runtime vs n ===")
        print(format_rows(["method"] + [f"n={n}" for n in SIZES], rows))

    largest = SIZES[-1]
    # Shape: UMSC is an iterative method — comparable to the iterative
    # co-regularization peer, and within a bounded factor (its iteration
    # count) of the one-shot fused-spectral pipeline.
    assert times["UMSC"][largest] < 5 * times["CoRegSC"][largest]
    assert times["UMSC"][largest] < 30 * times["KernelAddSC"][largest]
    for name in times:
        assert times[name][SIZES[-1]] > times[name][SIZES[0]] * 0.5


@pytest.mark.slow
def test_benchmark_umsc_medium(benchmark):
    # The tracked ``umsc_fit`` body at full size (n = 300).
    fit = BENCHES["umsc_fit"][1](quick=False)
    result = benchmark(fit)
    # Phase breakdown of one extra, untimed traced fit, persisted into
    # the benchmark JSON; the timed fits above run with no trace.
    with use_trace(Trace("fig3:umsc_medium")) as trace:
        fit()
    benchmark.extra_info["phase_seconds"] = trace.phase_totals()
    assert result.labels.shape == (300,)


def test_backend_smoke_float32_vs_numpy(capsys):
    """Fast, unmarked smoke check of the float32 backend on a real fit.

    Same fit under both backends on the smallest sweep size: the
    clusterings must agree exactly (ARI 1.0 — the float32 contract on
    well-separated data), and the measured speed ratio is printed for
    eyeballing.  No timing assertion: the ratio is hardware-dependent
    and ``repro bench compare`` is the gating tool.
    """
    from repro.metrics import evaluate_clustering

    ds = _dataset(SIZES[0])
    start = time.perf_counter()
    ref = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views).labels
    ref_s = time.perf_counter() - start
    start = time.perf_counter()
    with use_backend("float32"):
        alt = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views).labels
    alt_s = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"\n=== backend smoke: numpy {ref_s:.2f}s, float32 {alt_s:.2f}s "
            f"({ref_s / max(alt_s, 1e-9):.2f}x) ==="
        )
    assert evaluate_clustering(ref, alt, metrics=("ari",))["ari"] == 1.0


def test_cache_smoke_warm_vs_cold(capsys):
    """Fast, unmarked smoke check of the computation cache on a real fit.

    Two identical fits through one cache: the first (cold) populates it,
    the second (warm) must reuse every graph/eigen computation — a
    nonzero hit rate and zero new misses — with bit-identical labels.
    """
    ds = _dataset(SIZES[0])
    baseline = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views).labels
    cache = ComputationCache()
    with use_cache(cache):
        start = time.perf_counter()
        cold = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views).labels
        cold_s = time.perf_counter() - start
        misses_after_cold = cache.stats().misses
        start = time.perf_counter()
        warm = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views).labels
        warm_s = time.perf_counter() - start
    stats = cache.stats()
    with capsys.disabled():
        print(
            f"\n=== cache smoke: cold {cold_s:.2f}s, warm {warm_s:.2f}s, "
            f"hit rate {stats.hit_rate:.0%} ==="
        )
    assert stats.hit_rate > 0
    assert stats.misses == misses_after_cold  # warm pass recomputed nothing
    np.testing.assert_array_equal(baseline, cold)
    np.testing.assert_array_equal(baseline, warm)
