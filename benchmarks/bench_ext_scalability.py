"""Extension bench — anchor-graph scalability (big-data motivation).

The abstract motivates multi-view clustering with large unlabeled
collections; dense n x n graphs do not scale.  This bench compares the
dense unified framework against its anchor-graph variant
(:class:`repro.core.anchor_model.AnchorMVSC`) over a size sweep, asserting
the expected shape: the anchor variant's runtime grows far slower while
accuracy stays in the same band.  A second sweep times the anchor
variant's cold fit alone at sizes where its growth in ``n`` shows, and
reports the log-log slope of CPU time against ``n``.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # full protocol; deselect with -m "not slow"

import time

import numpy as np

from repro.bench import BENCHES
from repro.core import UnifiedMVSC
from repro.core.anchor_model import AnchorMVSC
from repro.datasets import make_multiview_blobs
from repro.evaluation.tables import format_rows
from repro.metrics import adjusted_rand_index, clustering_accuracy

SIZES = (300, 600, 1200)
#: Anchor-only cold-fit sweep (one BLAS thread gives stable CPU times).
SCALING_SIZES = (2_000, 8_000, 32_000)


def _dataset(n):
    return make_multiview_blobs(
        n,
        5,
        view_dims=(25, 35),
        view_noise=(0.2, 0.4),
        separation=5.5,
        random_state=2,
    )


def measure() -> dict:
    out: dict = {}
    for n in SIZES:
        ds = _dataset(n)
        start = time.perf_counter()
        dense = UnifiedMVSC(5, random_state=0).fit(ds.views)
        t_dense = time.perf_counter() - start
        start = time.perf_counter()
        anchor_labels = AnchorMVSC(5, random_state=0).fit_predict(ds.views)
        t_anchor = time.perf_counter() - start
        out[n] = {
            "dense_acc": clustering_accuracy(ds.labels, dense.labels),
            "anchor_acc": clustering_accuracy(ds.labels, anchor_labels),
            "dense_s": t_dense,
            "anchor_s": t_anchor,
        }
    return out


def test_ext_scalability_prints(capsys, benchmark):
    data = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [
            n,
            f"{data[n]['dense_acc']:.3f}",
            f"{data[n]['dense_s']:.2f}s",
            f"{data[n]['anchor_acc']:.3f}",
            f"{data[n]['anchor_s']:.2f}s",
        ]
        for n in SIZES
    ]
    with capsys.disabled():
        print("\n=== Extension: anchor-graph scalability ===")
        print(
            format_rows(
                ["n", "dense ACC", "dense time", "anchor ACC", "anchor time"],
                rows,
            )
        )

    largest = SIZES[-1]
    # Anchor variant is faster at the largest size and not drastically
    # less accurate.
    assert data[largest]["anchor_s"] < data[largest]["dense_s"]
    assert data[largest]["anchor_acc"] > data[largest]["dense_acc"] - 0.25
    # Dense runtime grows superlinearly relative to the anchor variant.
    dense_growth = data[largest]["dense_s"] / max(data[SIZES[0]]["dense_s"], 1e-9)
    anchor_growth = data[largest]["anchor_s"] / max(
        data[SIZES[0]]["anchor_s"], 1e-9
    )
    assert anchor_growth < dense_growth


def test_benchmark_anchor_fit(benchmark):
    # The tracked ``anchor_fit`` body at full size (n = 800).
    labels = benchmark(BENCHES["anchor_fit"][1](quick=False))
    assert labels.shape == (800,)


def measure_anchor_scaling(sizes=SCALING_SIZES) -> dict:
    """CPU seconds and ARI of one ``AnchorMVSC`` cold fit per size."""
    out: dict = {}
    for n in sizes:
        ds = make_multiview_blobs(n, 5, view_dims=(10, 12), random_state=0)
        start = time.process_time()
        labels = AnchorMVSC(5, random_state=0).fit_predict(ds.views)
        out[n] = {
            "cpu_s": time.process_time() - start,
            "ari": adjusted_rand_index(ds.labels, labels),
        }
    return out


def loglog_slope(data: dict) -> float:
    """Least-squares slope of ``log(cpu_s)`` against ``log(n)``."""
    sizes = sorted(data)
    return float(
        np.polyfit(
            np.log(sizes), np.log([data[n]["cpu_s"] for n in sizes]), 1
        )[0]
    )


def test_anchor_cold_fit_scaling(capsys, benchmark):
    data = benchmark.pedantic(measure_anchor_scaling, rounds=1, iterations=1)
    slope = loglog_slope(data)
    rows = [
        [n, f"{data[n]['cpu_s']:.2f}s", f"{data[n]['ari']:.4f}"]
        for n in SCALING_SIZES
    ]
    with capsys.disabled():
        print("\n=== Extension: anchor cold-fit scaling ===")
        print(format_rows(["n", "CPU time", "ARI"], rows))
        print(f"log-log slope: {slope:.2f}")
    # Linear in n up to noise: the cold start no longer pays one n-row
    # descent per rotation restart.
    assert slope < 1.25
