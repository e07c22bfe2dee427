"""Ablation A3 — graph construction choices.

Sweeps the affinity kind (self-tuning / gaussian / adaptive) and the
neighborhood size ``k`` for the unified framework on one benchmark.  The
expected shape: the self-tuning kernel is robust across ``k`` (the paper
family's default choice), and extreme ``k`` degrades accuracy.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # full protocol; deselect with -m "not slow"

from _config import bench_datasets, get_dataset

from repro.core import UnifiedMVSC
from repro.evaluation.tables import format_rows
from repro.metrics import clustering_accuracy

KINDS = ("self_tuning", "gaussian", "adaptive")
NEIGHBORS = (5, 10, 15, 20)


def run_graph_grid() -> dict:
    ds = get_dataset(bench_datasets()[0])
    out = {}
    for kind in KINDS:
        for k in NEIGHBORS:
            model = UnifiedMVSC(
                ds.n_clusters, graph=kind, n_neighbors=k, random_state=0
            )
            result = model.fit(ds.views)
            out[(kind, k)] = clustering_accuracy(ds.labels, result.labels)
    return out


def test_ablation_graphs_prints(capsys, benchmark):
    acc = benchmark.pedantic(run_graph_grid, rounds=1, iterations=1)
    rows = [
        [kind] + [f"{acc[(kind, k)]:.3f}" for k in NEIGHBORS] for kind in KINDS
    ]
    with capsys.disabled():
        ds_name = bench_datasets()[0]
        print(f"\n=== Ablation A3: graph kind x k on {ds_name} ===")
        print(format_rows(["kind"] + [f"k={k}" for k in NEIGHBORS], rows))

    values = list(acc.values())
    assert min(values) > 0.2
    # Self-tuning at moderate k is competitive with every alternative.
    best = max(values)
    st_mid = max(acc[("self_tuning", 10)], acc[("self_tuning", 15)])
    assert st_mid >= best - 0.15


def test_benchmark_adaptive_graph(benchmark):
    from repro.graph.adaptive import adaptive_neighbor_affinity
    from repro.graph.distance import pairwise_sq_euclidean

    ds = get_dataset(bench_datasets()[0])
    x = ds.views[0]
    s = benchmark(
        lambda: adaptive_neighbor_affinity(pairwise_sq_euclidean(x), k=10)
    )
    assert s.shape == (ds.n_samples, ds.n_samples)
