"""Table I — dataset statistics.

Prints the paper's dataset-description table (name, samples, views,
per-view dimensionalities, clusters, the real dataset each mirrors), as
``repro datasets`` does.  The benchmark target measures dataset
generation time (the analogue of dataset loading in the original).
"""

from __future__ import annotations

from _config import bench_datasets

from repro.datasets import load_benchmark
from repro.evaluation.tables import format_dataset_table


def test_table1_prints(capsys, benchmark):
    table = benchmark.pedantic(
        format_dataset_table, args=(bench_datasets(),), rounds=1, iterations=1
    )
    with capsys.disabled():
        print("\n=== Table I: dataset statistics ===")
        print(table)
    # Every bench dataset appears with its declared statistics.
    for name in bench_datasets():
        assert name in table


def test_benchmark_dataset_generation(benchmark):
    ds = benchmark(load_benchmark, "msrcv1")
    assert ds.n_samples == 210
