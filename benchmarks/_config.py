"""Shared configuration and caching for the benchmark harness.

Every table/figure bench consumes the same repeated-seed experiment runs;
this module computes them once per process and caches them, so running the
full ``pytest benchmarks/ --benchmark-only`` session does each expensive
run exactly once.

Two environment knobs trade speed against fidelity:

* ``REPRO_BENCH_FULL=1``  — evaluate all seven benchmarks with 10 seeds
  (the paper's full protocol; takes a while on the large datasets).
* ``REPRO_BENCH_RUNS=N``  — override the seed count.

The default is the three fastest benchmarks with 3 seeds, which exercises
exactly the same code paths and preserves the comparison's shape.
"""

from __future__ import annotations

import os

from repro.datasets import available_benchmarks, load_benchmark
from repro.evaluation.runner import run_experiment

#: Fast subset used unless REPRO_BENCH_FULL is set.
FAST_DATASETS = ("three_sources", "msrcv1", "yale")

#: Metrics shared by Tables II-IV.
TABLE_METRICS = ("acc", "nmi", "purity")


def bench_datasets() -> tuple:
    """Datasets evaluated by the table benches."""
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return tuple(available_benchmarks())
    return FAST_DATASETS


def bench_runs() -> int:
    """Seed count for the repeated-run protocol."""
    env = os.environ.get("REPRO_BENCH_RUNS")
    if env:
        return max(1, int(env))
    return 10 if os.environ.get("REPRO_BENCH_FULL") == "1" else 3


_dataset_cache: dict = {}
_results_cache: dict = {}


def get_dataset(name: str):
    """Load (and cache) one benchmark dataset."""
    if name not in _dataset_cache:
        _dataset_cache[name] = load_benchmark(name)
    return _dataset_cache[name]


def get_table_results(name: str) -> dict:
    """Run (and cache) the full method comparison on one dataset."""
    if name not in _results_cache:
        _results_cache[name] = run_experiment(
            get_dataset(name),
            n_runs=bench_runs(),
            metrics=TABLE_METRICS,
            base_seed=0,
        )
    return _results_cache[name]


def all_table_results() -> dict:
    """``{dataset: {method: MethodScores}}`` for every bench dataset."""
    return {name: get_table_results(name) for name in bench_datasets()}
