"""Ablation A4 — seed stability of one-stage vs two-stage discretization.

The paper's one-stage argument is partly about repeatability: K-means
discretization re-rolls the dice each run, the rotation/indicator updates
do not.  This bench quantifies it with the mean pairwise ARI between runs
(:func:`repro.evaluation.stability.stage_stability`, which ``repro
stability`` prints for one dataset).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # full protocol; deselect with -m "not slow"

from _config import bench_datasets, bench_runs, get_dataset

from repro.evaluation.stability import stability_score, stage_stability
from repro.evaluation.tables import format_rows


def run_stability() -> dict:
    n_runs = max(3, bench_runs())
    return {
        name: stage_stability(get_dataset(name), n_runs)
        for name in bench_datasets()
    }


def test_ablation_stability_prints(capsys, benchmark):
    scores = benchmark.pedantic(run_stability, rounds=1, iterations=1)
    rows = [
        [name, f"{one:.3f}", f"{two:.3f}", f"{one - two:+.3f}"]
        for name, (one, two) in scores.items()
    ]
    with capsys.disabled():
        print("\n=== Ablation A4: seed stability (mean pairwise ARI) ===")
        print(
            format_rows(
                ["dataset", "one-stage", "two-stage (1 K-means start)", "delta"],
                rows,
            )
        )
    wins = sum(1 for one, two in scores.values() if one >= two - 0.02)
    assert wins >= len(scores) - 1
    for one, _ in scores.values():
        assert one > 0.5  # the one-stage method is substantially repeatable


def test_benchmark_stability_score(benchmark):
    import numpy as np

    rng = np.random.default_rng(0)
    runs = [rng.integers(0, 5, size=500) for _ in range(8)]
    value = benchmark(stability_score, runs)
    assert -1.0 <= value <= 1.0
