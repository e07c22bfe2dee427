"""Figure 2 — parameter sensitivity of the unified framework.

The paper's sensitivity figure sweeps the trade-off ``lambda`` (log grid)
and the weight exponent ``gamma``, showing a broad plateau of good ACC for
moderate values.  This bench regenerates the ACC surface on one benchmark
and asserts the plateau shape: the spread across the moderate region is
small, and the best point is not at the grid's extreme corners only.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # full protocol; deselect with -m "not slow"

import numpy as np
from _config import bench_datasets, get_dataset

from repro.core import UnifiedMVSC
from repro.evaluation.sweeps import grid_sweep
from repro.evaluation.tables import format_rows

LAMBDAS = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0]
GAMMAS = [1.5, 2.0, 4.0, 8.0]


def _build(random_state=0, **params):
    ds = get_dataset(bench_datasets()[0])
    return UnifiedMVSC(ds.n_clusters, random_state=random_state, **params)


def test_fig2_sensitivity_prints(capsys, benchmark):
    ds = get_dataset(bench_datasets()[0])

    def compute():
        return grid_sweep(
            ds,
            _build,
            {"lam": LAMBDAS, "gamma": GAMMAS},
            metrics=("acc",),
            random_state=0,
        )

    sweep = benchmark.pedantic(compute, rounds=1, iterations=1)
    acc = {}
    for p in sweep.points:
        acc[(p.params["lam"], p.params["gamma"])] = p.scores["acc"]

    rows = []
    for lam in LAMBDAS:
        rows.append(
            [lam] + [f"{acc[(lam, g)]:.3f}" for g in GAMMAS]
        )
    with capsys.disabled():
        print(f"\n=== Figure 2: ACC over lambda x gamma on {ds.name} ===")
        print(format_rows(["lam \\ gamma"] + [str(g) for g in GAMMAS], rows))

    values = np.array(list(acc.values()))
    # Plateau shape: once the discretization coupling is active
    # (lam in [1, 100]), ACC is flat in both lam and gamma.
    plateau = np.array(
        [acc[(lam, g)] for lam in LAMBDAS[3:] for g in GAMMAS]
    )
    assert plateau.max() - plateau.min() < 0.05
    # No catastrophic region anywhere on the grid.
    assert values.min() > 0.5 * values.max()
    assert values.min() > 0.2 and values.max() <= 1.0


def test_benchmark_one_grid_point(benchmark):
    ds = get_dataset(bench_datasets()[0])

    def run():
        return _build(random_state=0, lam=1.0, gamma=2.0).fit_predict(ds.views)

    labels = benchmark(run)
    assert labels.shape == (ds.n_samples,)
