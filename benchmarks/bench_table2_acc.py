"""Table II — clustering ACC (mean ± std) of all methods on all datasets.

The expected shape (see DESIGN.md): UMSC best or tied-best on most
datasets; multi-view methods above SC_worst; SC_best above SC_worst.
Absolute values differ from the paper (synthetic substitutes), but the
ordering is asserted.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # full protocol; deselect with -m "not slow"

from _config import all_table_results, bench_datasets, get_dataset

from repro.core import UnifiedMVSC
from repro.core.tuning import recommended_params
from repro.evaluation.tables import format_metric_table, summarize_ranks


def test_table2_acc_prints(capsys, benchmark):
    results = benchmark.pedantic(all_table_results, rounds=1, iterations=1)
    table = format_metric_table(results, "acc")
    ranks = summarize_ranks(results, "acc")
    with capsys.disabled():
        print("\n=== Table II: ACC ===")
        print(table)
        print("average rank:", {k: round(v, 2) for k, v in sorted(ranks.items(), key=lambda t: t[1])})

    for per_method in results.values():
        # Oracle consistency.
        assert (
            per_method["SC_best"].scores["acc"].mean
            >= per_method["SC_worst"].scores["acc"].mean
        )
        # The proposed method beats the worst single view everywhere.
        assert (
            per_method["UMSC"].scores["acc"].mean
            > per_method["SC_worst"].scores["acc"].mean
        )
    # Headline shape: UMSC has the best (lowest) average rank... allowing a
    # tie with one strong baseline.
    order = sorted(ranks, key=lambda k: ranks[k])
    assert "UMSC" in order[:2], f"UMSC rank order: {order}"


def test_benchmark_umsc_fit(benchmark):
    ds = get_dataset(bench_datasets()[0])
    params = recommended_params(ds.name)

    def fit():
        return params.build(ds.n_clusters, random_state=0).fit(ds.views)

    result = benchmark(fit)
    assert result.labels.shape == (ds.n_samples,)
