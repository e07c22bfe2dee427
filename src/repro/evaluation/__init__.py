"""Experiment harness: method registry, repeated-seed runner, tables.

This package regenerates the paper's evaluation artifacts:

* :mod:`repro.evaluation.registry` — every runnable method as a named
  factory: the paper's Tables II-IV rows (:data:`TABLE_METHODS`) plus the
  scaling variants and the mask-aware ``IncompleteMVSC``;
* :mod:`repro.evaluation.runner` — repeated runs with independent seeds,
  aggregated into mean/std per metric plus wall-clock time; both the
  result tables and the scenario matrix run through it;
* :mod:`repro.evaluation.tables` — plain-text rendering of the result
  tables in the paper's layout (methods x datasets, ``mean±std``);
* :mod:`repro.evaluation.sweeps` — parameter grids for the sensitivity
  figure and ablation benches;
* :mod:`repro.evaluation.curves` — convergence-history extraction for the
  convergence figure;
* :mod:`repro.evaluation.significance` — paired t-test / sign test for
  "significantly better" markings;
* :mod:`repro.evaluation.stability` — co-association, consensus labels,
  and the mean-pairwise-ARI stability score;
* :mod:`repro.evaluation.ascii_plots` — terminal renderings of the paper's
  figures (bars, heatmaps, line plots);
* :mod:`repro.evaluation.scenario_matrix` — the method × scenario
  robustness grid over the controlled scenario factory
  (:mod:`repro.datasets.scenarios`), one runner call per cell.
"""

from repro.evaluation.ascii_plots import bar_chart, heatmap, line_plot
from repro.evaluation.registry import (
    TABLE_METHODS,
    MethodSpec,
    default_method_registry,
    make_method,
)
from repro.evaluation.runner import (
    AggregatedScore,
    MethodScores,
    run_experiment,
    run_method_once,
)
from repro.evaluation.model_selection import (
    SelectionResult,
    select_umsc_unsupervised,
)
from repro.evaluation.reporting import render_metric_section, render_report
from repro.evaluation.significance import (
    compare_methods,
    paired_t_test,
    sign_test,
)
from repro.evaluation.stability import (
    coassociation_matrix,
    consensus_labels,
    stability_score,
)
from repro.evaluation.scenario_matrix import (
    DEFAULT_MATRIX_METHODS,
    DEFAULT_MATRIX_METRICS,
    ScenarioMatrix,
    format_matrix,
    run_scenario_matrix,
)
from repro.evaluation.sweeps import grid_sweep
from repro.evaluation.tables import format_metric_table, format_rows

__all__ = [
    "TABLE_METHODS",
    "MethodSpec",
    "default_method_registry",
    "make_method",
    "AggregatedScore",
    "MethodScores",
    "run_experiment",
    "run_method_once",
    "grid_sweep",
    "format_metric_table",
    "format_rows",
    "bar_chart",
    "heatmap",
    "line_plot",
    "compare_methods",
    "paired_t_test",
    "sign_test",
    "coassociation_matrix",
    "consensus_labels",
    "stability_score",
    "render_metric_section",
    "render_report",
    "SelectionResult",
    "select_umsc_unsupervised",
    "DEFAULT_MATRIX_METHODS",
    "DEFAULT_MATRIX_METRICS",
    "ScenarioMatrix",
    "format_matrix",
    "run_scenario_matrix",
]
