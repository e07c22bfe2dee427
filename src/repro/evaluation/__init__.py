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
* :mod:`repro.evaluation.stability` — the mean-pairwise-ARI stability
  score across seeds;
* :mod:`repro.evaluation.scenario_matrix` — the method × scenario
  robustness grid over the controlled scenario factory
  (:mod:`repro.datasets.scenarios`), one runner call per cell.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "TABLE_METHODS": "registry",
    "MethodSpec": "registry",
    "default_method_registry": "registry",
    "AggregatedScore": "runner",
    "MethodScores": "runner",
    "run_experiment": "runner",
    "run_method_once": "runner",
    "grid_sweep": "sweeps",
    "format_metric_table": "tables",
    "format_rows": "tables",
    "stability_score": "stability",
    "DEFAULT_MATRIX_METHODS": "scenario_matrix",
    "DEFAULT_MATRIX_METRICS": "scenario_matrix",
    "ScenarioMatrix": "scenario_matrix",
    "format_matrix": "scenario_matrix",
    "run_scenario_matrix": "scenario_matrix",
})
