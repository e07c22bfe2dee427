"""Method × scenario robustness matrix.

The scenario factory (:mod:`repro.datasets.scenarios`) makes failure
modes *declarative*; this harness makes the robustness claim *measured*:
it runs a grid of methods across a grid of scenarios and reports
ACC/NMI/ARI per cell, so "the unified framework degrades gracefully
under missing views / noise / imbalance" is a table, not an assertion.

* :func:`run_scenario_matrix` — execute the grid.  Rows are names from
  the one method registry (:mod:`repro.evaluation.registry`), and each
  cell is the experiment runner's seeded-run loop
  (:func:`~repro.evaluation.runner.run_seeds`): repeated seeds,
  aggregated mean±std, per-cell wall-clock, failures recorded per cell
  instead of aborting the sweep;
* :class:`ScenarioMatrix` — the result: ``grid(metric)`` for numeric
  access, :func:`format_matrix` for the paper-style table, ``to_dict``
  for bench reports and the ``repro scenarios run --json`` artifact.

Mask-aware rows (``IncompleteMVSC``) get a scenario's raw views and
observation masks.  Every other row sees the *effective* views
(mean-imputed when samples are missing — see
:meth:`~repro.datasets.scenarios.ScenarioData.effective_views`), so the
comparison stays honest: nobody silently reads data the scenario
declared unobserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.datasets.scenarios import (
    Scenario, available_scenarios, generate, get_scenario,
)
from repro.evaluation.runner import MethodScores, check_request, run_seeds
from repro.exceptions import ValidationError
from repro.utils.rng import spawn_seeds

#: Metrics the matrix reports by default (the robustness headline trio).
DEFAULT_MATRIX_METRICS = ("acc", "nmi", "ari")

#: Default method grid: the proposed method and its scaling variants
#: plus two strong complete-view baselines.
DEFAULT_MATRIX_METHODS = ("UMSC", "AnchorMVSC", "SparseMVSC", "ConcatSC")


@dataclass
class ScenarioMatrix:
    """The full method × scenario result grid."""

    methods: list
    scenarios: list
    metrics: tuple
    cells: dict = field(default_factory=dict)
    scenario_specs: dict = field(default_factory=dict)
    n_runs: int = 1
    base_seed: int = 0

    def cell(self, method: str, scenario: str) -> MethodScores:
        """Look up one cell; unknown coordinates raise."""
        key = (method, scenario)
        if key not in self.cells:
            raise ValidationError(
                f"no cell for method {method!r} × scenario {scenario!r}"
            )
        return self.cells[key]

    def grid(self, metric: str) -> np.ndarray:
        """Mean scores as a (methods × scenarios) array; NaN on failure."""
        if metric not in self.metrics:
            raise ValidationError(
                f"metric {metric!r} not in the matrix ({self.metrics})"
            )
        out = np.full((len(self.methods), len(self.scenarios)), np.nan)
        for i, method in enumerate(self.methods):
            for j, scenario in enumerate(self.scenarios):
                cell = self.cells[(method, scenario)]
                if cell.ok:
                    out[i, j] = cell.scores[metric].mean
        return out

    @property
    def failures(self) -> list:
        """Cells that raised, as (method, scenario, error) triples."""
        return [
            (method, scenario, cell.error)
            for (method, scenario), cell in self.cells.items()
            if not cell.ok
        ]

    def to_dict(self) -> dict:
        """JSON-ready representation (bench reports, ``--json``)."""
        return {
            "schema_version": 1,
            "methods": list(self.methods),
            "scenarios": list(self.scenarios),
            "metrics": list(self.metrics),
            "n_runs": self.n_runs,
            "base_seed": self.base_seed,
            "scenario_specs": {
                name: spec.to_dict()
                for name, spec in self.scenario_specs.items()
            },
            "cells": {
                f"{method}@{scenario}": {
                    "method": method,
                    "scenario": scenario,
                    "error": cell.error,
                    "seconds": (
                        None if cell.seconds is None else cell.seconds.mean
                    ),
                    "scores": {
                        m: {"mean": s.mean, "std": s.std}
                        for m, s in cell.scores.items()
                    },
                }
                for (method, scenario), cell in self.cells.items()
            },
        }


def run_scenario_matrix(
    methods=None,
    scenarios=None,
    *,
    n_samples: int | None = None,
    n_runs: int = 1,
    metrics=DEFAULT_MATRIX_METRICS,
    base_seed: int = 0,
    strict: bool = False,
) -> ScenarioMatrix:
    """Run a method grid across a scenario grid.

    Parameters
    ----------
    methods : sequence of str, optional
        Rows, as names from
        :func:`~repro.evaluation.registry.default_method_registry`
        (default :data:`DEFAULT_MATRIX_METHODS`).
    scenarios : sequence of str or Scenario, optional
        Columns; names resolve through the registry (default: every
        registered scenario).
    n_samples : int, optional
        Resize every scenario before generation (the quick-grid knob).
    n_runs : int
        Seeded repetitions per cell; scores aggregate to mean±std.
    metrics : tuple of str
        Metric names from :data:`repro.metrics.METRICS`.
    base_seed : int
        Master seed: scenario generation uses each scenario's own
        declared seed, method randomness derives from ``base_seed``.
    strict : bool
        Let the first cell failure propagate instead of recording it.
    """
    method_names = list(
        DEFAULT_MATRIX_METHODS if methods is None else methods
    )
    rows = check_request(method_names, n_runs, metrics)
    scenario_list = (
        list(scenarios) if scenarios is not None else available_scenarios()
    )
    specs: dict = {}
    for item in scenario_list:
        spec = item if isinstance(item, Scenario) else get_scenario(item)
        if spec.name in specs:
            raise ValidationError(
                f"duplicate scenario name {spec.name!r} in the grid"
            )
        # The size that runs is the size the matrix records.
        if n_samples is not None:
            spec = spec.with_size(n_samples)
        specs[spec.name] = spec

    seeds = spawn_seeds(base_seed, n_runs)
    matrix = ScenarioMatrix(
        methods=method_names,
        scenarios=list(specs),
        metrics=tuple(metrics),
        scenario_specs=specs,
        n_runs=n_runs,
        base_seed=base_seed,
    )
    for scenario_name, spec in specs.items():
        data = generate(spec)
        effective = replace(data.dataset, views=data.effective_views())
        for name, method in rows.items():
            if method.mask_aware:
                dataset, masks = data.dataset, data.masks
            else:
                dataset, masks = effective, None
            matrix.cells[(name, scenario_name)] = run_seeds(
                method, dataset, seeds, metrics=metrics, masks=masks, strict=strict
            )
    return matrix


def format_matrix(matrix: ScenarioMatrix, metric: str) -> str:
    """Render one metric's grid as a methods × scenarios table.

    The best mean per scenario column is marked with ``*`` (the paper's
    bolding convention); failed cells render as ``ERR``.
    """
    from repro.evaluation.tables import format_rows

    grid = matrix.grid(metric)
    best = np.full(grid.shape[1], -np.inf)
    for j in range(grid.shape[1]):
        col = grid[:, j]
        if np.any(np.isfinite(col)):
            best[j] = np.nanmax(col)
    rows = []
    for i, method in enumerate(matrix.methods):
        cells = []
        for j, scenario in enumerate(matrix.scenarios):
            value = grid[i, j]
            if not np.isfinite(value):
                cells.append("ERR")
            else:
                mark = "*" if value >= best[j] else ""
                cells.append(f"{value:.3f}{mark}")
        rows.append([method] + cells)
    return format_rows([f"{metric} \\ scenario"] + matrix.scenarios, rows)
