"""Tests for the method × scenario robustness matrix harness
(:mod:`repro.evaluation.scenario_matrix`).

The smoke grid is deliberately tiny (2 methods × 3 scenarios, small
``n``) — the point is structural: the grid completes, every score is
finite and in range, failures are recorded per cell rather than
aborting the sweep, and on the ``confused_pairs`` scenario fusion beats
the worst single view (the scenario's acceptance property).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.evaluation.runner as runner
from repro.baselines.single_view import all_single_view_labels
from repro.core import IncompleteMVSC, UnifiedMVSC
from repro.datasets.scenarios import Scenario, generate
from repro.evaluation.registry import MethodSpec, default_method_registry
from repro.evaluation.scenario_matrix import (
    DEFAULT_MATRIX_METHODS,
    format_matrix,
    run_scenario_matrix,
)
from repro.exceptions import RecoveryExhaustedError, ValidationError
from repro.metrics import evaluate_clustering
from repro.utils.rng import spawn_seeds

SMOKE_METHODS = ("UMSC", "ConcatSC")
SMOKE_SCENARIOS = ("clean", "confused_pairs", "missing_views")
SMOKE_N = 70


@pytest.fixture(scope="module")
def smoke_matrix():
    return run_scenario_matrix(
        methods=SMOKE_METHODS,
        scenarios=SMOKE_SCENARIOS,
        n_samples=SMOKE_N,
        n_runs=1,
        strict=True,
    )


class TestSmokeGrid:
    def test_grid_completes_with_finite_scores(self, smoke_matrix):
        assert smoke_matrix.failures == []
        for metric in ("acc", "nmi", "ari"):
            grid = smoke_matrix.grid(metric)
            assert grid.shape == (len(SMOKE_METHODS), len(SMOKE_SCENARIOS))
            assert np.all(np.isfinite(grid))
        # ACC and NMI live in [0, 1]; ARI may dip slightly below 0.
        assert np.all(smoke_matrix.grid("acc") >= 0)
        assert np.all(smoke_matrix.grid("acc") <= 1)
        assert np.all(smoke_matrix.grid("ari") >= -0.5)

    def test_cells_carry_timing_and_run_count(self, smoke_matrix):
        for method in SMOKE_METHODS:
            for scenario in SMOKE_SCENARIOS:
                cell = smoke_matrix.cell(method, scenario)
                assert cell.ok
                assert cell.n_runs == 1
                assert cell.seconds.mean >= 0

    def test_fusion_beats_worst_single_view_on_confused_pairs(
        self, smoke_matrix
    ):
        data = generate("confused_pairs", n_samples=SMOKE_N)
        worst = min(
            evaluate_clustering(data.labels, labels, metrics=("acc",))["acc"]
            for labels in all_single_view_labels(
                data.views, data.n_clusters, random_state=0
            )
        )
        fused = smoke_matrix.cell("UMSC", "confused_pairs").scores["acc"]
        assert fused.mean > worst

    def test_umsc_cell_is_default_unified_mvsc(self, smoke_matrix):
        # A scenario name is never a benchmark name, so the registry's
        # tuned UMSC row runs UnifiedMVSC's defaults on the effective views.
        data = generate("missing_views", n_samples=SMOKE_N)
        (seed,) = spawn_seeds(0, 1)
        labels = UnifiedMVSC(data.n_clusters, random_state=seed).fit_predict(
            data.effective_views()
        )
        acc = evaluate_clustering(data.labels, labels, metrics=("acc",))["acc"]
        cell = smoke_matrix.cell("UMSC", "missing_views")
        assert cell.scores["acc"].mean == acc

    def test_format_marks_best_per_column(self, smoke_matrix):
        text = format_matrix(smoke_matrix, "acc")
        for name in SMOKE_METHODS + SMOKE_SCENARIOS:
            assert name in text
        # At least one best marker per scenario column (ties share it).
        assert text.count("*") >= len(SMOKE_SCENARIOS)

    def test_to_dict_is_json_ready(self, smoke_matrix):
        import json

        payload = smoke_matrix.to_dict()
        assert payload["schema_version"] == 1
        assert payload["methods"] == list(SMOKE_METHODS)
        assert payload["scenarios"] == list(SMOKE_SCENARIOS)
        cell = payload["cells"]["UMSC@clean"]
        assert cell["error"] is None
        assert set(cell["scores"]) == {"acc", "nmi", "ari"}
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["scenario_specs"]["clean"]["name"] == "clean"

    def test_unknown_cell_lookup_raises(self, smoke_matrix):
        with pytest.raises(ValidationError, match="no cell"):
            smoke_matrix.cell("UMSC", "nope")
        with pytest.raises(ValidationError, match="not in the matrix"):
            smoke_matrix.grid("purity")


def _with_broken_row(monkeypatch, error):
    """Register a ``Broken`` row whose builder raises ``error``."""

    def broken(c, rs):
        raise error

    registry = {**default_method_registry(), "Broken": MethodSpec("Broken", broken)}
    monkeypatch.setattr(runner, "default_method_registry", lambda: registry)


class TestRegistryAndValidation:
    def test_registry_contains_core_and_baseline_rows(self):
        registry = default_method_registry()
        for name in DEFAULT_MATRIX_METHODS:
            assert name in registry
        assert registry["IncompleteMVSC"].mask_aware
        assert not registry["UMSC"].mask_aware

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown methods"):
            run_scenario_matrix(methods=("nope",), scenarios=("clean",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            run_scenario_matrix(methods=("UMSC",), scenarios=("nope",))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="unknown metrics"):
            run_scenario_matrix(
                methods=("UMSC",), scenarios=("clean",), metrics=("woo",)
            )

    def test_bad_n_runs_rejected(self):
        with pytest.raises(ValidationError, match="n_runs"):
            run_scenario_matrix(
                methods=("UMSC",), scenarios=("clean",), n_runs=0
            )

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ValidationError, match="duplicate scenario"):
            run_scenario_matrix(
                methods=("UMSC",), scenarios=("clean", "clean")
            )

    def test_inline_scenario_objects_accepted(self):
        spec = Scenario(
            name="inline",
            n_samples=50,
            n_clusters=3,
            view_dims=(6, 6),
            latent_dim=4,
        )
        matrix = run_scenario_matrix(
            methods=("ConcatSC",), scenarios=(spec,), strict=True
        )
        assert matrix.scenarios == ["inline"]
        assert matrix.cell("ConcatSC", "inline").ok


class TestMaskAwareAndFailures:
    def test_incomplete_method_consumes_masks(self):
        matrix = run_scenario_matrix(
            methods=("IncompleteMVSC",),
            scenarios=("missing_views",),
            n_samples=SMOKE_N,
            strict=True,
        )
        cell = matrix.cell("IncompleteMVSC", "missing_views")
        assert cell.ok
        assert np.isfinite(cell.scores["acc"].mean)

    def test_rows_see_raw_views_with_masks_or_effective_views(
        self, monkeypatch
    ):
        data = generate("missing_views", n_samples=SMOKE_N)
        seen = {}

        def run(method, cls, attr):
            original = getattr(cls, attr)

            def spy(self, *args):
                seen[method] = args
                return original(self, *args)

            monkeypatch.setattr(cls, attr, spy)
            run_scenario_matrix(
                methods=(method,),
                scenarios=("missing_views",),
                n_samples=SMOKE_N,
                strict=True,
            )

        run("IncompleteMVSC", IncompleteMVSC, "fit_predict")
        run("UMSC", UnifiedMVSC, "fit")
        views, masks = seen["IncompleteMVSC"]
        for got, want in zip(views + masks, data.views + data.masks, strict=True):
            np.testing.assert_array_equal(got, want)
        (views,) = seen["UMSC"]
        for got, want in zip(views, data.effective_views(), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_mask_aware_method_runs_on_complete_scenario(self):
        matrix = run_scenario_matrix(
            methods=("IncompleteMVSC",),
            scenarios=("clean",),
            n_samples=50,
            strict=True,
        )
        assert matrix.cell("IncompleteMVSC", "clean").ok

    def test_cell_failure_recorded_not_raised(self, monkeypatch):
        _with_broken_row(monkeypatch, ValidationError("wired to fail"))
        matrix = run_scenario_matrix(
            methods=("Broken", "ConcatSC"),
            scenarios=("clean",),
            n_samples=50,
        )
        cell = matrix.cell("Broken", "clean")
        assert not cell.ok
        assert "wired to fail" in cell.error
        assert matrix.cell("ConcatSC", "clean").ok
        assert ("Broken", "clean", cell.error) in matrix.failures
        assert np.isnan(matrix.grid("acc")[0, 0])
        assert "ERR" in format_matrix(matrix, "acc")

    def test_strict_reraises_first_failure(self, monkeypatch):
        _with_broken_row(monkeypatch, ValidationError("wired to fail"))
        with pytest.raises(ValidationError, match="wired to fail"):
            run_scenario_matrix(
                methods=("Broken",),
                scenarios=("clean",),
                n_samples=50,
                strict=True,
            )

    def test_strict_reraises_the_original_error(self, monkeypatch):
        error = RecoveryExhaustedError("solver gave up", site="model.fit")
        _with_broken_row(monkeypatch, error)
        with pytest.raises(RecoveryExhaustedError) as caught:
            run_scenario_matrix(
                methods=("Broken",),
                scenarios=("clean",),
                n_samples=50,
                strict=True,
            )
        assert caught.value is error
