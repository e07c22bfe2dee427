"""Tests for repro.evaluation (registry, runner, tables, sweeps, curves)."""

import numpy as np
import pytest

from repro.evaluation.curves import ConvergenceCurve, convergence_curve, sparkline
from repro.evaluation.registry import (
    TABLE_METHODS,
    default_method_registry,
)
from repro.evaluation.runner import (
    AggregatedScore,
    run_experiment,
    run_method_once,
)
from repro.evaluation.sweeps import grid_sweep
from repro.evaluation.tables import (
    format_metric_table,
    format_rows,
    summarize_ranks,
)
from repro.exceptions import ValidationError


class TestRegistry:
    def test_all_rows_present(self):
        assert TABLE_METHODS == (
            "SC_best",
            "SC_worst",
            "ConcatKMeans",
            "ConcatSC",
            "KernelAddSC",
            "CoRegSC",
            "CoTrainSC",
            "AMGL",
            "MLAN",
            "MVKM",
            "AWP",
            "SwMC",
            "TwoStageMVSC",
            "UMSC",
        )
        registry = default_method_registry()
        assert set(TABLE_METHODS) <= set(registry)
        assert set(registry) - set(TABLE_METHODS) == {
            "AnchorMVSC",
            "SparseMVSC",
            "IncompleteMVSC",
        }

    def test_builder_constructs(self, small_dataset):
        model = default_method_registry()["KernelAddSC"].builder(3, 0)
        assert model.fit_predict(small_dataset.views).shape == (90,)

    def test_builder_constructs_scaling_variant(self):
        from repro.core import AnchorMVSC

        builder = default_method_registry()["AnchorMVSC"].builder
        assert isinstance(builder(3, None), AnchorMVSC)


class TestAggregatedScore:
    def test_from_values(self):
        agg = AggregatedScore.from_values([0.5, 0.7])
        assert agg.mean == pytest.approx(0.6)
        assert agg.std == pytest.approx(0.1)
        assert str(agg) == "0.600±0.100"


class TestRunner:
    def test_run_method_once_regular(self, small_dataset):
        registry = default_method_registry()
        scores, seconds = run_method_once(
            registry["KernelAddSC"], small_dataset, seed=0
        )
        assert set(scores) == {"acc", "nmi", "purity"}
        assert all(0 <= v <= 1 for v in scores.values())
        assert seconds > 0

    def test_mask_aware_row_runs_with_all_observed_masks(
        self, small_dataset, monkeypatch
    ):
        from repro.core import IncompleteMVSC

        seen = []
        fit_predict = IncompleteMVSC.fit_predict

        def spy(self, views, masks):
            seen.append(masks)
            return fit_predict(self, views, masks)

        monkeypatch.setattr(IncompleteMVSC, "fit_predict", spy)
        spec = default_method_registry()["IncompleteMVSC"]
        scores, _ = run_method_once(spec, small_dataset, seed=0)
        assert 0 <= scores["acc"] <= 1
        (masks,) = seen
        assert len(masks) == small_dataset.n_views
        assert all(m.shape == (90,) and m.all() for m in masks)

    def test_oracle_best_geq_worst(self, small_dataset):
        registry = default_method_registry()
        best, _ = run_method_once(registry["SC_best"], small_dataset, seed=0)
        worst, _ = run_method_once(registry["SC_worst"], small_dataset, seed=0)
        for m in best:
            assert best[m] >= worst[m]

    def test_run_experiment_structure(self, small_dataset):
        results = run_experiment(
            small_dataset,
            methods=["KernelAddSC", "UMSC"],
            n_runs=2,
            metrics=("acc", "nmi"),
        )
        assert set(results) == {"KernelAddSC", "UMSC"}
        for scores in results.values():
            assert scores.n_runs == 2
            assert set(scores.scores) == {"acc", "nmi"}
            assert len(scores.scores["acc"].values) == 2

    def test_run_experiment_defaults_to_table_rows(
        self, small_dataset, monkeypatch
    ):
        import repro.evaluation.runner as runner

        ran = []
        monkeypatch.setattr(
            runner,
            "run_seeds",
            lambda spec, dataset, seeds, *, metrics: ran.append(spec.name),
        )
        results = run_experiment(small_dataset, n_runs=1)
        assert tuple(ran) == tuple(results) == TABLE_METHODS

    def test_run_experiment_runs_scaling_and_mask_aware_rows(
        self, small_dataset
    ):
        names = ("AnchorMVSC", "SparseMVSC", "IncompleteMVSC")
        results = run_experiment(small_dataset, methods=names, n_runs=1)
        assert tuple(results) == names
        for name, scores in results.items():
            assert scores.ok and scores.method == name
            assert 0 <= scores.scores["acc"].mean <= 1

    def test_run_experiment_validation(self, small_dataset):
        with pytest.raises(ValidationError):
            run_experiment(small_dataset, n_runs=0)
        with pytest.raises(ValidationError, match="unknown methods"):
            run_experiment(small_dataset, methods=["NotAMethod"])
        with pytest.raises(ValidationError, match="unknown metrics"):
            run_experiment(small_dataset, metrics=("acc", "f-zeta"))


class TestTables:
    def test_format_rows_alignment(self):
        text = format_rows(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_rows(["a"], [["1", "2"]])

    def test_format_metric_table_marks_best(self, small_dataset):
        results = run_experiment(
            small_dataset, methods=["KernelAddSC", "ConcatSC"], n_runs=1
        )
        table = format_metric_table({small_dataset.name: results}, "acc")
        assert "*" in table
        assert "KernelAddSC" in table and "ConcatSC" in table

    def test_summarize_ranks(self, small_dataset):
        results = run_experiment(
            small_dataset, methods=["KernelAddSC", "ConcatSC"], n_runs=1
        )
        ranks = summarize_ranks({small_dataset.name: results}, "acc")
        assert set(ranks) == {"KernelAddSC", "ConcatSC"}
        assert sorted(ranks.values()) == [1.0, 2.0]


class TestSweeps:
    def test_grid_sweep_covers_product(self, small_dataset):
        from repro.core import UnifiedMVSC

        def build(random_state=0, **params):
            model = UnifiedMVSC(3, random_state=random_state, **params)

            class _A:
                def fit_predict(self, views):
                    return model.fit(views).labels

            return _A()

        result = grid_sweep(
            small_dataset,
            build,
            {"lam": [0.1, 1.0], "gamma": [2.0]},
            metrics=("acc",),
        )
        assert len(result.points) == 2
        best = result.best("acc")
        assert best.scores["acc"] >= min(p.scores["acc"] for p in result.points)
        assert [p.params["lam"] for p in result.points] == [0.1, 1.0]

    def test_empty_grid_rejected(self, small_dataset):
        with pytest.raises(ValidationError):
            grid_sweep(small_dataset, lambda **k: None, {})


class TestCurves:
    def test_convergence_curve_monotone_ish(self, small_dataset):
        curve = convergence_curve(small_dataset, max_iter=10, random_state=0)
        assert isinstance(curve, ConvergenceCurve)
        assert curve.n_iter >= 1
        h = curve.history
        for a, b in zip(h, h[1:]):
            assert b <= a + 1e-3 * max(1.0, abs(a))

    def test_relative_drops_length(self, small_dataset):
        curve = convergence_curve(small_dataset, max_iter=6, random_state=0)
        assert len(curve.relative_drops()) == curve.n_iter - 1

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([3.0, 2.0, 1.0])
        assert len(line) == 3
        assert line[0] == "█" and line[-1] == "▁"


class TestTablesEdgeCases:
    def _fake_scores(self, method, dataset, acc):
        from repro.evaluation.runner import AggregatedScore, MethodScores

        return MethodScores(
            method=method,
            dataset=dataset,
            scores={"acc": AggregatedScore.from_values([acc])},
            seconds=AggregatedScore.from_values([0.1]),
            n_runs=1,
        )

    def test_missing_method_rendered_as_dash(self):
        results = {
            "ds1": {"A": self._fake_scores("A", "ds1", 0.9)},
            "ds2": {
                "A": self._fake_scores("A", "ds2", 0.8),
                "B": self._fake_scores("B", "ds2", 0.7),
            },
        }
        table = format_metric_table(results, "acc")
        assert "-" in table  # B has no ds1 entry

    def test_empty_results(self):
        assert "(no results)" in format_metric_table({}, "acc")

    def test_rank_ties_averaged_by_order(self):
        results = {
            "ds": {
                "A": self._fake_scores("A", "ds", 0.9),
                "B": self._fake_scores("B", "ds", 0.5),
            }
        }
        ranks = summarize_ranks(results, "acc")
        assert ranks["A"] == 1.0 and ranks["B"] == 2.0
