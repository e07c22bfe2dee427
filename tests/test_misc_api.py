"""Miscellaneous API-surface tests: exceptions, tuning search, reports."""

import numpy as np
import pytest

from repro.core.tuning import tune_umsc
from repro.exceptions import (
    ConvergenceWarning,
    DatasetError,
    NumericalError,
    ReproError,
    ValidationError,
)
from repro.metrics import evaluate_clustering
from repro.metrics.report import METRICS


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ValidationError, NumericalError, DatasetError):
            assert issubclass(exc, ReproError)

    def test_validation_is_value_error(self):
        # Callers using standard numpy idioms can catch ValueError.
        assert issubclass(ValidationError, ValueError)

    def test_dataset_is_key_error(self):
        assert issubclass(DatasetError, KeyError)

    def test_numerical_is_arithmetic_error(self):
        assert issubclass(NumericalError, ArithmeticError)

    def test_convergence_is_warning(self):
        assert issubclass(ConvergenceWarning, UserWarning)


class TestMetricRegistry:
    def test_metrics_registered(self):
        assert set(METRICS) == {
            "acc",
            "nmi",
            "purity",
            "ari",
            "fscore",
            "homogeneity",
            "completeness",
            "vmeasure",
        }

    def test_default_trio(self):
        scores = evaluate_clustering([0, 1], [0, 1])
        assert set(scores) == {"acc", "nmi", "purity"}

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="unknown metrics"):
            evaluate_clustering([0, 1], [0, 1], metrics=("acc", "vibes"))


class TestTuneUMSC:
    def test_tiny_grid_search(self, small_dataset):
        result = tune_umsc(
            small_dataset,
            grid={"lam": [1.0], "consensus": [0.0, 1.0]},
            metric="acc",
        )
        assert len(result.points) == 2
        best = result.best("acc")
        assert best.params["consensus"] in (0.0, 1.0)
        assert 0.0 <= best.scores["acc"] <= 1.0

    def test_best_reflects_scores(self, small_dataset):
        result = tune_umsc(
            small_dataset, grid={"n_neighbors": [6, 10]}, metric="acc"
        )
        best = result.best("acc")
        assert best.scores["acc"] == max(
            p.scores["acc"] for p in result.points
        )

    def test_shares_the_ambient_cache_or_a_fresh_one(
        self, small_dataset, monkeypatch
    ):
        from repro.core import tuning
        from repro.pipeline import ComputationCache, use_cache

        grid = {"lam": [0.5, 1.0]}
        ambient = ComputationCache()
        with use_cache(ambient):
            tune_umsc(small_dataset, grid=grid)
        # The second point varies only a solver parameter: its graphs hit.
        assert ambient.stats().hits > 0

        made = []

        class Recording(ComputationCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(tuning, "ComputationCache", Recording)
        tune_umsc(small_dataset, grid=grid)
        assert len(made) == 1 and made[0].stats().hits > 0


class TestUMSCResultType:
    def test_objective_nan_when_no_history(self):
        import math

        import numpy as np

        from repro.core.result import UMSCResult

        result = UMSCResult(
            labels=np.array([0, 1]),
            indicator=np.eye(2),
            embedding=np.eye(2),
            rotation=np.eye(2),
            view_weights=np.array([1.0]),
        )
        assert math.isnan(result.objective)

    def test_frozen(self):
        import numpy as np
        import pytest as _pytest

        from repro.core.result import UMSCResult

        result = UMSCResult(
            labels=np.array([0]),
            indicator=np.ones((1, 1)),
            embedding=np.ones((1, 1)),
            rotation=np.ones((1, 1)),
            view_weights=np.array([1.0]),
        )
        with _pytest.raises(AttributeError):
            result.n_iter = 5


class TestGPIResultType:
    def test_fields(self):
        import numpy as np

        from repro.linalg.gpi import gpi_stiefel

        a = np.eye(4)
        b = np.zeros((4, 2))
        res = gpi_stiefel(a, b, np.eye(4, 2), max_iter=2)
        assert isinstance(res.history, list)
        assert res.f.shape == (4, 2)
