"""Parameter sweeps for the sensitivity figure and ablation benches."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.datasets.container import MultiViewDataset
from repro.exceptions import ValidationError
from repro.metrics import evaluate_clustering


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the parameter assignment and its metric values."""

    params: dict
    scores: dict
    seconds: float


@dataclass
class SweepResult:
    """All grid points of one sweep."""

    dataset: str
    points: list = field(default_factory=list)

    def best(self, metric: str) -> SweepPoint:
        """Grid point with the highest value of ``metric``."""
        if not self.points:
            raise ValidationError("sweep has no points")
        return max(self.points, key=lambda p: p.scores[metric])


def grid_sweep(
    dataset: MultiViewDataset,
    build,
    grid: dict,
    *,
    metrics=("acc", "nmi", "purity"),
    random_state: int = 0,
) -> SweepResult:
    """Evaluate a model builder over a parameter grid.

    Parameters
    ----------
    dataset : MultiViewDataset
        Benchmark to evaluate on.
    build : callable
        ``build(random_state=..., **params)`` returning an object with
        ``fit_predict(views)``.
    grid : dict
        Parameter name -> list of values; the sweep covers the Cartesian
        product.
    metrics : tuple of str
        Metrics to record at each point.
    random_state : int
        Shared seed so grid points differ only in the parameters.

    The points run under the caller's run context (:mod:`repro.context`),
    its trace included: wrap the call in
    :func:`~repro.observability.trace.use_trace` to record their phases.
    Under a :func:`~repro.pipeline.cache.use_cache` block, grid points
    that vary only in solver parameters reuse the same per-view graphs;
    scores are bit-identical either way.

    Returns
    -------
    SweepResult
    """
    if not grid:
        raise ValidationError("grid must contain at least one parameter")
    names = list(grid)
    result = SweepResult(dataset=dataset.name)
    for combo in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, combo))
        model = build(random_state=random_state, **params)
        start = time.perf_counter()
        labels = model.fit_predict(dataset.views)
        elapsed = time.perf_counter() - start
        scores = evaluate_clustering(
            dataset.labels, labels, metrics=tuple(metrics)
        )
        result.points.append(
            SweepPoint(params=params, scores=scores, seconds=elapsed)
        )
    return result
