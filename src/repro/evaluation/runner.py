"""Repeated-seed experiment runner.

The paper's tables report ``mean ± std`` over repeated runs.  The runner
re-runs each method with independent seeds derived from one master seed
(dataset fixed, algorithmic randomness varying — the literature's protocol)
and aggregates every metric.  The scenario matrix
(:mod:`repro.evaluation.scenario_matrix`) runs each of its cells through
the same :func:`run_seeds`.

Runs are timed under the caller's run context, so with no trace active
the seconds are those of the production path.  A caller who wants the
per-phase breakdown (graph build / eigensolve / GPI / Y-step / ...)
wraps the call in :func:`~repro.observability.trace.use_trace` and
reads ``trace.phase_totals()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.single_view import all_single_view_labels
from repro.datasets.container import MultiViewDataset
from repro.evaluation.registry import (
    TABLE_METHODS,
    MethodSpec,
    default_method_registry,
)
from repro.exceptions import ReproError, ValidationError
from repro.metrics import METRICS, evaluate_clustering
from repro.robust.faults import maybe_inject, register_fault_site
from repro.robust.policy import failure_guard
from repro.utils.rng import spawn_seeds

_SITE_RUN = register_fault_site(
    "runner.run",
    "one seeded method run inside the experiment runner",
    modes=("raise", "delay"),
)


@dataclass(frozen=True)
class AggregatedScore:
    """Mean/std/raw values of one metric over repeated runs."""

    mean: float
    std: float
    values: tuple

    @classmethod
    def from_values(cls, values) -> "AggregatedScore":
        arr = np.asarray(list(values), dtype=np.float64)
        return cls(float(arr.mean()), float(arr.std()), tuple(arr.tolist()))

    def __str__(self) -> str:
        return f"{self.mean:.3f}±{self.std:.3f}"


@dataclass
class MethodScores:
    """Aggregated metrics (plus timing) of one method on one dataset, or
    the typed ``error`` of the run that failed (``scores`` then empty)."""

    method: str
    dataset: str
    scores: dict = field(default_factory=dict)
    seconds: AggregatedScore | None = None
    n_runs: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_method_once(
    spec: MethodSpec,
    dataset: MultiViewDataset,
    seed: int,
    *,
    metrics=("acc", "nmi", "purity"),
    masks=None,
) -> tuple[dict, float]:
    """One seeded run of one method; returns (metric dict, seconds).

    Oracle rows (``SC_best`` / ``SC_worst``) cluster every view and take
    the per-metric best/worst, matching the literature's reporting.
    Mask-aware rows fit on ``(views, masks)``, with every sample observed
    when ``masks`` is None.  The run executes under the caller's run
    context, its trace included.
    """
    with failure_guard(_SITE_RUN):
        maybe_inject(_SITE_RUN)
        start = time.perf_counter()
        if spec.oracle is not None:
            per_view = all_single_view_labels(
                dataset.views, dataset.n_clusters, random_state=seed
            )
            elapsed = time.perf_counter() - start
            candidates = [
                evaluate_clustering(
                    dataset.labels, labels, metrics=tuple(metrics)
                )
                for labels in per_view
            ]
            select = max if spec.oracle == "best" else min
            chosen = {
                m: select(c[m] for c in candidates) for m in metrics
            }
            return chosen, elapsed
        if spec.uses_dataset:
            estimator = spec.builder(dataset.n_clusters, seed, dataset.name)
        else:
            estimator = spec.builder(dataset.n_clusters, seed)
        if spec.mask_aware:
            if masks is None:
                observed = np.ones(dataset.n_samples, dtype=bool)
                masks = [observed] * dataset.n_views
            labels = estimator.fit_predict(dataset.views, masks)
        else:
            labels = estimator.fit_predict(dataset.views)
        elapsed = time.perf_counter() - start
        return (
            evaluate_clustering(dataset.labels, labels, metrics=tuple(metrics)),
            elapsed,
        )


def check_request(methods, n_runs: int, metrics) -> dict:
    """Registry specs of ``methods``, after checking a run request."""
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise ValidationError(f"unknown metrics: {unknown}")
    registry = default_method_registry()
    missing = [m for m in methods if m not in registry]
    if missing:
        raise ValidationError(
            f"unknown methods {missing}; available: {list(registry)}"
        )
    return {name: registry[name] for name in methods}


def run_seeds(
    spec: MethodSpec,
    dataset: MultiViewDataset,
    seeds,
    *,
    metrics,
    masks=None,
    strict: bool = True,
) -> MethodScores:
    """Every seeded run of one method on one dataset, aggregated.

    With ``strict=False`` the first failing run ends the method's runs
    and is returned as the result's ``error``; otherwise it propagates.
    """
    try:
        runs = [
            run_method_once(spec, dataset, seed, metrics=metrics, masks=masks)
            for seed in seeds
        ]
    except ReproError as exc:
        if strict:
            raise
        return MethodScores(
            spec.name, dataset.name, error=f"{type(exc).__name__}: {exc}"
        )
    return MethodScores(
        method=spec.name,
        dataset=dataset.name,
        scores={
            m: AggregatedScore.from_values(scores[m] for scores, _ in runs)
            for m in metrics
        },
        seconds=AggregatedScore.from_values(t for _, t in runs),
        n_runs=len(runs),
    )


def run_experiment(
    dataset: MultiViewDataset,
    *,
    methods=None,
    n_runs: int = 10,
    metrics=("acc", "nmi", "purity"),
    base_seed: int = 0,
) -> dict:
    """Run every requested method ``n_runs`` times on one dataset.

    Parameters
    ----------
    dataset : MultiViewDataset
        The benchmark to evaluate on.
    methods : sequence of str, optional
        Registry names to run; defaults to :data:`TABLE_METHODS`, the
        rows of Tables II-IV.
    n_runs : int
        Repetitions with independent seeds.
    metrics : tuple of str
        Metric names from :data:`repro.metrics.METRICS`.
    base_seed : int
        Master seed from which per-run seeds are derived.

    The runs execute under the caller's run context: its backend, job
    count, cache and trace (:mod:`repro.context`).  Under a
    :func:`~repro.pipeline.cache.use_cache` block every run after the
    first reuses the per-view graphs (they depend on the data, never on
    the seed); scores are bit-identical either way.

    Returns
    -------
    dict mapping method name to :class:`MethodScores`.
    """
    specs = check_request(
        TABLE_METHODS if methods is None else methods, n_runs, metrics
    )
    seeds = spawn_seeds(base_seed, n_runs)
    return {
        name: run_seeds(spec, dataset, seeds, metrics=metrics)
        for name, spec in specs.items()
    }
