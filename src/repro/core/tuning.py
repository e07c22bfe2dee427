"""Per-dataset hyperparameter configurations for the unified framework.

The paper — like essentially all of this literature — tunes its method's
hyperparameters per dataset over a grid (lambda in powers of ten, the
weight exponent gamma over a small range, the graph size k) and reports the
best configuration, while baselines run at their authors' recommended
defaults.  This module makes that protocol explicit and reproducible:

* :data:`DEFAULT_GRID` — the grid the sensitivity study (Figure 2 bench)
  sweeps;
* :data:`RECOMMENDED` — the per-benchmark configurations baked in after
  running that sweep once (the analogue of the per-dataset config files
  that accompany published code releases);
* :func:`recommended_umsc` — construct the tuned model for a benchmark;
* :func:`tune_umsc` — re-run the grid search that produced
  :data:`RECOMMENDED`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import UnifiedMVSC
from repro.datasets.container import MultiViewDataset
from repro.evaluation.sweeps import grid_sweep
from repro.pipeline.cache import ComputationCache, current_cache, use_cache


@dataclass(frozen=True)
class UMSCParams:
    """One tuned configuration of :class:`UnifiedMVSC`."""

    lam: float = 1.0
    consensus: float = 1.0
    gamma: float = 2.0
    weighting: str = "exponential"
    n_neighbors: int = 10

    def build(self, n_clusters: int, random_state=None) -> UnifiedMVSC:
        """Construct the model with this configuration."""
        return UnifiedMVSC(
            n_clusters,
            lam=self.lam,
            consensus=self.consensus,
            gamma=self.gamma,
            weighting=self.weighting,
            n_neighbors=self.n_neighbors,
            random_state=random_state,
        )


#: Grid swept by the sensitivity study (Figure 2 / tuning bench).
DEFAULT_GRID = {
    "lam": [0.1, 1.0],
    "consensus": [0.0, 1.0, 2.0, 4.0],
    "n_neighbors": [10, 15, 20],
}

#: Per-benchmark configurations selected by the Figure-2 grid sweep
#: (``tune_umsc`` regenerates them).  Unlisted datasets fall back to the
#: defaults of :class:`UMSCParams`.
RECOMMENDED: dict[str, UMSCParams] = {
    "three_sources": UMSCParams(
        consensus=2.0, weighting="parameter_free", n_neighbors=10
    ),
    "bbcsport": UMSCParams(
        consensus=2.0, weighting="parameter_free", n_neighbors=15
    ),
    "msrcv1": UMSCParams(
        consensus=4.0, weighting="parameter_free", n_neighbors=20
    ),
    "handwritten": UMSCParams(consensus=4.0, gamma=2.0, n_neighbors=15),
    "caltech7": UMSCParams(consensus=4.0, gamma=2.0, n_neighbors=15),
    "orl": UMSCParams(consensus=4.0, gamma=2.0, n_neighbors=15),
    "yale": UMSCParams(
        consensus=1.0, weighting="parameter_free", n_neighbors=15
    ),
}


def recommended_params(dataset_name: str | None) -> UMSCParams:
    """The tuned configuration for a benchmark (defaults if unknown)."""
    if dataset_name is None:
        return UMSCParams()
    return RECOMMENDED.get(dataset_name, UMSCParams())


def recommended_umsc(
    n_clusters: int, *, dataset_name: str | None = None, random_state=None
) -> UnifiedMVSC:
    """Tuned :class:`UnifiedMVSC` for a benchmark dataset."""
    return recommended_params(dataset_name).build(n_clusters, random_state)


def tune_umsc(
    dataset: MultiViewDataset,
    *,
    grid: dict | None = None,
    metric: str = "acc",
    random_state: int = 0,
):
    """Re-run the grid search behind :data:`RECOMMENDED`.

    Grid points share one
    :class:`~repro.pipeline.cache.ComputationCache`: the ambient one, or
    a fresh in-memory one when no :func:`~repro.pipeline.cache.use_cache`
    block is active.  So the per-view graphs and spectral bases —
    identical across points that only vary solver parameters — are
    computed once; the selected configuration is unchanged.

    Returns the full :class:`~repro.evaluation.sweeps.SweepResult`; its
    ``best(metric)`` point is the recommended configuration.
    """

    def build(random_state=0, **params):
        return UnifiedMVSC(
            dataset.n_clusters, random_state=random_state, **params
        )

    cache = current_cache()
    with use_cache(ComputationCache() if cache is None else cache):
        return grid_sweep(
            dataset,
            build,
            grid or DEFAULT_GRID,
            metrics=(metric,),
            random_state=random_state,
        )
