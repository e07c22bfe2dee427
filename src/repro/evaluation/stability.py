"""Clustering stability across seeds.

The paper's one-stage argument is partly about *stability*: K-means
discretization re-rolls the dice each run.  :func:`stability_score`
quantifies that as the mean pairwise ARI between runs, the standard
scalar stability summary (1 = perfectly repeatable).
:func:`stage_stability` is ablation A4, which ``repro stability`` and
``benchmarks/bench_ablation_stability.py`` print.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.exceptions import ValidationError
from repro.metrics.ari import adjusted_rand_index
from repro.utils.validation import check_labels


def stability_score(labelings) -> float:
    """Mean pairwise ARI between runs (1 = perfectly repeatable)."""
    runs = [check_labels(labels, f"labelings[{i}]") for i, labels in enumerate(labelings)]
    if len(runs) < 2:
        raise ValidationError("need at least 2 labelings")
    for i, labels in enumerate(runs):
        if labels.size != runs[0].size:
            raise ValidationError(
                f"labelings[{i}] has length {labels.size}, expected {runs[0].size}"
            )
    pairs = itertools.combinations(runs, 2)
    return float(np.mean([adjusted_rand_index(a, b) for a, b in pairs]))


def stage_stability(dataset, n_runs: int) -> tuple[float, float]:
    """Ablation A4 on one benchmark: the :func:`stability_score` of the
    tuned one-stage fit and of the two-stage pipeline with a single
    K-means start, each over ``n_runs`` seeds spawned from 0."""
    from repro.core import TwoStageMVSC
    from repro.core.tuning import recommended_params
    from repro.utils.rng import spawn_seeds

    params = recommended_params(dataset.name)
    seeds = spawn_seeds(0, n_runs)
    one = [
        params.build(dataset.n_clusters, random_state=s).fit(dataset.views).labels
        for s in seeds
    ]
    two = [
        TwoStageMVSC(
            dataset.n_clusters,
            gamma=params.gamma,
            n_neighbors=params.n_neighbors,
            n_init=1,  # a single K-means start exposes the lottery
            random_state=s,
        ).fit_predict(dataset.views)
        for s in seeds
    ]
    return stability_score(one), stability_score(two)
