"""One-call metric bundle for evaluation tables."""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.metrics.accuracy import clustering_accuracy
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.fscore import pairwise_f_score
from repro.metrics.nmi import normalized_mutual_information
from repro.metrics.purity import purity_score
from repro.metrics.vmeasure import (
    completeness_score,
    homogeneity_score,
    v_measure_score,
)

#: Metric registry: name -> callable(labels_true, labels_pred) -> float.
METRICS = {
    "acc": clustering_accuracy,
    "nmi": normalized_mutual_information,
    "purity": purity_score,
    "ari": adjusted_rand_index,
    "fscore": pairwise_f_score,
    "homogeneity": homogeneity_score,
    "completeness": completeness_score,
    "vmeasure": v_measure_score,
}


def evaluate_clustering(
    labels_true, labels_pred, *, metrics: tuple[str, ...] = ("acc", "nmi", "purity")
) -> dict[str, float]:
    """Compute a dict of clustering metrics.

    Parameters
    ----------
    labels_true, labels_pred : array-like of int
        Ground-truth classes and predicted clusters.
    metrics : tuple of str
        Keys of :data:`METRICS` to compute; defaults to the paper trio
        (ACC, NMI, Purity).

    Returns
    -------
    dict mapping metric name to float value.
    """
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise ValidationError(
            f"unknown metrics {unknown}; available: {sorted(METRICS)}"
        )
    return {m: float(METRICS[m](labels_true, labels_pred)) for m in metrics}
