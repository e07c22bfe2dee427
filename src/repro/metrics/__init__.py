"""Clustering evaluation metrics.

The multi-view clustering literature reports three headline numbers — ACC,
NMI, and Purity — plus occasionally ARI and the pairwise F-score.  All are
implemented here from first principles, including the Hungarian algorithm
that ACC's label matching requires.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "METRICS": "report",
    "clustering_accuracy": "accuracy",
    "adjusted_rand_index": "ari",
    "pairwise_counts": "ari",
    "contingency_matrix": "confusion",
    "pairwise_f_score": "fscore",
    "pairwise_precision_recall": "fscore",
    "hungarian": "hungarian",
    "entropy": "nmi",
    "mutual_information": "nmi",
    "normalized_mutual_information": "nmi",
    "purity_score": "purity",
    "evaluate_clustering": "report",
    "completeness_score": "vmeasure",
    "homogeneity_score": "vmeasure",
    "v_measure_score": "vmeasure",
})
