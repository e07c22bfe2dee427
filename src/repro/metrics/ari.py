"""Adjusted Rand index (ARI) and the pair counts behind it.

Pair-counting metrics: of all ``n(n-1)/2`` sample pairs, count agreements
(pairs grouped together in both labelings or apart in both).  ARI rescales
the Rand index (the fraction of agreeing pairs) so that random labelings
score ~0 and identical labelings score 1.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.confusion import contingency_matrix


def _comb2(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x choose 2`` as float."""
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def pairwise_counts(
    labels_true: np.ndarray, labels_pred: np.ndarray
) -> tuple[float, float, float, float]:
    """Pair-confusion counts ``(tp, fp, fn, tn)``.

    * ``tp`` — pairs together in both labelings;
    * ``fp`` — together in prediction only;
    * ``fn`` — together in truth only;
    * ``tn`` — apart in both.
    """
    c = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    n = c.sum()
    total_pairs = n * (n - 1.0) / 2.0
    tp = float(np.sum(_comb2(c)))
    same_pred = float(np.sum(_comb2(c.sum(axis=0))))
    same_true = float(np.sum(_comb2(c.sum(axis=1))))
    fp = same_pred - tp
    fn = same_true - tp
    tn = total_pairs - tp - fp - fn
    return tp, fp, fn, tn


def adjusted_rand_index(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """ARI in ``[-1, 1]``; ~0 for random labelings, 1 for identical ones.

    Uses the permutation-model expectation of Hubert & Arabie (1985).
    """
    c = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    n = c.sum()
    sum_comb = float(np.sum(_comb2(c)))
    sum_rows = float(np.sum(_comb2(c.sum(axis=1))))
    sum_cols = float(np.sum(_comb2(c.sum(axis=0))))
    total_pairs = n * (n - 1.0) / 2.0
    if total_pairs == 0:
        return 1.0
    expected = sum_rows * sum_cols / total_pairs
    max_index = (sum_rows + sum_cols) / 2.0
    denom = max_index - expected
    if denom == 0:  # both labelings are single-cluster or all-singletons
        return 1.0 if sum_comb == sum_rows == sum_cols else 0.0
    return float((sum_comb - expected) / denom)
