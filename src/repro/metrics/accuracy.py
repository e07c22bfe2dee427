"""Clustering accuracy (ACC) via optimal label matching.

ACC is the fraction of samples correctly labeled under the *best* one-to-one
mapping between predicted clusters and true classes:

``ACC = max_perm  (1/n) sum_i  1[ y_i == perm(c_i) ]``

The maximization is a linear assignment problem on the contingency matrix,
solved with the from-scratch Hungarian algorithm in
:mod:`repro.metrics.hungarian`.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.confusion import contingency_matrix
from repro.metrics.hungarian import hungarian


def clustering_accuracy(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """ACC in ``[0, 1]``; 1 iff the clustering is a relabeling of the truth.

    Examples
    --------
    >>> clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    >>> clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1])
    0.5
    """
    c = contingency_matrix(labels_true, labels_pred)
    rows, cols = hungarian(-c.astype(np.float64))
    matched = int(np.sum(c[rows, cols]))
    return matched / float(np.sum(c))
