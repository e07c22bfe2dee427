"""Normalized mutual information (NMI).

``NMI(U, V) = I(U; V) / sqrt(H(U) H(V))``: the entropy normalizer is the
geometric mean, the literature's default and the one the paper's family of
methods reports.  Entropies use natural logarithms; the ratio does not
depend on the base.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.confusion import contingency_matrix


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of a labeling's empirical distribution."""
    arr = np.asarray(labels)
    _, counts = np.unique(arr, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def mutual_information(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Mutual information (nats) between two labelings of the same samples."""
    c = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    n = c.sum()
    pij = c / n
    pi = pij.sum(axis=1, keepdims=True)
    pj = pij.sum(axis=0, keepdims=True)
    nz = pij > 0
    ratio = np.zeros_like(pij)
    ratio[nz] = pij[nz] / (pi @ pj)[nz]
    mi = float(np.sum(pij[nz] * np.log(ratio[nz])))
    return max(mi, 0.0)  # clip tiny negative roundoff


def normalized_mutual_information(
    labels_true: np.ndarray,
    labels_pred: np.ndarray,
) -> float:
    """NMI in ``[0, 1]``; 1 iff the labelings are identical up to renaming.

    Parameters
    ----------
    labels_true, labels_pred : array-like of int
        Two labelings of the same samples.  The entropy normalizer is
        the geometric mean ``sqrt(H_u * H_v)``, the convention of the
        multi-view clustering literature.

    Notes
    -----
    When both labelings are single-cluster (both entropies zero) the
    labelings agree trivially and 1.0 is returned; when exactly one entropy
    is zero, 0.0 is returned.
    """
    h_u = entropy(labels_true)
    h_v = entropy(labels_pred)
    if h_u == 0.0 and h_v == 0.0:
        return 1.0
    if h_u == 0.0 or h_v == 0.0:
        return 0.0
    value = mutual_information(labels_true, labels_pred) / np.sqrt(h_u * h_v)
    return float(min(max(value, 0.0), 1.0))
