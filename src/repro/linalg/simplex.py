"""Euclidean projection onto the probability simplex.

Kept apart from :mod:`repro.graph.adaptive`, its main user, because the
backends' anchor kernel needs it too and :mod:`repro.graph.adaptive`
imports :mod:`repro.backends`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix


def simplex_projection_rowwise(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Implements the sorting algorithm of Duchi et al. (ICML 2008),
    vectorized over rows.

    Parameters
    ----------
    v : ndarray of shape (n, m)

    Returns
    -------
    ndarray of shape (n, m)
        Each row is non-negative and sums to 1.
    """
    v = check_matrix(v, "v", allow_nonfinite=False)
    n, m = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, m + 1)
    cond = u - css / ind > 0
    # rho: last index where the condition holds (guaranteed at index 0).
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)
