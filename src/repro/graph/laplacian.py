"""Graph Laplacians and degree utilities.

Given a symmetric non-negative affinity ``W`` with degree matrix
``D = diag(W 1)``, two Laplacian normalizations are built:

* unnormalized: ``L = D - W``;
* symmetric:    ``L_sym = I - D^{-1/2} W D^{-1/2}``.

The symmetric normalization is the default throughout the library, matching
the normalized-cut relaxation the paper's framework builds on.  Isolated
vertices (zero degree) are handled by treating their inverse degree as zero,
which leaves them as exact null-space directions.

Each public function validates its affinity exactly once and then runs
the private unchecked kernels, so a Laplacian computes its degrees once.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_symmetric


def _checked_affinity(w, name: str = "w") -> np.ndarray:
    """``w`` validated as a symmetric non-negative affinity (symmetrized)."""
    w = check_symmetric(w, name)
    if np.any(w < -1e-12):
        raise ValidationError("affinity must be non-negative")
    return w


def _degrees(w: np.ndarray) -> np.ndarray:
    return np.sum(np.maximum(w, 0.0), axis=1)


def _inverse_or_zero(v: np.ndarray) -> np.ndarray:
    """``1 / v``, zero where ``v`` is zero (isolated vertices)."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / v
    inv[~np.isfinite(inv)] = 0.0
    return inv


def _normalized_adjacency(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    inv_sqrt = _inverse_or_zero(np.sqrt(d))
    return (w * inv_sqrt[:, None]) * inv_sqrt[None, :]


def _laplacian(w: np.ndarray, d: np.ndarray, normalization: str) -> np.ndarray:
    """Unchecked :func:`laplacian` of a checked ``w`` with degrees ``d``."""
    n = w.shape[0]
    if normalization == "unnormalized":
        return np.diag(d) - w
    if normalization == "symmetric":
        lap = np.eye(n) - _normalized_adjacency(w, d)
        # Zero-degree vertices carry no normalized adjacency mass, so
        # ``I - A`` would leave a spurious 1 on their diagonal; zeroing it
        # keeps them exact null-space directions (the scipy convention and
        # what the component-counting argument for the null space assumes).
        iso = d <= 0.0
        lap[iso, iso] = 0.0
        return (lap + lap.T) / 2.0
    raise ValidationError(f"unknown normalization: {normalization!r}")


def normalized_adjacency(w: np.ndarray) -> np.ndarray:
    """Symmetrically normalized adjacency ``D^{-1/2} W D^{-1/2}``."""
    w = _checked_affinity(w)
    return _normalized_adjacency(w, _degrees(w))


def laplacian(w: np.ndarray, *, normalization: str = "symmetric") -> np.ndarray:
    """Graph Laplacian of a symmetric non-negative affinity.

    Parameters
    ----------
    w : ndarray of shape (n, n)
        Symmetric non-negative affinity with zero (or ignorable) diagonal.
    normalization : {"symmetric", "unnormalized"}
        Which Laplacian to build.

    Returns
    -------
    ndarray of shape (n, n)
        The requested Laplacian.  The symmetric variant is returned exactly
        symmetric; its eigenvalues lie in ``[0, 2]``.
    """
    w = _checked_affinity(w)
    return _laplacian(w, _degrees(w), normalization)
