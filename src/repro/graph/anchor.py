"""Anchor graphs: linear-time approximate affinities for large n.

The abstract motivates multi-view clustering with big data; dense n x n
graphs are the scalability bottleneck.  Anchor graphs (Liu, He & Chang,
ICML 2010) fix this: pick ``m << n`` anchor points, connect every sample to
its ``k`` nearest anchors with CAN-style closed-form weights, and represent
the affinity implicitly as

``W = Z Lambda^{-1} Z^T``,  ``Lambda = diag(Z^T 1)``

with row-stochastic ``Z`` of shape ``(n, m)``.  Because ``W``'s rows sum to
1, its normalized adjacency is ``W`` itself, and its spectral embedding is
obtained from the SVD of ``B = Z Lambda^{-1/2}`` in ``O(n m^2)`` — no n x n
matrix ever materializes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.backends import current_backend
from repro.exceptions import ValidationError
from repro.graph.distance import pairwise_sq_euclidean
from repro.utils.rng import check_random_state
from repro.utils.validation import check_matrix


def select_anchors(
    x: np.ndarray,
    n_anchors: int,
    *,
    method: str = "kmeans",
    n_iter: int = 5,
    random_state=None,
) -> np.ndarray:
    """Pick anchor points from the data.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Samples.
    n_anchors : int
        Number of anchors ``m``; must satisfy ``1 <= m <= n``.
    method : {"kmeans", "random"}
        ``kmeans`` runs a few Lloyd iterations from a k-means++ seed (the
        standard anchor selection); ``random`` samples points uniformly.
    n_iter : int
        Lloyd iterations for the ``kmeans`` method.
    random_state : int, Generator, or None

    Returns
    -------
    ndarray of shape (m, d)
    """
    x = check_matrix(x, "x")
    n = x.shape[0]
    if not 1 <= n_anchors <= n:
        raise ValidationError(f"n_anchors must be in [1, {n}], got {n_anchors}")
    rng = check_random_state(random_state)
    if method == "random":
        idx = rng.choice(n, size=n_anchors, replace=False)
        return x[idx].copy()
    if method == "kmeans":
        from repro.cluster.kmeans import KMeans

        result = KMeans(
            n_anchors, n_init=1, max_iter=n_iter, random_state=rng
        ).fit(x)
        return result.centers
    raise ValidationError(f"unknown anchor method: {method!r}")


def anchor_assignment(
    x: np.ndarray, anchors: np.ndarray, *, k: int = 5
) -> np.ndarray:
    """Row-stochastic sample-to-anchor weights ``Z``.

    Each sample connects to its ``k`` nearest anchors with the CAN
    closed-form weights (larger weight to nearer anchors; exact simplex
    rows).

    Returns
    -------
    ndarray of shape (n, m)
        At most ``k`` nonzeros per row; rows sum to 1.  The arithmetic
        after the distance computation is the active
        :class:`~repro.backends.ArrayBackend`'s ``anchor_can_weights``
        kernel (the reference backend is bit-identical to the
        pre-backend code).
    """
    x = check_matrix(x, "x")
    anchors = check_matrix(anchors, "anchors")
    if x.shape[1] != anchors.shape[1]:
        raise ValidationError(
            "x and anchors must share the feature dimension, got "
            f"{x.shape[1]} and {anchors.shape[1]}"
        )
    m = anchors.shape[0]
    if not 1 <= k <= m:
        k = max(1, min(k, m))
    d2 = pairwise_sq_euclidean(x, anchors)
    return current_backend().anchor_can_weights(d2, int(k))


def anchor_affinity_factor(z: np.ndarray) -> np.ndarray:
    """The factor ``B = Z Lambda^{-1/2}`` with ``W = B B^T``.

    ``W``'s rows sum to 1, so ``W`` *is* its own normalized adjacency and
    its top eigenvectors are the left singular vectors of ``B``.  Runs
    as the active backend's ``anchor_affinity_factor`` kernel.
    """
    z = check_matrix(z, "z")
    return current_backend().anchor_affinity_factor(z)


def anchor_affinity(z: np.ndarray) -> np.ndarray:
    """Materialize the dense ``W = Z Lambda^{-1} Z^T`` (small-n use only)."""
    b = anchor_affinity_factor(z)
    w = b @ b.T
    np.fill_diagonal(w, 0.0)
    return (w + w.T) / 2.0


def top_left_singular(b: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``c`` left singular vectors of ``b`` via its small Gram matrix.

    Thin SVD through the full eigendecomposition of ``b^T b``: cheap when
    ``b`` has few columns.  Returns the vectors and the whole Gram
    spectrum in descending order (the squared singular values).
    """
    values, vectors = np.linalg.eigh(b.T @ b)
    ranked = np.argsort(values)[::-1]
    order = ranked[:c]
    top_vals = np.maximum(values[order], 1e-300)
    return (b @ vectors[:, order]) / np.sqrt(top_vals)[None, :], values[ranked]


def gram_top_eigenpairs(
    gram: np.ndarray, n_pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """The top ``min(n_pairs, size)`` eigenpairs of a symmetric Gram matrix.

    Only that subset is solved for (``scipy.linalg.eigh`` with
    ``subset_by_index``), which is several times cheaper than a full
    decomposition when ``n_pairs`` is small.  Values come descending,
    with their eigenvectors as the matching columns.
    """
    size = gram.shape[0]
    values, vectors = scipy.linalg.eigh(
        gram, subset_by_index=[size - min(n_pairs, size), size - 1]
    )
    return values[::-1], vectors[:, ::-1]


def anchor_spectral_embedding(
    z: np.ndarray, n_components: int
) -> np.ndarray:
    """Spectral embedding of the anchor graph in ``O(n m^2)``.

    Returns the top-``n_components`` left singular vectors of
    ``B = Z Lambda^{-1/2}`` — the leading eigenvectors of the (implicitly
    normalized) anchor affinity, skipping nothing: the trivial constant
    eigenvector is retained to mirror :func:`spectral_embedding`'s
    convention of taking the bottom-``c`` Laplacian eigenvectors.
    """
    z = check_matrix(z, "z")
    n, m = z.shape
    if not 1 <= n_components <= min(n, m):
        raise ValidationError(
            f"n_components must be in [1, {min(n, m)}], got {n_components}"
        )
    return top_left_singular(anchor_affinity_factor(z), n_components)[0]
