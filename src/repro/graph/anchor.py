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

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg

from repro.backends import current_backend
from repro.cluster.kmeans import KMeans
from repro.exceptions import ValidationError
from repro.graph.distance import pairwise_sq_euclidean
from repro.observability.trace import hot_span, metric_inc
from repro.utils.rng import check_random_state
from repro.utils.validation import check_matrix

#: Warm Gram solves (:func:`gram_top_eigenpairs`): Chebyshev filter
#: degree of the first pass and cap of every later one, most filter
#: passes before falling back to the dense solve,
#: and the residual bound, relative to the top eigenvalue, every checked
#: pair must meet.
WARM_DEGREE = 8
WARM_PASSES = 6
WARM_RTOL = 1e-11

#: Lloyd iterations :func:`select_anchors` runs to place the anchors.
ANCHOR_LLOYD_ITERS = 5


def select_anchors(
    x: np.ndarray, n_anchors: int, *, random_state=None
) -> np.ndarray:
    """Pick anchor points from the data.

    Runs :data:`ANCHOR_LLOYD_ITERS` Lloyd iterations from a k-means++
    seed (the standard anchor selection) and returns the centers.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Samples.
    n_anchors : int
        Number of anchors ``m``; must satisfy ``1 <= m <= n``.
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
    return KMeans(
        n_anchors, n_init=1, max_iter=ANCHOR_LLOYD_ITERS, random_state=rng
    ).fit(x).centers


def anchor_assignment(
    x: np.ndarray,
    anchors: np.ndarray,
    *,
    k: int = 5,
    distances: np.ndarray | None = None,
) -> np.ndarray:
    """Row-stochastic sample-to-anchor weights ``Z``.

    Each sample connects to its ``k`` nearest anchors with the CAN
    closed-form weights (larger weight to nearer anchors; exact simplex
    rows).  ``distances`` is a precomputed
    ``pairwise_sq_euclidean(x, anchors)``, for a caller that derives
    another statistic from the same matrix; the result is bit-identical
    to passing nothing.

    Returns
    -------
    ndarray of shape (n, m)
        At most ``k`` nonzeros per row; rows sum to 1.  The arithmetic
        after the distance computation is the active
        :class:`~repro.backends.ArrayBackend`'s ``anchor_can_weights``
        kernel (the reference backend is bit-identical to the
        pre-backend code), run inside an ``anchor.assign`` hot span.
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
    if distances is None:
        d2 = pairwise_sq_euclidean(x, anchors)
    else:
        d2 = check_matrix(distances, "distances", dtype=None)
        if d2.shape != (x.shape[0], m):
            raise ValidationError(
                f"distances must have shape ({x.shape[0]}, {m}), "
                f"got {d2.shape}"
            )
    with hot_span("anchor.assign", n=x.shape[0], m=m, k=int(k)):
        return current_backend().anchor_can_weights(d2, int(k))


def anchor_affinity_factor(z: np.ndarray) -> np.ndarray:
    """The factor ``B = Z Lambda^{-1/2}`` with ``W = B B^T``.

    ``W``'s rows sum to 1, so ``W`` *is* its own normalized adjacency and
    its top eigenvectors are the left singular vectors of ``B``.  Runs
    as the active backend's ``anchor_affinity_factor`` kernel.
    """
    z = check_matrix(z, "z")
    return current_backend().anchor_affinity_factor(z)


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


class WarmStart(NamedTuple):
    """What one Gram solve hands the next: see :func:`gram_top_eigenpairs`."""

    basis: np.ndarray  # (size, 2 n_pairs) top Ritz vectors, orthonormal
    cut: float  # top of the unwanted interval [0, cut]; always > 0


def gram_top_eigenpairs(
    gram: np.ndarray,
    scale: np.ndarray,
    n_pairs: int,
    warm: WarmStart | None = None,
) -> tuple[np.ndarray, np.ndarray, WarmStart | None]:
    """The top eigenpairs of a scaled symmetric PSD Gram, warm-startable.

    The matrix solved is ``G = D C D`` with ``C = gram`` and
    ``D = diag(scale)``.  Returns ``(values, vectors, next_warm)``: the
    top ``min(n_pairs + 1, size)`` values of ``G`` descending (the one
    past ``n_pairs`` measures the spectral gap), the top
    ``min(n_pairs, size)`` eigenvectors as matching columns, and a
    :class:`WarmStart` for the next solve of a nearby Gram (``None`` when
    ``size <= 2 n_pairs + 1`` leaves no room for its block, or when the
    Gram has rank ``<= 2 n_pairs`` and so no positive cut).

    With ``warm``, the previous ``2 n_pairs`` Ritz vectors go through a
    Chebyshev filter on ``[0, cut]``, then one QR and a Rayleigh-Ritz
    step, up to :data:`WARM_PASSES` times (fewer when the residual
    shrinks too slowly to reach the bound).  The filter applies ``G`` to
    a block ``X`` as ``scale * (C (scale * X))``, so the warm path forms
    no scaled ``(size, size)`` matrix.  The first pass has degree
    :data:`WARM_DEGREE`; each later pass takes only the degree its
    predecessor's residual and rate call for, capped there (see
    :func:`_pass_degree`).  The answer is accepted only when every one of
    the top ``n_pairs`` Ritz pairs ``(t, v)`` lies above the cut, has
    ``||G v - t v|| <= WARM_RTOL t_1``, and has at least half its norm
    inside the span of ``warm.basis``.  Otherwise, and without ``warm``,
    it is the dense ``scipy.linalg.eigh`` of ``C * scale scale^T`` with
    ``subset_by_index``, which costs ``O(size^3)`` however few pairs it
    keeps; each filter degree is one ``O(size^2 n_pairs)`` GEMM.  Each
    solve counts ``anchor.gram.warm`` or ``anchor.gram.dense``, and a
    warm attempt adds its operator column-products (filter and
    Rayleigh-Ritz) to ``anchor.gram.products``, inside an ``anchor.gram``
    hot span.
    """
    size = gram.shape[0]
    block = 2 * n_pairs
    with hot_span("anchor.gram", size=size, warm=warm is not None):
        if (
            warm is not None
            and size > block + 1
            and warm.basis.shape == (size, block)
        ):
            filtered = _filtered_pairs(gram, scale, warm, n_pairs)
            if filtered is not None:
                metric_inc("anchor.gram.warm")
                return filtered
        metric_inc("anchor.gram.dense")
        solved = block + 1 if size > block + 1 else min(n_pairs + 1, size)
        values, vectors = scipy.linalg.eigh(
            gram * np.multiply.outer(scale, scale),
            subset_by_index=[size - solved, size - 1],
        )
        values, vectors = values[::-1], vectors[:, ::-1]
        next_warm = None
        if solved > block:
            # Just above lambda_{2 n_pairs + 1}: the next Gram is nearby.
            next_warm = _warm_start(
                vectors[:, :block], 1.02 * float(values[block])
            )
        return values[: n_pairs + 1], vectors[:, :n_pairs], next_warm


def _warm_start(basis, cut: float) -> WarmStart | None:
    """A start for the next solve, or ``None`` without a positive cut:
    the filter maps ``[0, cut]`` through ``4 / cut``, which a Gram of
    rank ``<= 2 n_pairs`` (``lambda_{2 n_pairs + 1} = 0``) cannot give."""
    return WarmStart(basis, cut) if cut > 0.0 else None


@lru_cache(maxsize=8)
def _probe(size: int) -> np.ndarray:
    """The fixed pseudo-random probe column of :func:`_filtered_pairs`."""
    probe = np.random.default_rng(0).standard_normal((size, 1))
    probe.flags.writeable = False
    return probe


def _pass_degree(residual: float, top: float, last: float) -> int:
    """Degree of the filter pass after one that left ``residual``.

    ``top`` and ``last`` are that pass's ``n_pairs``-th and smallest kept
    Ritz values over the cut.  With the unwanted interval mapped to
    ``[-1, 1]``, ``|T_k|`` grows like ``cosh(k acosh(2 t - 1))`` above
    it, so the filter shrinks the error of the top pairs, relative to
    the largest eigenvalue left outside the block (at most ``last``), by
    at least ``exp(k rate) / 2`` with ``rate = acosh(2 top - 1) -
    acosh(max(2 last - 1, 1))``.  Degree ``k`` therefore takes the
    residual under :data:`WARM_RTOL` once ``k rate >= log(2 residual /
    WARM_RTOL)``; capped at :data:`WARM_DEGREE`, which a pass with no
    positive rate also gets.
    """
    rate = math.acosh(max(2.0 * top - 1.0, 1.0)) - math.acosh(
        max(2.0 * last - 1.0, 1.0)
    )
    if rate <= 0.0:
        return WARM_DEGREE
    need = math.log(2.0 * residual / WARM_RTOL) / rate
    return max(1, min(WARM_DEGREE, math.ceil(need)))


def _filtered_pairs(gram, scale, warm: WarmStart, n_pairs: int):
    """The warm path of :func:`gram_top_eigenpairs`; ``None`` if it fails.

    ``T_k(2 G / cut - I)`` stays within ``[-1, 1]`` on the unwanted
    ``[0, cut]`` and grows like ``cosh(k acosh(2 t / cut - 1))`` above
    it, so each pass shrinks the error of the top pairs by that factor.
    Residuals alone cannot tell the top pairs from lower ones when the
    basis has lost a leading direction, so one fixed pseudo-random
    column joins the first pass: the filter pulls any such direction in
    through it, and the accepted pairs then fall outside the basis'
    span.  Each later pass filters the top ``2 n_pairs`` Ritz vectors;
    the smallest of their values, which approaches ``lambda_{2 n_pairs}``
    from below, is the next cut.
    """
    size, block = gram.shape[0], 2 * n_pairs
    column = scale[:, None]
    # sqrt(4 / cut) D: twice the mapped operator is then
    # mapped C mapped - 2 I, so the three-term recurrence
    # T_{k+1} = 2 A T_k - T_{k-1} is one GEMM and three subtractions.
    mapped = column * math.sqrt(4.0 / warm.cut)

    def doubled(cur):
        out = gram @ (mapped * cur)
        out *= mapped
        out -= cur
        out -= cur
        return out

    x = np.hstack([warm.basis, _probe(size)])
    degree, last = WARM_DEGREE, None
    for left in reversed(range(WARM_PASSES)):
        prev, cur = x, 0.5 * doubled(x)
        for _ in range(degree - 1):
            nxt = doubled(cur)
            nxt -= prev
            prev, cur = cur, nxt
        metric_inc("anchor.gram.products", (degree + 1) * x.shape[1])
        q = np.linalg.qr(cur)[0]
        gq = column * (gram @ (column * q))
        values, rotation = np.linalg.eigh(q.T @ gq)
        rotation = rotation[:, ::-1][:, :block]
        values = values[::-1][:block]
        x = q @ rotation
        top = x[:, :n_pairs]
        residual = np.linalg.norm(
            gq @ rotation[:, :n_pairs] - top * values[:n_pairs], axis=0
        ).max() / values[0]
        if residual <= WARM_RTOL:
            inside = np.linalg.norm(warm.basis.T @ top, axis=0)
            if values[n_pairs - 1] <= warm.cut or np.any(inside < 0.5):
                return None
            next_warm = _warm_start(x, float(values[-1]))
            return values[: n_pairs + 1], top, next_warm
        if last is not None:
            # Give up once this pass's reduction factor, repeated over
            # the passes left, cannot bring the residual under the bound:
            # residual * (residual / last)**left > WARM_RTOL, multiplied
            # through by last**left.
            if residual ** (left + 1) > WARM_RTOL * last**left:
                return None
        last = residual
        degree = _pass_degree(
            residual, values[n_pairs - 1] / warm.cut, values[-1] / warm.cut
        )
    return None
