"""Peak memory and block-edge bit-identity of the blocked kernels.

The distance, kNN, affinity, anchor and vote kernels of
:class:`~repro.backends.ArrayBackend` hold their output plus one row
block of scratch (:data:`repro.backends.base.BLOCK_ELEMS` elements).

* ``TestMemoryGates`` (marker ``memory``) measures each kernel's
  tracemalloc peak at a declared size, as a multiple of its own output
  array, under both shipped backends.  Before blocking the multiples
  were 2.0-5.2x; the gates sit just above the blocked kernels' figures.
* ``TestBlockEdges`` shrinks the block and compares every blocked kernel
  bit for bit with the whole-array formula it replaced, written out
  below as the reference, at row counts around the block step, with
  duplicated rows (exact distance ties) and under both backends.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

import repro.backends.base as base
from repro.backends import current_backend, use_backend
from repro.graph.affinity import build_view_affinity
from repro.graph.anchor import anchor_assignment
from repro.graph.distance import pairwise_cosine_distances, pairwise_sq_euclidean
from repro.graph.knn import kneighbors
from repro.linalg.simplex import simplex_projection_rowwise
from repro.serving import ModelArtifact, Predictor
from repro.serving.predictor import kernel_vote_scores

BACKENDS = ("numpy", "float32")


def _peak_bytes(fn):
    """``(result, peak)``: bytes ``fn`` allocated at its peak, over what
    was live when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


def _assert_within(peak, unit, bound, what):
    ratio = peak / unit
    assert ratio <= bound, f"{what}: peak {ratio:.3f}x (> {bound}x)"


@pytest.mark.memory
@pytest.mark.parametrize("backend", BACKENDS)
class TestMemoryGates:
    N = 2000

    def _x(self, n=N, d=10):
        return np.random.default_rng(0).standard_normal((n, d))

    def test_pairwise_sq_euclidean(self, backend):
        x = self._x()
        with use_backend(backend):
            d, peak = _peak_bytes(lambda: pairwise_sq_euclidean(x))
        _assert_within(peak, d.nbytes, 1.15, "pairwise_sq_euclidean(x)")

    @pytest.mark.parametrize("kind", ["self_tuning", "cosine", "gaussian"])
    def test_build_view_affinity(self, backend, kind):
        x = self._x()
        with use_backend(backend):
            w, peak = _peak_bytes(lambda: build_view_affinity(x, kind=kind))
        _assert_within(peak, w.nbytes, 2.5, f"build_view_affinity({kind})")

    def test_kneighbors_beyond_its_input(self, backend):
        with use_backend(backend):
            dist = np.sqrt(pairwise_sq_euclidean(self._x()))
            _, peak = _peak_bytes(lambda: kneighbors(dist, 10))
        _assert_within(peak, dist.nbytes, 0.15, "kneighbors over its input")

    def test_anchor_assignment(self, backend):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50_000, 8))
        anchors = rng.standard_normal((100, 8))
        with use_backend(backend):
            z, peak = _peak_bytes(lambda: anchor_assignment(x, anchors, k=5))
        _assert_within(peak, z.nbytes, 2.3, "anchor_assignment")

    def test_predict_scores_holds_one_distance_batch(self, backend):
        # The unit is one view's (queries, n_train) distance matrix, the
        # largest array a chunk needs; the scores are (queries, c).
        n = self.N
        rng = np.random.default_rng(2)
        views = [rng.standard_normal((2 * n, 10)) for _ in range(3)]
        predictor = Predictor(
            ModelArtifact(
                model_class="UnifiedMVSC",
                train_views=[v[:n] for v in views],
                train_labels=rng.integers(0, 5, n),
                view_weights=np.ones(3),
                n_clusters=5,
            )
        )
        queries = [v[n:] for v in views]
        with use_backend(backend):
            unit = n * n * current_backend().compute_dtype.itemsize
            _, peak = _peak_bytes(lambda: predictor.predict_scores(queries))
        _assert_within(peak, unit, 1.15, "Predictor.predict_scores")


# -- the whole-array formulas the blocked kernels replaced ------------------


def _ref_sq_euclidean(x, y=None):
    symmetric = y is None
    y = x if symmetric else y
    xx = np.einsum("ij,ij->i", x, x)
    yy = xx if symmetric else np.einsum("ij,ij->i", y, y)
    d = xx[:, None] + yy[None, :]
    g = x @ y.T
    g *= 2.0
    d -= g
    np.maximum(d, 0.0, out=d)
    if symmetric:
        np.fill_diagonal(d, 0.0)
        d = (d + d.T) / 2.0
    return d


def _ref_cosine_distances(x):
    xn = np.linalg.norm(x, axis=1)
    safe = np.where(xn > 0, xn, 1.0)
    sim = (x / safe[:, None]) @ (x / safe[:, None]).T
    sim[xn == 0, :] = 0.0
    sim[:, xn == 0] = 0.0
    d = 1.0 - sim
    np.clip(d, 0.0, 2.0, out=d)
    np.fill_diagonal(d, 0.0)
    dead = np.flatnonzero(xn == 0)
    d[dead, dead] = 1.0
    return (d + d.T) / 2.0


def _ref_knn(distances, k, include_self=False):
    work = distances.copy()
    n = work.shape[0]
    if not include_self:
        np.fill_diagonal(work, np.inf)
    part = np.argpartition(work, k - 1, axis=1)[:, :k]
    row = np.arange(n)[:, None]
    order = np.argsort(work[row, part], axis=1, kind="stable")
    idx = part[row, order]
    return idx, work[row, idx]


def _ref_knn_sparsify(w, k):
    n = w.shape[0]
    neg = -w.copy()
    np.fill_diagonal(neg, np.inf)
    idx, _ = _ref_knn(neg, k)
    mask = np.zeros_like(w, dtype=bool)
    mask[np.arange(n)[:, None], idx] = True
    mask = mask | mask.T
    out = np.where(mask, w, 0.0)
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, out.T)


def _ref_affinity(x, kind, k):
    """``build_view_affinity(x, kind=kind, k=k)`` as whole arrays."""
    n = x.shape[0]
    k_eff = max(1, min(k, n - 1))
    if kind == "cosine":
        sim = 1.0 - _ref_cosine_distances(x)
        w = (1.0 + sim) / 2.0
        np.clip(w, 0.0, 1.0, out=w)
    else:
        d2 = _ref_sq_euclidean(x)
        if kind == "gaussian":
            med = float(np.median(d2[~np.eye(n, dtype=bool)]))
            sigma = float(np.sqrt(med))
            w = np.exp(-d2 / (2.0 * sigma * sigma))
        else:
            _, knn_d = _ref_knn(np.sqrt(d2), min(7, k_eff))
            sigma = knn_d[:, -1]
            sigma = np.where(sigma > 0, sigma, np.finfo(d2.dtype).eps)
            w = np.exp(-d2 / np.outer(sigma, sigma))
    np.fill_diagonal(w, 0.0)
    return _ref_knn_sparsify((w + w.T) / 2.0, k_eff)


def _ref_can_weights(d2, k):
    n, m = d2.shape
    order = np.argsort(d2, axis=1)
    rows = np.arange(n)[:, None]
    nearest = order[:, : k + 1]
    d_sorted = d2[rows, nearest]
    d_k = d_sorted[:, k]
    d_topk = d_sorted[:, :k]
    denom = k * d_k - np.sum(d_topk, axis=1)
    eps = np.finfo(d2.dtype).eps
    denom = np.where(denom > eps, denom, eps)
    vals = simplex_projection_rowwise((d_k[:, None] - d_topk) / denom[:, None])
    z = np.zeros((n, m), dtype=vals.dtype)
    z[rows, nearest[:, :k]] = vals
    return z


def _ref_vote(d2, labels, n_clusters, k):
    n_queries, n_train = d2.shape
    k = max(1, min(k, n_train))
    idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    rows = np.arange(n_queries)[:, None]
    local = d2[rows, idx]
    sigma2 = np.maximum(local.max(axis=1, keepdims=True), 1e-12)
    kernel = np.exp(-local / sigma2)
    scores = np.zeros((n_queries, n_clusters))
    np.add.at(scores, (rows, labels[idx]), kernel)
    return scores


# -- block edges -------------------------------------------------------------

STEP = 4
#: Row counts around the block step: one block short of full, exactly
#: full, one row over, and two full blocks plus one row.
EDGE_ROWS = (STEP - 1, STEP, STEP + 1, 2 * STEP + 1)


def _rows_with_ties(n, d, seed):
    """``n`` rows whose first and last coincide (exact distance ties)."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    x[-1] = x[0]
    return x


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def step_of(monkeypatch):
    """Set the block so that ``n_cols``-wide rows block ``STEP`` at a time."""

    def set_for(n_cols):
        monkeypatch.setattr(base, "BLOCK_ELEMS", STEP * n_cols)

    return set_for


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", EDGE_ROWS)
class TestBlockEdges:
    def test_symmetrize(self, backend, n, step_of):
        # The distance kernels' inputs are often exactly symmetric
        # already, so the averaging is checked on a matrix that is not.
        step_of(n)
        with use_backend(backend):
            a = current_backend().prepare(
                np.random.default_rng(n).standard_normal((n, n))
            )
        want = (a + a.T) / 2.0
        base._symmetrize(a)
        _same_bits(a, want)

    def test_sq_euclidean_symmetric(self, backend, n, step_of):
        step_of(n)
        x = _rows_with_ties(n, 3, n)
        with use_backend(backend):
            got = pairwise_sq_euclidean(x)
            want = _ref_sq_euclidean(current_backend().prepare(x))
        _same_bits(got, want)

    def test_sq_euclidean_cross(self, backend, n, step_of):
        y = _rows_with_ties(7, 3, 1)
        step_of(y.shape[0])
        x = np.vstack([_rows_with_ties(n, 3, n)[:-1], y[:1]])
        with use_backend(backend):
            b = current_backend()
            got = pairwise_sq_euclidean(x, y)
            want = _ref_sq_euclidean(b.prepare(x), b.prepare(y))
        _same_bits(got, want)

    def test_cosine_distances(self, backend, n, step_of):
        step_of(n)
        x = _rows_with_ties(n, 3, n)
        x[min(1, n - 2)] = 0.0  # a dead row
        with use_backend(backend):
            got = pairwise_cosine_distances(x)
            want = _ref_cosine_distances(current_backend().prepare(x))
        _same_bits(got, want)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_kneighbors(self, backend, n, include_self, step_of):
        step_of(n)
        k = min(2, n - 1)
        with use_backend(backend):
            dist = np.sqrt(pairwise_sq_euclidean(_rows_with_ties(n, 3, n)))
            got = kneighbors(dist, k, include_self=include_self)
            want = _ref_knn(dist, k, include_self=include_self)
        for g, w in zip(got, want):
            _same_bits(g, w)

    @pytest.mark.parametrize("kind", ["self_tuning", "gaussian", "cosine"])
    def test_affinity(self, backend, n, kind, step_of):
        step_of(n)
        x = np.abs(_rows_with_ties(n, 3, n))
        with use_backend(backend):
            got = build_view_affinity(x, kind=kind, k=2)
            want = _ref_affinity(current_backend().prepare(x), kind, 2)
        _same_bits(got, want)

    def test_anchor_assignment(self, backend, n, step_of):
        anchors = _rows_with_ties(6, 3, 99)
        step_of(anchors.shape[0])
        x = _rows_with_ties(n, 3, n)
        x[0] = x[-1] = anchors[0]
        with use_backend(backend):
            b = current_backend()
            got = anchor_assignment(x, anchors, k=3)
            want = _ref_can_weights(
                _ref_sq_euclidean(b.prepare(x), b.prepare(anchors)), 3
            )
        _same_bits(got, want)

    def test_kernel_vote(self, backend, n, step_of):
        train = _rows_with_ties(9, 3, 5)
        step_of(train.shape[0])
        labels = np.arange(9) % 3
        with use_backend(backend):
            d2 = pairwise_sq_euclidean(_rows_with_ties(n, 3, n), train)
            got = kernel_vote_scores(d2, labels, 3, 4)
        _same_bits(got, _ref_vote(d2, labels, 3, 4))
