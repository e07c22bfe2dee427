"""Tests for repro.graph.anchor (anchor graphs)."""

import numpy as np
import pytest
import scipy.linalg

from repro.exceptions import ValidationError
from repro.graph.anchor import (
    anchor_affinity_factor,
    anchor_assignment,
    gram_top_eigenpairs,
    select_anchors,
    top_left_singular,
)
from repro.graph.distance import pairwise_sq_euclidean
from repro.observability import Trace, use_trace


def _blobs(n_per=50, sep=10.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(size=(n_per, 3)) + sep * i for i in range(3)]
    )


class TestSelectAnchors:
    def test_kmeans_anchors_shape(self):
        anchors = select_anchors(_blobs(), 12, random_state=0)
        assert anchors.shape == (12, 3)

    def test_kmeans_anchors_cover_blobs(self):
        x = _blobs(sep=50.0)
        anchors = select_anchors(x, 9, random_state=2)
        # Every blob region contains at least one anchor.
        for i in range(3):
            center = np.full(3, 50.0 * i)
            dists = np.linalg.norm(anchors - center, axis=1)
            assert dists.min() < 10.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            select_anchors(_blobs(), 0)
        with pytest.raises(ValidationError):
            select_anchors(_blobs(), 151)


class TestAnchorAssignment:
    def test_rows_on_simplex(self):
        x = _blobs()
        anchors = select_anchors(x, 10, random_state=0)
        z = anchor_assignment(x, anchors, k=4)
        assert z.shape == (150, 10)
        assert np.all(z >= 0)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-8)

    def test_sparsity(self):
        x = _blobs()
        anchors = select_anchors(x, 15, random_state=1)
        z = anchor_assignment(x, anchors, k=3)
        assert np.all(np.count_nonzero(z, axis=1) <= 3)

    def test_nearest_anchor_weighted_most(self):
        x = np.array([[0.0, 0.0]])
        anchors = np.array([[0.5, 0.0], [3.0, 0.0], [9.0, 0.0]])
        z = anchor_assignment(x, anchors, k=2)
        assert z[0, 0] > z[0, 1] > 0
        assert z[0, 2] == 0.0

    def test_k_equals_m(self):
        x = _blobs(n_per=10)
        anchors = select_anchors(x, 5, random_state=2)
        z = anchor_assignment(x, anchors, k=5)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="feature dimension"):
            anchor_assignment(np.zeros((4, 3)), np.zeros((2, 5)))

    def test_precomputed_distances(self):
        x = _blobs()
        anchors = select_anchors(x, 10, random_state=3)
        d2 = pairwise_sq_euclidean(x, anchors)
        np.testing.assert_array_equal(
            anchor_assignment(x, anchors, k=4, distances=d2),
            anchor_assignment(x, anchors, k=4),
        )
        with pytest.raises(ValidationError, match=r"shape \(150, 10\)"):
            anchor_assignment(x, anchors, k=4, distances=d2[:, :9])


class TestAnchorAffinity:
    """The affinity ``W = B B^T`` the factor ``B = Z Lambda^{-1/2}`` stands for."""

    def _z(self, seed=0):
        x = _blobs(seed=seed)
        anchors = select_anchors(x, 12, random_state=seed)
        return anchor_assignment(x, anchors, k=4)

    def test_dense_affinity_properties(self):
        b = anchor_affinity_factor(self._z())
        w = b @ b.T
        assert w.shape == (150, 150)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.all(w >= -1e-12)
        # Row-stochastic, so W is its own normalized adjacency.
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)

    def test_factorization_consistent(self):
        z = self._z(seed=1)
        b = anchor_affinity_factor(z)
        w_full = z @ np.diag(1.0 / z.sum(axis=0)) @ z.T
        np.testing.assert_allclose(b @ b.T, w_full, atol=1e-12)

    def test_blocks_separate(self):
        x = _blobs(sep=40.0, seed=3)
        anchors = select_anchors(x, 12, random_state=3)
        b = anchor_affinity_factor(anchor_assignment(x, anchors, k=3))
        w = b @ b.T
        assert w[:50, 100:].max() == pytest.approx(0.0, abs=1e-12)


class TestAnchorSpectralEmbedding:
    """The anchor graph's spectral embedding in ``O(n m^2)``: the top left
    singular vectors of its factor ``B = Z Lambda^{-1/2}``."""

    def test_orthonormal_columns(self):
        x = _blobs(seed=4)
        anchors = select_anchors(x, 15, random_state=4)
        z = anchor_assignment(x, anchors, k=4)
        emb, _ = top_left_singular(anchor_affinity_factor(z), 3)
        np.testing.assert_allclose(emb.T @ emb, np.eye(3), atol=1e-8)

    def test_separates_blobs(self):
        from repro.cluster.kmeans import KMeans
        from repro.metrics import clustering_accuracy

        x = _blobs(sep=20.0, seed=5)
        anchors = select_anchors(x, 15, random_state=5)
        z = anchor_assignment(x, anchors, k=4)
        emb, _ = top_left_singular(anchor_affinity_factor(z), 3)
        labels = KMeans(3, random_state=0).fit_predict(emb)
        truth = np.repeat(np.arange(3), 50)
        assert clustering_accuracy(truth, labels) > 0.95


def _psd_grams(seed, size=120, c=3):
    """A random PSD Gram with ``c`` leading eigenvalues above a decaying
    tail, and a symmetric perturbation of it (the previous solve's)."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((size, size)))[0]
    tail = 0.6 * np.linspace(1.0, 0.0, size - c) ** 2
    gram = (q * np.concatenate([np.linspace(1.0, 0.85, c), tail])) @ q.T
    noise = rng.standard_normal((size, size))
    return gram + 1e-3 * (noise + noise.T) / np.sqrt(size), gram


def _anchor_grams(seed, n_new=20):
    """``(C, d)`` of a two-view anchor model before and after a batch of
    ``n_new`` rows joins, on frozen anchors: ``C = Z^T Z`` of the stacked
    assignment and ``d = sqrt(w_v) mass^{-1/2}`` at view weights 0.3 and
    0.7, so ``D C D`` is the fused factor's Gram."""
    rng = np.random.default_rng(seed)
    x = _blobs(n_per=100, sep=6.0, seed=seed)[rng.permutation(300)]
    views = [x, np.tanh(x @ rng.standard_normal((3, 5)))]
    anchors = [select_anchors(v, 40, random_state=seed) for v in views]
    pairs = []
    for n in (300 - n_new, 300):
        z = np.hstack(
            [anchor_assignment(v[:n], a, k=4) for v, a in zip(views, anchors)]
        )
        weight = np.repeat(np.sqrt([0.3, 0.7]), 40)
        pairs.append((z.T @ z, weight / np.sqrt(z.sum(axis=0))))
    return tuple(pairs)


def _scaled(gram, scale):
    """The explicitly scaled Gram ``D C D`` the dense fallback solves."""
    return gram * np.multiply.outer(scale, scale)


def _solve_counted(gram, scale, c, warm=None):
    trace = Trace("gram")
    with use_trace(trace):
        out = gram_top_eigenpairs(gram, scale, c, warm)
    return out, trace.metrics.snapshot()["counters"]


class TestGramTopEigenpairs:
    C = 3

    def _grams(self, kind, seed):
        """``((C, d), (C', d'))`` of the previous and the current solve."""
        if kind == "anchor":
            return _anchor_grams(seed)
        # C = G / s s^T, so D C D is the designed PSD Gram G itself.
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, 120)
        return tuple(
            (g / np.multiply.outer(scale, scale), scale)
            for g in _psd_grams(seed, c=self.C)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["psd", "anchor"])
    def test_warm_solve_matches_dense(self, kind, seed):
        c = self.C
        previous, (gram, scale) = self._grams(kind, seed)
        _, _, warm = gram_top_eigenpairs(*previous, c)
        assert warm.basis.shape == (gram.shape[0], 2 * c)
        (values, vectors, following), counters = _solve_counted(
            gram, scale, c, warm
        )
        assert set(counters) == {"anchor.gram.warm", "anchor.gram.products"}
        assert counters["anchor.gram.warm"] == 1.0
        ones = np.ones(gram.shape[0])
        dense_values, dense_vectors, _ = gram_top_eigenpairs(
            _scaled(gram, scale), ones, c
        )
        np.testing.assert_allclose(values[:c], dense_values[:c], rtol=1e-12)
        # Equal up to column signs, and spanning the same subspace.
        np.testing.assert_allclose(
            np.abs(vectors.T @ dense_vectors), np.eye(c), atol=1e-10
        )
        np.testing.assert_allclose(
            vectors @ vectors.T, dense_vectors @ dense_vectors.T, atol=1e-10
        )
        np.testing.assert_allclose(
            following.basis.T @ following.basis, np.eye(2 * c), atol=1e-12
        )
        assert following.cut < values[c - 1]

    @pytest.mark.parametrize(
        "start", ["random_basis", "orthogonal_basis", "cut_above", "too_small"]
    )
    @pytest.mark.parametrize("kind", ["psd", "anchor"])
    def test_unusable_start_returns_dense_answer(self, kind, start):
        c = self.C
        previous, (gram, scale) = self._grams(kind, 0)
        _, _, good = gram_top_eigenpairs(*previous, c)
        size = gram.shape[0]
        if start == "random_basis":
            noise = np.random.default_rng(0).standard_normal((size, 2 * c))
            warm = good._replace(basis=np.linalg.qr(noise)[0])
        elif start == "orthogonal_basis":
            # Pairs c+1 .. 3c: orthogonal to the top-c subspace.
            _, vectors = scipy.linalg.eigh(
                _scaled(gram, scale),
                subset_by_index=[size - 3 * c, size - c - 1],
            )
            warm = good._replace(basis=vectors)
        elif start == "cut_above":
            # Even this Gram's own basis: the filter would damp pair c.
            top, _, exact = gram_top_eigenpairs(gram, scale, c)
            warm = exact._replace(cut=1.05 * top[c - 1])
        else:
            gram = gram[: 2 * c + 1, : 2 * c + 1]
            scale = scale[: 2 * c + 1]
            warm = good._replace(basis=good.basis[: 2 * c + 1])
        # The dense solve of the explicitly scaled Gram, bit for bit.
        dense = gram_top_eigenpairs(
            _scaled(gram, scale), np.ones(gram.shape[0]), c
        )
        got, counters = _solve_counted(gram, scale, c, warm)
        # A rejected warm attempt still counts its operator products.
        counters.pop("anchor.gram.products", None)
        assert counters == {"anchor.gram.dense": 1.0}
        np.testing.assert_array_equal(got[0], dense[0])
        np.testing.assert_array_equal(got[1], dense[1])
        if start == "too_small":
            assert got[2] is None and dense[2] is None
        else:
            np.testing.assert_array_equal(got[2].basis, dense[2].basis)
            assert got[2].cut == dense[2].cut

    @pytest.mark.parametrize("kind", ["psd", "anchor"])
    def test_stalled_filter_gives_up_after_two_passes(self, kind, monkeypatch):
        c = self.C
        previous, (gram, scale) = self._grams(kind, 0)
        _, _, good = gram_top_eigenpairs(*previous, c)
        top = gram_top_eigenpairs(gram, scale, c)[0]
        passes = []
        qr = np.linalg.qr
        monkeypatch.setattr(
            np.linalg, "qr", lambda a: passes.append(a.shape) or qr(a)
        )
        # Above lambda_c the cut damps pair c, so the residual barely
        # moves between the first two passes.
        warm = good._replace(cut=1.05 * top[c - 1])
        _, counters = _solve_counted(gram, scale, c, warm)
        assert counters["anchor.gram.dense"] == 1.0
        assert "anchor.gram.warm" not in counters
        assert len(passes) == 2

    def test_zero_gram_hands_out_no_warm_start(self):
        gram, scale = np.zeros((20, 20)), np.ones(20)
        values, vectors, warm = gram_top_eigenpairs(gram, scale, 2)
        # lambda_5 = 0 leaves no positive cut, so the next solve is dense.
        assert warm is None
        (again, _, following), counters = _solve_counted(gram, scale, 2, warm)
        assert counters == {"anchor.gram.dense": 1.0}
        np.testing.assert_array_equal(again, values)
        assert following is None

    @pytest.mark.parametrize("kind", ["diagonal", "product"])
    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_rank_deficient_gram_chains_solves(self, kind, rank):
        c, size = self.C, 30
        if kind == "diagonal":
            # Exact zeros past the rank: lambda_{2c+1} is 0.0.
            spectrum = np.zeros(size)
            spectrum[:rank] = np.arange(rank, 0, -1.0)
            gram = np.diag(spectrum)
        else:
            # Rounding leaves lambda_{2c+1} a few ulps either side of 0.
            factor = np.random.default_rng(rank).standard_normal((size, rank))
            gram = factor @ factor.T
        dense = scipy.linalg.eigh(gram, eigvals_only=True)[::-1][: c + 1]
        warm = None
        for _ in range(3):
            values, vectors, warm = gram_top_eigenpairs(
                gram, np.ones(size), c, warm
            )
            assert warm is None or warm.cut > 0.0
            np.testing.assert_allclose(
                values, dense, atol=1e-12 * max(dense[0], 1.0)
            )
            np.testing.assert_allclose(
                vectors.T @ vectors, np.eye(c), atol=1e-10
            )
        if kind == "diagonal":
            assert warm is None
