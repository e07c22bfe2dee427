"""Tests for repro.graph.sparse."""

import numpy as np
import pytest
import scipy.sparse

from repro.exceptions import ValidationError
from repro.graph.sparse import sparse_knn_affinity, sparse_laplacian
from repro.linalg.eigen import eigsh_smallest


def _blobs(n_per=30, sep=12.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(size=(n_per, 3)) + sep * i for i in range(3)]
    )


class TestSparseKnnAffinity:
    def test_structure(self):
        x = _blobs()
        w = sparse_knn_affinity(x, k=8)
        assert scipy.sparse.issparse(w)
        assert w.shape == (90, 90)
        assert (abs(w - w.T) > 1e-12).nnz == 0
        assert w.diagonal().max() == 0.0
        assert w.data.min() >= 0.0

    def test_sparsity_bound(self):
        w = sparse_knn_affinity(_blobs(), k=5)
        # Union symmetrization: every row keeps its k outgoing edges, and
        # the *average* degree is bounded by 2k (hubs may exceed it).
        row_nnz = np.diff(w.indptr)
        assert row_nnz.min() >= 5
        assert row_nnz.mean() <= 10

    def test_blocks_do_not_change_result(self, monkeypatch):
        import repro.graph.sparse as sparse_mod

        x = _blobs(seed=1)
        b = sparse_knn_affinity(x, k=6)
        monkeypatch.setattr(sparse_mod, "QUERY_BLOCK", 7)
        a = sparse_knn_affinity(x, k=6)
        assert (abs(a - b) > 1e-12).nnz == 0

    def test_separates_far_blobs(self):
        x = _blobs(sep=50.0, seed=2)
        w = sparse_knn_affinity(x, k=5)
        dense = w.toarray()
        assert dense[:30, 30:].max() == 0.0

    def test_agrees_with_dense_recipe_on_kept_edges(self):
        from repro.graph.affinity import _self_tuning

        x = _blobs(seed=3)
        sparse_w = sparse_knn_affinity(x, k=8).toarray()
        dense_w = _self_tuning(x, 7)
        kept = sparse_w > 0
        np.testing.assert_allclose(sparse_w[kept], dense_w[kept], rtol=1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sparse_knn_affinity(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            sparse_knn_affinity(np.full((3, 2), np.nan))


class TestSparseLaplacian:
    def _w(self):
        return sparse_knn_affinity(_blobs(seed=4), k=6)

    def test_matches_dense_laplacian(self):
        from repro.graph.laplacian import laplacian

        # Vertex 2 of the second graph is isolated: it gets a zero row,
        # diagonal included.
        isolated = scipy.sparse.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        )
        for w in (self._w(), isolated):
            sparse_lap = sparse_laplacian(w).toarray()
            dense_lap = laplacian(w.toarray(), normalization="symmetric")
            np.testing.assert_allclose(sparse_lap, dense_lap, atol=1e-10)

    def test_psd_symmetric(self):
        lap = sparse_laplacian(self._w()).toarray()
        values = np.linalg.eigvalsh(lap)
        assert values.min() >= -1e-10
        assert values.max() <= 2.0 + 1e-10

    def test_validation(self):
        with pytest.raises(ValidationError, match="scipy sparse"):
            sparse_laplacian(np.eye(3))
        asym = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="symmetric"):
            sparse_laplacian(asym)


def _scipy_laplacian(w):
    """The symmetric Laplacian in scipy sparse algebra: the reference."""
    from repro.graph.laplacian import _inverse_or_zero

    degrees = np.asarray(w.sum(axis=1)).ravel()
    eye = scipy.sparse.identity(w.shape[0], format="csr")
    d_inv = scipy.sparse.diags(_inverse_or_zero(np.sqrt(degrees)))
    lap = eye - d_inv @ w @ d_inv
    return ((lap + lap.T) / 2.0).tocsr()


def _scipy_fused_laplacian(affinities, multipliers):
    """``sum_v m_v W_v`` in view order, then its Laplacian, all in scipy."""
    fused = multipliers[0] * affinities[0]
    for m_v, w_v in zip(multipliers[1:], affinities[1:]):
        fused = fused + m_v * w_v
    return _scipy_laplacian(fused.tocsr())


def _csr_bytes(a):
    return a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes()


@pytest.fixture(scope="module")
def knn_graphs():
    """Three k-NN affinities on 3-cluster views of each size, built once."""
    built = {}

    def graphs(n):
        if n not in built:
            rng = np.random.default_rng(n)
            truth = rng.integers(0, 3, n)[:, None] * 3.0
            built[n] = [
                sparse_knn_affinity(rng.normal(size=(n, d)) + truth, k=10)
                for d in (5, 8, 3)
            ]
        return built[n]

    return graphs


class TestFusedLaplacianKernel:
    """SparseMVSC's F-step operator is byte-equal to the scipy algebra.

    The representation forms ``L(sum_v m_v W_v)`` on a pattern fixed at
    build; the pin is on the CSR arrays themselves, since the Lanczos
    path (n > 4096) sums each row in stored order.
    """

    @staticmethod
    def _rep(affinities, weighting):
        from repro.core.sparse_model import SparseMVSC, _SparseGraphs

        model = SparseMVSC(3, weighting=weighting)
        return _SparseGraphs(
            affinities, [sparse_laplacian(w) for w in affinities], model
        )

    @pytest.mark.parametrize("n", [150, 600, 5000])
    def test_view_laplacians_byte_equal(self, knn_graphs, n):
        for w in knn_graphs(n):
            assert _csr_bytes(sparse_laplacian(w)) == _csr_bytes(
                _scipy_laplacian(w)
            )

    @pytest.mark.parametrize("weighting", ["exponential", "parameter_free"])
    @pytest.mark.parametrize("n", [150, 600, 5000])
    def test_fused_operator_byte_equal(self, knn_graphs, n, weighting):
        from repro.core.weights import fusion_multipliers

        affinities = knn_graphs(n)
        rep = self._rep(affinities, weighting)
        rng = np.random.default_rng(n + 1)
        for w in (np.full(3, 1 / 3), rng.dirichlet(np.ones(3))):
            m = fusion_multipliers(w, mode=weighting, gamma=rep.gamma)
            expected = _scipy_fused_laplacian(affinities, m)
            assert _csr_bytes(rep.operator(w)) == _csr_bytes(expected)

    def test_zero_multiplier_same_dense_operator(self, knn_graphs):
        from repro.linalg.eigen import eigsh_smallest

        affinities = knn_graphs(150)
        rep = self._rep(affinities, "parameter_free")
        w = np.array([0.0, 0.3, 0.7])
        got = rep.operator(w)
        expected = _scipy_fused_laplacian(affinities, w)
        # The kernel keeps the entries only view 0 stores, as zeros.
        assert got.nnz > expected.nnz
        assert got.toarray().tobytes() == expected.toarray().tobytes()
        assert (
            eigsh_smallest(got, 3)[1].tobytes()
            == eigsh_smallest(expected, 3)[1].tobytes()
        )


class TestSparseSpectralEmbedding:
    """The spectral embedding of a sparse graph: the bottom eigenvectors
    of its CSR Laplacian, by Lanczos."""

    def test_clusters_recoverable(self):
        from repro.cluster.kmeans import KMeans
        from repro.metrics import clustering_accuracy

        x = _blobs(sep=20.0, seed=5)
        w = sparse_knn_affinity(x, k=7)
        _, emb = eigsh_smallest(sparse_laplacian(w), 3)
        labels = KMeans(3, random_state=0).fit_predict(emb)
        truth = np.repeat(np.arange(3), 30)
        assert clustering_accuracy(truth, labels) > 0.95

    def test_matches_dense_subspace(self):
        from repro.cluster.spectral import spectral_embedding

        x = _blobs(seed=6)
        w = sparse_knn_affinity(x, k=8)
        _, sparse_emb = eigsh_smallest(sparse_laplacian(w), 3)
        dense_emb = spectral_embedding(w.toarray(), 3, row_normalize=False)
        # Same subspace: projector distance ~ 0.
        p_sparse = sparse_emb @ sparse_emb.T
        p_dense = dense_emb @ dense_emb.T
        assert np.max(np.abs(p_sparse - p_dense)) < 1e-6
