"""Tests for repro.graph.affinity."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.affinity import (
    build_view_affinity,
    cosine_affinity,
    gaussian_affinity,
    knn_sparsify,
    self_tuning_affinity,
)


def _two_blobs(n_per=15, sep=8.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 3))
    b = rng.normal(size=(n_per, 3)) + sep
    return np.vstack([a, b])


def _assert_valid_affinity(w, n):
    assert w.shape == (n, n)
    np.testing.assert_allclose(w, w.T, atol=1e-10)
    assert np.all(w >= 0)
    np.testing.assert_allclose(np.diag(w), 0.0, atol=1e-12)


class TestGaussianAffinity:
    def test_valid_affinity(self):
        x = _two_blobs()
        _assert_valid_affinity(gaussian_affinity(x), 30)

    def test_block_structure(self):
        x = _two_blobs(sep=20.0)
        w = gaussian_affinity(x, sigma=1.0)
        within = w[:15, :15][~np.eye(15, dtype=bool)].mean()
        across = w[:15, 15:].mean()
        assert within > 100 * max(across, 1e-300)

    def test_sigma_validation(self):
        with pytest.raises(ValidationError, match="sigma"):
            gaussian_affinity(_two_blobs(), sigma=-1.0)

    def test_larger_sigma_larger_weights(self):
        x = _two_blobs()
        w1 = gaussian_affinity(x, sigma=0.5)
        w2 = gaussian_affinity(x, sigma=5.0)
        off = ~np.eye(30, dtype=bool)
        assert np.all(w2[off] >= w1[off] - 1e-12)


class TestSelfTuningAffinity:
    def test_valid_affinity(self):
        _assert_valid_affinity(self_tuning_affinity(_two_blobs()), 30)

    def test_scale_invariance_of_structure(self):
        # Local scaling adapts: multiplying all coordinates by a constant
        # leaves the affinity unchanged.
        x = _two_blobs()
        w1 = self_tuning_affinity(x, k=5)
        w2 = self_tuning_affinity(10.0 * x, k=5)
        np.testing.assert_allclose(w1, w2, atol=1e-10)

    def test_k_clipped_to_n_minus_1(self):
        x = _two_blobs(n_per=3)
        w = self_tuning_affinity(x, k=100)
        _assert_valid_affinity(w, 6)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            self_tuning_affinity(np.zeros((1, 2)))


class TestCosineAffinity:
    def test_valid_and_bounded(self):
        x = np.abs(_two_blobs())
        w = cosine_affinity(x)
        _assert_valid_affinity(w, 30)
        assert np.all(w <= 1.0 + 1e-12)

    def test_parallel_rows_get_max(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]])
        w = cosine_affinity(x)
        assert w[0, 1] == pytest.approx(1.0)
        assert w[0, 2] == pytest.approx(0.5)


class TestKnnSparsify:
    def test_sparsity_level(self):
        x = _two_blobs()
        w = gaussian_affinity(x)
        sparse = knn_sparsify(w, 3)
        # Union rule: each row has between k and ~2k nonzeros.
        nnz = np.count_nonzero(sparse, axis=1)
        assert np.all(nnz >= 3)
        assert np.all(nnz <= 30)
        assert np.count_nonzero(sparse) < np.count_nonzero(w)

    def test_mutual_subset_of_union(self):
        w = gaussian_affinity(_two_blobs())
        union = knn_sparsify(w, 4, mutual=False)
        mutual = knn_sparsify(w, 4, mutual=True)
        assert np.all((mutual > 0) <= (union > 0))

    def test_preserves_kept_values(self):
        w = gaussian_affinity(_two_blobs())
        sparse = knn_sparsify(w, 5)
        kept = sparse > 0
        np.testing.assert_allclose(sparse[kept], w[kept])

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            knn_sparsify(np.zeros((4, 4)), 0)


class TestBuildViewAffinity:
    @pytest.mark.parametrize("kind", ["self_tuning", "gaussian", "cosine", "adaptive"])
    def test_all_kinds_valid(self, kind):
        x = np.abs(_two_blobs())
        w = build_view_affinity(x, kind=kind, k=5)
        _assert_valid_affinity(w, 30)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            build_view_affinity(_two_blobs(), kind="nope")

    def test_separates_blobs(self):
        from repro.cluster.spectral import spectral_clustering
        from repro.metrics import clustering_accuracy

        x = _two_blobs(sep=10.0)
        w = build_view_affinity(x, k=8)
        labels = spectral_clustering(w, 2, random_state=0)
        truth = np.repeat([0, 1], 15)
        assert clustering_accuracy(truth, labels) == 1.0


class TestSingleValidation:
    """The hot path validates each input exactly once per public call.

    Before the backend refactor every affinity kernel ran
    ``check_matrix`` on ``x`` and then the distance layer re-validated
    (and re-copied) the same array.  The kernels now take validated
    arrays straight to the backend; these spies pin that the duplicate
    stays removed.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        """Count ``check_matrix`` calls made on the raw feature matrix."""
        import repro.graph.adaptive as adaptive_mod
        import repro.graph.affinity as affinity_mod
        import repro.graph.distance as distance_mod
        import repro.graph.sparse as sparse_mod
        from repro.utils.validation import check_matrix

        calls = []

        def counting_check_matrix(x, name="x", **kwargs):
            calls.append(name)
            return check_matrix(x, name, **kwargs)

        for mod in (adaptive_mod, affinity_mod, distance_mod, sparse_mod):
            monkeypatch.setattr(mod, "check_matrix", counting_check_matrix)
        return calls

    @pytest.mark.parametrize(
        "kernel",
        [
            gaussian_affinity,
            lambda x: self_tuning_affinity(x, k=5),
            cosine_affinity,
        ],
        ids=["gaussian", "self_tuning", "cosine"],
    )
    def test_affinity_kernels_validate_once(self, spy, kernel):
        kernel(_two_blobs())
        assert len(spy) == 1, spy

    def test_distance_functions_validate_once(self, spy):
        from repro.graph.distance import (
            pairwise_cosine_distances,
            pairwise_sq_euclidean,
        )

        x = _two_blobs()
        pairwise_sq_euclidean(x)
        assert len(spy) == 1, spy
        spy.clear()
        pairwise_cosine_distances(x)
        assert len(spy) == 1, spy

    def test_build_view_affinity_validates_data_once(self, spy):
        # The recipe sparsifies the kernel's output without re-checking
        # it; the raw data matrix itself must be checked exactly once.
        build_view_affinity(_two_blobs(), k=5)
        assert len(spy) == 1, spy

    def test_pre_validated_still_rejects_bad_public_input(self, spy):
        bad = _two_blobs()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            gaussian_affinity(bad)
        assert len(spy) == 1, spy

    @pytest.mark.parametrize(
        "kind", ["self_tuning", "gaussian", "cosine", "adaptive"]
    )
    def test_build_view_affinity_never_rechecks_kernel_output(
        self, monkeypatch, spy, kind
    ):
        import repro.graph.affinity as affinity_mod
        from repro.utils.validation import check_square

        squares = []

        def counting_check_square(w, *args, **kwargs):
            squares.append(w)
            return check_square(w, *args, **kwargs)

        monkeypatch.setattr(affinity_mod, "check_square", counting_check_square)
        build_view_affinity(np.abs(_two_blobs()), kind=kind, k=5)
        # The CAN kernel's simplex projection checks its own intermediate
        # ("v"); the raw data is checked once and the output never.
        assert spy.count("x") == 1, spy
        assert squares == []

    def test_sparse_knn_affinity_validates_once_not_per_block(
        self, spy, monkeypatch
    ):
        import repro.graph.sparse as sparse_mod

        monkeypatch.setattr(sparse_mod, "QUERY_BLOCK", 7)
        sparse_mod.sparse_knn_affinity(_two_blobs(), k=5)
        assert spy == ["x"]
