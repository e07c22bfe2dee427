"""Tests for repro.core.sparse_model (sparse-graph variant)."""

import numpy as np
import pytest

from repro.core.sparse_model import SparseMVSC
from repro.datasets import make_multiview_blobs
from repro.exceptions import ValidationError
from repro.metrics import clustering_accuracy


@pytest.fixture(scope="module")
def easy():
    return make_multiview_blobs(
        240,
        3,
        view_dims=(10, 14),
        view_noise=(0.1, 0.25),
        view_distractors=(0.0, 0.0),
        view_outliers=(0.0, 0.0),
        confusion_schedule=[[], []],
        separation=6.5,
        random_state=8,
    )


class TestSparseMVSC:
    def test_recovers_clusters(self, easy):
        labels = SparseMVSC(3, random_state=0).fit_predict(easy.views)
        assert clustering_accuracy(easy.labels, labels) > 0.9

    def test_deterministic(self, easy):
        a = SparseMVSC(3, random_state=4).fit_predict(easy.views)
        b = SparseMVSC(3, random_state=4).fit_predict(easy.views)
        np.testing.assert_array_equal(a, b)

    def test_no_empty_clusters(self, easy):
        labels = SparseMVSC(3, random_state=1).fit_predict(easy.views)
        assert np.all(np.bincount(labels, minlength=3) >= 1)

    def test_comparable_to_dense(self, easy):
        from repro.core import UnifiedMVSC

        sparse_labels = SparseMVSC(3, random_state=0).fit_predict(easy.views)
        dense = UnifiedMVSC(3, random_state=0).fit(easy.views)
        sparse_acc = clustering_accuracy(easy.labels, sparse_labels)
        dense_acc = clustering_accuracy(easy.labels, dense.labels)
        assert sparse_acc > dense_acc - 0.1

    def test_validation(self, easy):
        with pytest.raises(ValidationError):
            SparseMVSC(0)
        with pytest.raises(ValidationError):
            SparseMVSC(2, weighting="chaos")
        with pytest.raises(ValidationError, match="exceeds"):
            SparseMVSC(10_000).fit_predict(easy.views)


def test_f_step_runs_no_scipy_sparse_algebra(easy, monkeypatch):
    """One F-step forms the fused Laplacian on its stored pattern only."""
    import scipy.sparse
    import scipy.sparse._compressed as compressed
    import scipy.sparse._data as data

    import repro.core.sparse_model as sparse_model
    import repro.graph.sparse as graph_sparse
    from repro.graph.sparse import sparse_knn_affinity, sparse_laplacian

    affinities = [sparse_knn_affinity(x, k=10) for x in easy.views]
    rep = sparse_model._SparseGraphs(
        affinities, [sparse_laplacian(w) for w in affinities], SparseMVSC(3)
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("the F-step ran scipy sparse algebra")

    for owner, name in (
        (compressed._cs_matrix, "_matmul_sparse"),
        (compressed._cs_matrix, "_binopt"),
        (compressed._cs_matrix, "sum"),
        (data._data_matrix, "_mul_scalar"),
        (scipy.sparse, "diags"),
        (graph_sparse, "sparse_laplacian"),
        (sparse_model, "sparse_laplacian"),
    ):
        monkeypatch.setattr(owner, name, forbidden)
    f, _ = rep.embed(np.array([0.2, 0.8]), None, None, None)
    assert f.shape == (240, 3)
