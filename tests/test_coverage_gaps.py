"""Tests for less-traveled paths not covered elsewhere."""

import numpy as np
import pytest

from repro.metrics import clustering_accuracy


def _blobs(n_per=20, sep=10.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(size=(n_per, 2)) + sep * i for i in range(2)])


class TestSpectralNormalizations:
    @pytest.mark.parametrize(
        "normalization", ["symmetric", "unnormalized", "random_walk"]
    )
    def test_all_normalizations_cluster(self, normalization):
        # The bottom eigenvectors of every Laplacian separate two far blobs.
        from repro.cluster.kmeans import KMeans
        from repro.graph.affinity import build_view_affinity
        from repro.graph.laplacian import laplacian

        x = _blobs(sep=15.0, seed=1)
        lap = laplacian(build_view_affinity(x, k=6), normalization=normalization)
        values, vectors = np.linalg.eig(lap)  # L_rw is not symmetric
        bottom = vectors[:, np.argsort(values.real)[:2]].real
        labels = KMeans(2, random_state=0).fit_predict(bottom)
        truth = np.repeat([0, 1], 20)
        assert clustering_accuracy(truth, labels) == 1.0


class TestAnchorEdgeCases:
    def test_anchor_assignment_k_clipped(self):
        from repro.graph.anchor import anchor_assignment, select_anchors

        x = _blobs()
        anchors = select_anchors(x, 3, random_state=0)
        z = anchor_assignment(x, anchors, k=50)  # clipped to m
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-8)

    def test_anchor_mvsc_more_anchors_than_needed(self):
        from repro.core.anchor_model import AnchorMVSC
        from repro.datasets import make_multiview_blobs

        ds = make_multiview_blobs(
            80, 2, view_dims=(6, 8), confusion_schedule=[[], []],
            separation=7.0, random_state=0,
        )
        labels = AnchorMVSC(2, n_anchors=80, random_state=0).fit_predict(ds.views)
        assert clustering_accuracy(ds.labels, labels) > 0.9


class TestCLIExtendedDatasets:
    def test_table_accepts_extended_benchmark(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "table",
                "--datasets",
                "webkb",
                "--methods",
                "KernelAddSC",
                "--runs",
                "1",
            ],
            out=out,
        )
        assert code == 0
        assert "webkb" in out.getvalue()
