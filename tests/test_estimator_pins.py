"""Label pins for every baseline, the two wrappers and K-means.

Each estimator is built with its defaults, as the evaluation registry
builds it (``Cls(c, random_state=seed)``), and fits one small fixture
at seeds 0 and 1.  The blake2b digest of the labels is pinned exactly,
so a change to any default, branch or call order shows.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.baselines import (
    AMGL,
    AWP,
    ConcatKMeans,
    ConcatSC,
    CoRegSC,
    CoTrainSC,
    KernelAdditionSC,
    MLAN,
    MultiViewKMeans,
    SingleViewSC,
    SwMC,
)
from repro.cluster.kmeans import KMeans
from repro.core.incomplete import IncompleteMVSC
from repro.core.two_stage import TwoStageMVSC
from repro.datasets import make_multiview_blobs
from repro.exceptions import ConvergenceWarning

N_SAMPLES = 72


def _dataset(seed: int):
    return make_multiview_blobs(
        N_SAMPLES,
        3,
        view_dims=(8, 12, 6),
        view_noise=(0.5, 0.8, 1.2),
        separation=2.5,
        random_state=seed,
    )


def _digest(labels) -> str:
    data = np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _baseline(cls):
    return lambda views, seed: cls(3, random_state=seed).fit_predict(views)


def _incomplete(views, seed):
    masks = [np.ones(N_SAMPLES, dtype=bool) for _ in views]
    masks[0][:12] = False
    masks[2][30:45] = False
    return IncompleteMVSC(3, random_state=seed).fit_predict(views, masks)


def _kmeans(views, seed):
    return KMeans(3, random_state=seed).fit_predict(np.hstack(views))


ESTIMATORS = {
    cls.__name__: _baseline(cls)
    for cls in (
        AMGL,
        AWP,
        ConcatKMeans,
        ConcatSC,
        CoRegSC,
        CoTrainSC,
        KernelAdditionSC,
        MLAN,
        MultiViewKMeans,
        SingleViewSC,
        SwMC,
        TwoStageMVSC,
    )
}
ESTIMATORS["IncompleteMVSC"] = _incomplete
ESTIMATORS["KMeans"] = _kmeans


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimator_labels_pinned(name, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        labels = ESTIMATORS[name](_dataset(seed).views, seed)
    assert _digest(labels) == PINS[name][seed]


#: Captured with every estimator at its defaults before the options only
#: the tests set were deleted.
PINS: dict = {
    "AMGL": {0: "9ea7bf22e37d2cf7", 1: "decbb60b9c859e54"},
    "AWP": {0: "2e774c244511dc39", 1: "bb4b960037ff95f2"},
    "CoRegSC": {0: "1682944b188a6ba6", 1: "7477e6847b13e486"},
    "CoTrainSC": {0: "285f6f2b6cceea82", 1: "38b52c3c07fea3fb"},
    "ConcatKMeans": {0: "b9e8cc977238a137", 1: "f9abd542c3b8985d"},
    "ConcatSC": {0: "6a88dc3ebea14b05", 1: "7cff33a853a1ab00"},
    "IncompleteMVSC": {0: "8d3cd8db0296829d", 1: "666a886ad0071794"},
    "KMeans": {0: "15d6a87507344da9", 1: "ab46ec5e6d345073"},
    "KernelAdditionSC": {0: "fb02eb6adb296b48", 1: "7c5f999d94c95234"},
    "MLAN": {0: "a272329514fb0b01", 1: "f658de6fed44b47e"},
    "MultiViewKMeans": {0: "4ea4b7dda4bb95eb", 1: "02e88e645f2de6e1"},
    "SingleViewSC": {0: "f18a6720631600ce", 1: "01e71862aa8742e3"},
    "SwMC": {0: "fc477dcb907fc336", 1: "22a3ce793678c9f2"},
    "TwoStageMVSC": {0: "3c845481289e46a2", 1: "01e71862aa8742e3"},
}
