"""The pluggable compute-backend layer (:mod:`repro.backends`).

Three contracts are pinned here:

* **Registry/selection** — ``use_backend`` / ``REPRO_BACKEND`` / default
  resolution order, eager rejection of unknown names, cache-key
  segregation between backends.
* **numpy bit-identity** — the default backend is the pre-backend code
  moved verbatim, so every kernel's output is pinned against blake2b
  hashes captured *before* the refactor.  A hash mismatch here means the
  default numerical contract changed — that is a bug, not a tolerance
  question.
* **Alternate-backend equivalence** — float32 agrees with numpy within
  its documented ``tolerance`` on every kernel and produces identical
  clusterings (ARI 1.0) end to end.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends import (
    ArrayBackend,
    available_backends,
    current_backend,
    get_backend,
    use_backend,
)
from repro.exceptions import ValidationError
from repro.graph.affinity import _checked_x, _cosine, _gaussian, _self_tuning
from repro.graph.distance import (
    pairwise_cosine_distances,
    pairwise_sq_euclidean,
)
from repro.graph.knn import kneighbors
from repro.linalg.eigen import eigsh_smallest, sorted_eigh
from repro.serving import ModelArtifact, Predictor
from repro.serving.predictor import kernel_vote_scores


@pytest.fixture
def no_ambient_pin():
    """Clear any enclosing ``use_backend`` so the env var is reachable.

    The suite-wide conftest fixture pins numpy on the run context
    whenever ``REPRO_BACKEND`` is set (the float32 CI leg); tests using
    this fixture probe the env-var tier underneath that pin.
    """
    from dataclasses import replace

    from repro.context import _CONTEXT

    token = _CONTEXT.set(replace(_CONTEXT.get(), backend=None))
    yield
    _CONTEXT.reset(token)


def _digest(*arrays) -> str:
    """blake2b over shape/dtype/bytes — the pre-refactor pinning scheme."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}:{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fixtures() -> dict:
    """Small deterministic inputs, including degenerate shapes.

    The generator consumption order is load-bearing: these must match
    the script that captured :data:`PRE_REFACTOR_HASHES` byte for byte.
    """
    rng = np.random.default_rng(0)
    blobs = np.vstack(
        [rng.normal(size=(12, 6)), rng.normal(size=(12, 6)) + 6.0]
    )
    zero_rows = blobs.copy()
    zero_rows[[2, 17]] = 0.0
    dup = blobs.copy()
    dup[5] = dup[4]
    dup[19] = dup[4]
    single = rng.normal(size=(18, 4)) * 0.05 + 3.0
    return {
        "blobs": blobs,
        "zero_rows": zero_rows,
        "duplicated": dup,
        "single_cluster": single,
    }


#: Captured on the pre-backend code (commit a6f1611) with the script in
#: this file's history; the numpy backend must reproduce every one.
PRE_REFACTOR_HASHES = {
    "cosine/blobs": "1f38eb4df145d6e8296c84bff6092dae",
    "cosine/duplicated": "11d90b55a49b44cf289060f34b45e472",
    "cosine/single_cluster": "5908ed25640577a9f082d3885b7da0a8",
    "cosine/zero_rows": "56d985512da171b8dd73c027313c657f",
    "cosine_dist/blobs": "b37bcaa0acfe12c75a8553efb2bb6fc5",
    "cosine_dist/duplicated": "e4eae05c8b41cab71690a7f5239444ec",
    "cosine_dist/single_cluster": "fb2f3c3687010fce5d0176a322a0b992",
    "cosine_dist/zero_rows": "fd328aaade5fa3c88e4c7c7f826208f8",
    "eigsh_smallest/blobs": "22ffd06e080637ab0e25d94f2db9866c",
    "gaussian/blobs": "1a5bf76042956fd440adb5f3945196c8",
    "gaussian/duplicated": "2d04eedb58fa215bf2d896df44fcea80",
    "gaussian/single_cluster": "95c8271aaa5c9461648ac5022e9e1f63",
    "gaussian/zero_rows": "e748ef1eae5c5ddf96b1696554bddfd0",
    "knn/blobs": "19f9a0112a1da9d3c69e43859475d9c6",
    "knn/duplicated": "c4087898720d49cdc6dd526c0616c6da",
    "knn/single_cluster": "c64a68dafef0e872b86567383d21b1a9",
    "knn/zero_rows": "19a0a94afbcdd4060d00b650380126cb",
    "self_tuning/blobs": "30e49eb313a08934d313299a692c22b2",
    "self_tuning/duplicated": "570d3f7c5254ba54952cbdf87935edf4",
    "self_tuning/single_cluster": "858d505f5fa50e73dcaceb24993930dd",
    "self_tuning/zero_rows": "5c33b81711cec19744910ea02a9b6c24",
    "sorted_eigh/blobs": "5e5c4e33f07481572428ebe529f72b4f",
    "sq_euclidean/blobs": "1cc3a2227b95e4f653ced3ea24bbc839",
    "sq_euclidean/duplicated": "f50bfb4f4a0f9fda748160568a24e03f",
    "sq_euclidean/single_cluster": "f8667b23edb4e687a2df07761525e918",
    "sq_euclidean/zero_rows": "5fd025276c85b63762a869e7b6b7022e",
    "umsc_embedding_abs": "16276292ec0212a6443c0f493ebd6826",
    "umsc_labels": "60e097bf854a7a3f12be1982da3d4dc3",
    "vote/blobs": "e00cfbb50a153f499a0406e40d9131cf",
}

#: Captured at commit cdeb3d4, before the serving predictor called the
#: backend kernels directly: the asymmetric distance path (public
#: wrapper and the backend method given precomputed ``y`` norms) and the
#: predictor's scores over :func:`_serving_artifact`.
PRE_SERVING_HASHES = {
    "predict_scores/float32_m32": "60b7fa24d9cc7a786e8154d7d785183e",
    "predict_scores/m1": "a9df10615b3764d5d2cc9b7d4183fe38",
    "predict_scores/m3": "1fce9c939a42dfff193a5a623be81fbd",
    "predict_scores/m32": "5044d2cd8b17289bb4f1f7aaa31333bf",
    "predict_scores/m32_batch7": "5044d2cd8b17289bb4f1f7aaa31333bf",
    "sq_euclidean_xy/blobs": "80d40e3331e3ccd28b374a32327c28ca",
    "sq_euclidean_xy_norms/blobs": "80d40e3331e3ccd28b374a32327c28ca",
}

#: Exact median-heuristic bandwidths from the pre-refactor masked-median
#: code; the mask-free :func:`repro.graph.affinity._median_offdiag` must
#: reproduce them bit for bit.
PRE_REFACTOR_SIGMAS = {
    "blobs": 12.434147276781045,
    "zero_rows": 12.434147276781045,
    "duplicated": 12.375566856625621,
    "single_cluster": 0.12459311588166148,
}


def _serving_artifact(blobs: np.ndarray):
    """A fixed 2-view artifact over ``blobs`` plus 32 two-view queries."""
    rng = np.random.default_rng(1)
    labels = np.repeat([0, 1], 12).astype(np.int64)
    second = rng.normal(size=(24, 3)) + 4.0 * labels[:, None]
    artifact = ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=[blobs, second],
        train_labels=labels,
        view_weights=np.array([2.0, 1.0]),
        n_clusters=2,
        n_neighbors=5,
    )
    queries = [rng.normal(size=(32, 6)) + 3.0, rng.normal(size=(32, 3)) + 2.0]
    return artifact, queries


#: The pinned affinity kernels with their arguments after ``x``.
AFFINITY_KERNELS = {
    "gaussian": (_gaussian, (None,)),
    "self_tuning": (_self_tuning, (5,)),
    "cosine": (_cosine, ()),
}


def _affinity(kernel: str, x) -> np.ndarray:
    """An affinity kernel of :mod:`repro.graph.affinity` on ``x``, checked
    as :func:`~repro.graph.affinity.build_view_affinity` checks it."""
    function, args = AFFINITY_KERNELS[kernel]
    return function(_checked_x(x), *args)


def _kernel_hashes() -> dict:
    """Every pinned kernel output under the currently active backend
    (the ``float32`` predictor entry pins its explicit backend)."""
    fixtures = _fixtures()
    out = {}
    for name, x in fixtures.items():
        for kernel in AFFINITY_KERNELS:
            out[f"{kernel}/{name}"] = _digest(_affinity(kernel, x))
        out[f"sq_euclidean/{name}"] = _digest(pairwise_sq_euclidean(x))
        out[f"cosine_dist/{name}"] = _digest(pairwise_cosine_distances(x))
        idx, dd = kneighbors(np.sqrt(pairwise_sq_euclidean(x)), 4)
        out[f"knn/{name}"] = _digest(idx, dd)
    blobs = fixtures["blobs"]
    d2 = pairwise_sq_euclidean(blobs)
    labels = np.repeat([0, 1], 12).astype(np.int64)
    out["vote/blobs"] = _digest(kernel_vote_scores(d2, labels, 2, 5))
    x, y = blobs[::2], blobs[1::2][:9]
    out["sq_euclidean_xy/blobs"] = _digest(pairwise_sq_euclidean(x, y))
    out["sq_euclidean_xy_norms/blobs"] = _digest(
        current_backend().pairwise_sq_euclidean(
            x, y, y_sq_norms=np.einsum("ij,ij->i", y, y)
        )
    )
    artifact, queries = _serving_artifact(blobs)
    predictor = Predictor(artifact)
    for m in (1, 3, 32):
        out[f"predict_scores/m{m}"] = _digest(
            predictor.predict_scores([q[:m] for q in queries])
        )
    out["predict_scores/m32_batch7"] = _digest(
        Predictor(artifact, batch_size=7).predict_scores(queries)
    )
    with use_backend("float32"):
        out["predict_scores/float32_m32"] = _digest(
            predictor.predict_scores(queries)
        )
    w = _affinity("gaussian", blobs)
    vals, vecs = sorted_eigh(w)
    out["sorted_eigh/blobs"] = _digest(vals, np.abs(vecs))
    vals, vecs = eigsh_smallest(w, 3)
    out["eigsh_smallest/blobs"] = _digest(vals, np.abs(vecs))
    return out


# --- registry and selection ------------------------------------------------


class TestSelection:
    """Backend registry, precedence, and error behavior."""

    def test_default_is_numpy(self):
        assert current_backend().name == "numpy"
        assert current_backend().compute_dtype == np.float64

    def test_available_backends_lists_default_first(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) == {"numpy", "float32"}

    def test_get_backend_resolves_names_and_instances(self):
        b = get_backend("float32")
        assert b.name == "float32"
        assert get_backend(b) is b

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            get_backend("float16")

    def test_numba_backend_is_gone(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            use_backend("numba")

    def test_use_backend_none_keeps_ambient(self):
        with use_backend("float32") as outer:
            with use_backend(None) as inner:
                assert inner is None
                assert current_backend() is outer
            assert current_backend() is outer
        assert current_backend().name == "numpy"

    def test_use_backend_nests_and_restores(self):
        assert current_backend().name == "numpy"
        with use_backend("float32") as b:
            assert current_backend() is b
            with use_backend("numpy"):
                assert current_backend().name == "numpy"
            assert current_backend().name == "float32"
        assert current_backend().name == "numpy"

    def test_env_var_resolution(self, monkeypatch, no_ambient_pin):
        monkeypatch.setenv("REPRO_BACKEND", "float32")
        assert current_backend().name == "float32"
        # An enclosing use_backend still wins over the environment.
        with use_backend("numpy"):
            assert current_backend().name == "numpy"

    def test_env_var_unknown_raises(self, monkeypatch, no_ambient_pin):
        monkeypatch.setenv("REPRO_BACKEND", "no_such_backend")
        with pytest.raises(ValidationError, match="unknown backend"):
            current_backend()

    def test_backends_are_arraybackend_instances(self):
        for name in available_backends():
            assert isinstance(get_backend(name), ArrayBackend)



class TestCacheKeys:
    """Backend identity must segregate computation-cache entries."""

    def test_cache_key_differs_across_backends(self):
        from repro.pipeline.cache import cache_key

        x = np.ones((4, 3))
        default_key = cache_key("affinity", arrays=(x,), params={"k": 2})
        with use_backend("float32"):
            f32_key = cache_key("affinity", arrays=(x,), params={"k": 2})
        assert default_key != f32_key


# --- numpy bit-identity ----------------------------------------------------


class TestNumpyBitIdentity:
    """The default backend reproduces the pre-refactor bytes exactly."""

    def test_kernel_hashes_match_pre_refactor(self):
        assert _kernel_hashes() == {
            **{
                k: v
                for k, v in PRE_REFACTOR_HASHES.items()
                if not k.startswith("umsc_")
            },
            **PRE_SERVING_HASHES,
        }

    def test_median_heuristic_sigma_bit_identical(self):
        # The mask-free off-diagonal median must agree bit for bit with
        # the old boolean-mask implementation it replaced.
        from repro.graph.affinity import _median_offdiag

        for name, x in _fixtures().items():
            d2 = pairwise_sq_euclidean(x)
            med = _median_offdiag(d2)
            sigma = np.sqrt(med) if med > 0 else 1.0
            assert float(sigma) == PRE_REFACTOR_SIGMAS[name], name

    @pytest.mark.slow
    def test_umsc_fit_bit_identical(self):
        from repro import UnifiedMVSC, make_multiview_blobs

        ds = make_multiview_blobs(120, 3, view_dims=(10, 15), random_state=0)
        res = UnifiedMVSC(3, random_state=0).fit(ds.views)
        assert _digest(res.labels) == PRE_REFACTOR_HASHES["umsc_labels"]
        assert (
            _digest(np.abs(res.embedding))
            == PRE_REFACTOR_HASHES["umsc_embedding_abs"]
        )


# --- alternate-backend equivalence ----------------------------------------

ALTERNATES = ["float32"]


def _assert_close(ref, alt, tol, label):
    ref = np.asarray(ref, dtype=np.float64)
    alt = np.asarray(alt, dtype=np.float64)
    assert ref.shape == alt.shape, label
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(
        alt, ref, atol=max(tol, 1e-15) * scale, rtol=tol + 1e-12, err_msg=label
    )


@pytest.mark.parametrize("name", ALTERNATES)
class TestBackendEquivalence:
    """Each alternate agrees with numpy within its documented tolerance."""

    def test_affinity_kernels_within_tolerance(self, name):
        backend = get_backend(name)
        for fx_name, x in _fixtures().items():
            for kernel in AFFINITY_KERNELS:
                ref = _affinity(kernel, x)
                with use_backend(name):
                    alt = _affinity(kernel, x)
                _assert_close(
                    ref, alt, backend.tolerance, f"{kernel}/{fx_name}/{name}"
                )

    def test_float32_outputs_stay_float32(self, name):
        if name != "float32":
            pytest.skip("dtype contract is float32-specific")
        x = _fixtures()["blobs"]
        with use_backend("float32"):
            assert _affinity("gaussian", x).dtype == np.float32
            assert _affinity("self_tuning", x).dtype == np.float32
            assert pairwise_sq_euclidean(x).dtype == np.float32
            # Eigensolvers and the vote always hand back float64 so the
            # solver/rotation/assignment layers keep their contract.
            w = _affinity("gaussian", np.asarray(x, dtype=np.float64))
            vals, vecs = sorted_eigh(w)
            assert vals.dtype == np.float64 and vecs.dtype == np.float64

    def test_knn_same_neighbor_sets(self, name):
        for fx_name, x in _fixtures().items():
            d = np.sqrt(pairwise_sq_euclidean(x))
            idx_ref, _ = kneighbors(d, 4)
            with use_backend(name):
                idx_alt, _ = kneighbors(d, 4)
            # Ties may order differently across dtypes; the neighbor
            # *sets* must match row by row on these well-separated
            # fixtures.
            assert idx_ref.shape == idx_alt.shape
            same = [
                set(a) == set(b) for a, b in zip(idx_ref, idx_alt)
            ]
            assert all(same), f"knn/{fx_name}/{name}"

    def test_vote_scores_within_tolerance(self, name):
        backend = get_backend(name)
        x = _fixtures()["blobs"]
        d2 = pairwise_sq_euclidean(x)
        labels = np.repeat([0, 1], 12).astype(np.int64)
        ref = kernel_vote_scores(d2, labels, 2, 5)
        with use_backend(name):
            alt = kernel_vote_scores(d2, labels, 2, 5)
        assert alt.dtype == np.float64
        _assert_close(ref, alt, backend.tolerance, f"vote/{name}")

    def test_end_to_end_labels_identical(self, name, small_dataset):
        from repro import UnifiedMVSC, evaluate_clustering

        ref = UnifiedMVSC(
            small_dataset.n_clusters, random_state=0
        ).fit_predict(small_dataset.views)
        with use_backend(name):
            alt = UnifiedMVSC(
                small_dataset.n_clusters, random_state=0
            ).fit_predict(small_dataset.views)
        ari = evaluate_clustering(ref, alt, metrics=("ari",))["ari"]
        assert ari == 1.0


class TestPredictorBackend:
    """The run context's backend scopes a predictor's scoring."""

    def test_predict_labels_match_across_backends(self, small_dataset):
        from repro import UnifiedMVSC
        from repro.serving import Predictor

        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        model.fit(small_dataset.views)
        artifact = model.to_artifact()
        ref = Predictor(artifact).predict(small_dataset.views)
        with use_backend("float32"):
            alt = Predictor(artifact).predict(small_dataset.views)
        assert np.array_equal(ref, alt)

    def test_predictor_rejects_unknown_backend(
        self, small_dataset, monkeypatch, no_ambient_pin
    ):
        """A predict resolves the backend per call and never scores
        under an unknown name."""
        from repro import UnifiedMVSC
        from repro.serving import Predictor

        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        model.fit(small_dataset.views)
        predictor = Predictor(model.to_artifact())
        monkeypatch.setenv("REPRO_BACKEND", "no_such_backend")
        with pytest.raises(ValidationError, match="unknown backend"):
            predictor.predict(small_dataset.views)


class TestRunnerBackend:
    """A ``use_backend`` block scopes a whole experiment."""

    def test_runner_backend_param(self, small_dataset):
        from repro import run_experiment

        with use_backend("float32"):
            results = run_experiment(
                small_dataset,
                methods=["UMSC"],
                n_runs=1,
            )
        assert results["UMSC"].scores["acc"].mean > 0.9
