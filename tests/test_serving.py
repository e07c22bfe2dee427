"""Tests for repro.serving: artifacts, the predictor, and the service."""

import copy
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.backends import current_backend, get_backend, use_backend
from repro.core import AnchorMVSC, SparseMVSC, UnifiedMVSC
from repro.core.out_of_sample import propagate_labels
from repro.exceptions import (
    ArtifactError,
    ClampWarning,
    RecoveryExhaustedError,
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.observability import Trace, use_trace
from repro.pipeline.parallel import resolve_jobs, use_jobs
from repro.robust import FaultSpec, inject_faults
from repro.serving import (
    ModelArtifact,
    PredictionService,
    Predictor,
    kernel_vote_scores,
    replay,
)
from repro.serving.artifact import ARRAYS_NAME, MANIFEST_NAME, SCHEMA_VERSION
from repro.utils.validation import check_matrix


def _blob_artifact(n=40, n_views=2, c=3, seed=0, **kwargs):
    """A small hand-built artifact over well-separated blobs."""
    rng = np.random.default_rng(seed)
    centers = np.arange(c)[:, None] * 8.0
    views, labels = [], np.repeat(np.arange(c), n // c)
    for v in range(n_views):
        d = 3 + 2 * v
        views.append(
            centers[labels][:, :1] * np.ones(d) + rng.normal(0, 0.3, (labels.size, d))
        )
    kwargs.setdefault("view_weights", rng.uniform(0.5, 1.5, n_views))
    return ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=views,
        train_labels=labels,
        view_weights=kwargs.pop("view_weights"),
        n_clusters=c,
        **kwargs,
    )


def _queries(artifact, m=9, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(8.0, 3.0, (m, d)) for d in artifact.view_dims]


class TestArtifactRoundTrip:
    def test_round_trip_is_bit_identical(self, tmp_path):
        art = _blob_artifact()
        path = art.save(tmp_path / "art")
        same = ModelArtifact.load(path)
        assert same.model_class == art.model_class
        assert same.n_clusters == art.n_clusters
        assert same.n_neighbors == art.n_neighbors
        for a, b in zip(art.train_views, same.train_views):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        np.testing.assert_array_equal(art.train_labels, same.train_labels)
        np.testing.assert_array_equal(art.view_weights, same.view_weights)
        assert art.content_hash() == same.content_hash()

    def test_manifest_records_versions_and_config(self, tmp_path):
        art = _blob_artifact(config={"lam": 1.0, "graph": "auto"})
        art.save(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["config"]["graph"] == "auto"
        assert manifest["versions"]["numpy"] == np.__version__
        assert manifest["versions"]["repro"] == repro.__version__
        assert manifest["content_hash"] == art.content_hash()

    def test_save_is_idempotent_overwrite(self, tmp_path):
        art = _blob_artifact()
        art.save(tmp_path)
        art.save(tmp_path)
        assert ModelArtifact.load(tmp_path).content_hash() == art.content_hash()

    @pytest.mark.parametrize(
        "model_cls", [UnifiedMVSC, AnchorMVSC, SparseMVSC]
    )
    def test_model_round_trip_matches_in_process(
        self, tmp_path, small_dataset, model_cls
    ):
        model = model_cls(small_dataset.n_clusters, random_state=0)
        fitted_labels = model.fit_predict(small_dataset.views)
        directory = model.save(tmp_path / model_cls.__name__)
        predictor = model_cls.load(directory)
        in_process = Predictor(model.to_artifact())
        np.testing.assert_array_equal(
            predictor.predict(small_dataset.views),
            in_process.predict(small_dataset.views),
        )
        # Self-prediction mostly agrees with the fitted clustering (the
        # kernel vote is a different estimator, so exact equality is not
        # the contract).
        agreement = float(
            (predictor.predict(small_dataset.views) == fitted_labels).mean()
        )
        assert agreement > 0.85

    def test_load_matches_propagate_labels_bitwise(self, tmp_path, small_dataset):
        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        result = model.fit(small_dataset.views)
        model.save(tmp_path)
        predictor = Predictor.load(tmp_path)
        queries = [v[::3] for v in small_dataset.views]
        expected = propagate_labels(
            small_dataset.views,
            result.labels,
            queries,
            view_weights=result.view_weights,
            n_neighbors=model.config.n_neighbors,
        )
        np.testing.assert_array_equal(predictor.predict(queries), expected)

    def test_fresh_process_predict_is_bit_identical(self, tmp_path):
        art = _blob_artifact()
        art.save(tmp_path / "art")
        queries = _queries(art)
        np.savez(tmp_path / "queries.npz", *queries)
        script = (
            "import sys, numpy as np\n"
            "from repro.serving import Predictor\n"
            "with np.load(sys.argv[2]) as data:\n"
            "    queries = [data[k] for k in data.files]\n"
            "labels = Predictor.load(sys.argv[1]).predict(queries)\n"
            "np.save(sys.argv[3], labels)\n"
        )
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(tmp_path / "art"),
                str(tmp_path / "queries.npz"),
                str(tmp_path / "labels.npy"),
            ],
            check=True,
            env=env,
        )
        fresh = np.load(tmp_path / "labels.npy")
        np.testing.assert_array_equal(fresh, Predictor(art).predict(queries))

    def test_unfitted_model_save_raises(self):
        with pytest.raises(ValidationError, match="fit"):
            UnifiedMVSC(3).save("/tmp/nowhere")

    def test_fit_affinities_only_cannot_save(self, affinity_pair, small_dataset):
        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        model.fit_affinities(affinity_pair)
        with pytest.raises(ValidationError, match="fit_affinities"):
            model.to_artifact()

    def test_wrong_class_load_rejected(self, tmp_path):
        _blob_artifact().save(tmp_path)  # model_class == "UnifiedMVSC"
        with pytest.raises(ValidationError, match="UnifiedMVSC"):
            AnchorMVSC.load(tmp_path)


class TestArtifactValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            ModelArtifact.load(tmp_path / "nope")

    def test_corrupt_manifest_json(self, tmp_path):
        _blob_artifact().save(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactError, match="unreadable"):
            ModelArtifact.load(tmp_path)

    def test_manifest_missing_keys(self, tmp_path):
        _blob_artifact().save(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        del manifest["n_clusters"], manifest["content_hash"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="missing keys"):
            ModelArtifact.load(tmp_path)

    def test_wrong_schema_version(self, tmp_path):
        _blob_artifact().save(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema version"):
            ModelArtifact.load(tmp_path)

    def test_missing_arrays_file(self, tmp_path):
        _blob_artifact().save(tmp_path)
        (tmp_path / ARRAYS_NAME).unlink()
        with pytest.raises(ArtifactError, match="arrays"):
            ModelArtifact.load(tmp_path)

    def test_truncated_arrays_file(self, tmp_path):
        _blob_artifact().save(tmp_path)
        payload = (tmp_path / ARRAYS_NAME).read_bytes()
        (tmp_path / ARRAYS_NAME).write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ArtifactError, match="corrupt|missing"):
            ModelArtifact.load(tmp_path)

    def test_shape_mismatch_vs_manifest(self, tmp_path):
        _blob_artifact().save(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["view_dims"][0] += 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="shape"):
            ModelArtifact.load(tmp_path)

    def test_tampered_arrays_fail_the_hash(self, tmp_path):
        art = _blob_artifact()
        art.save(tmp_path)
        tampered = dict(
            np.load(tmp_path / ARRAYS_NAME, allow_pickle=False).items()
        )
        tampered["view_0"] = tampered["view_0"] + 1.0
        np.savez(tmp_path / ARRAYS_NAME, **tampered)
        with pytest.raises(ArtifactError, match="hash"):
            ModelArtifact.load(tmp_path)

    def test_invalid_construction(self):
        art = _blob_artifact()
        with pytest.raises(ValidationError, match="view_weights"):
            ModelArtifact(
                model_class="X",
                train_views=art.train_views,
                train_labels=art.train_labels,
                view_weights=np.zeros(art.n_views),
                n_clusters=art.n_clusters,
            )
        with pytest.raises(ValidationError, match="n_clusters"):
            ModelArtifact(
                model_class="X",
                train_views=art.train_views,
                train_labels=art.train_labels,
                view_weights=art.view_weights,
                n_clusters=1,
            )


class TestPredictor:
    def test_matches_propagate_labels_bitwise(self):
        art = _blob_artifact(n_views=3)
        queries = _queries(art, m=17)
        expected = propagate_labels(
            art.train_views,
            art.train_labels,
            queries,
            n_clusters=art.n_clusters,
            view_weights=art.view_weights,
            n_neighbors=art.n_neighbors,
        )
        np.testing.assert_array_equal(Predictor(art).predict(queries), expected)

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 1000])
    def test_chunking_preserves_labels(self, batch_size):
        # Scores can move in the last float bits across chunk shapes
        # (BLAS picks different kernels for different operand sizes);
        # labels must not.
        art = _blob_artifact()
        queries = _queries(art, m=23)
        reference = Predictor(art)
        chunked = Predictor(art, batch_size=batch_size)
        np.testing.assert_array_equal(
            chunked.predict(queries), reference.predict(queries)
        )
        np.testing.assert_allclose(
            chunked.predict_scores(queries),
            reference.predict_scores(queries),
            rtol=1e-12,
        )

    def test_parallel_views_are_bit_neutral(self):
        # Per-view votes are accumulated in view order regardless of the
        # thread pool, so the job count is bit-neutral (unlike batch_size).
        art = _blob_artifact(n_views=3)
        queries = _queries(art, m=23)
        serial = Predictor(art).predict_scores(queries)
        with use_jobs(2):
            threaded = Predictor(art).predict_scores(queries)
        np.testing.assert_array_equal(threaded, serial)

    def test_scores_argmax_is_predict(self):
        art = _blob_artifact()
        queries = _queries(art)
        predictor = Predictor(art)
        scores = predictor.predict_scores(queries)
        assert scores.shape == (queries[0].shape[0], art.n_clusters)
        np.testing.assert_array_equal(
            predictor.predict(queries), np.argmax(scores, axis=1)
        )

    def test_query_validation(self):
        art = _blob_artifact(n_views=2)
        predictor = Predictor(art)
        with pytest.raises(ValidationError, match="views"):
            predictor.predict([np.zeros((2, art.view_dims[0]))])
        with pytest.raises(ValidationError, match="dim"):
            predictor.predict(
                [np.zeros((2, art.view_dims[0] + 1)), np.zeros((2, art.view_dims[1]))]
            )
        with pytest.raises(ValidationError, match="rows"):
            predictor.predict(
                [np.zeros((2, art.view_dims[0])), np.zeros((3, art.view_dims[1]))]
            )
        with pytest.raises(ValidationError, match="batch_size"):
            Predictor(art, batch_size=0)

    def test_clamp_warning_once(self):
        art = _blob_artifact(n=12, n_neighbors=99)
        with pytest.warns(ClampWarning, match="99"):
            predictor = Predictor(art)
        # The clamp is surfaced at construction, not per predict call.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            predictor.predict(_queries(art))

    def test_metrics_flow_to_active_trace(self):
        art = _blob_artifact()
        trace = Trace("serving-test")
        with use_trace(trace):
            Predictor(art).predict(_queries(art, m=9))
        assert trace.metrics.counters["serving.requests"].value == 9
        # The predict's time is its span (no duplicate histogram).
        (predict,) = [s for s in trace.spans if s.name == "serving.predict"]
        assert predict.attributes["n_samples"] == 9
        assert predict.duration > 0.0
        assert not any(
            "seconds" in name for name in trace.metrics.histograms
        )
        assert any(s.name == "serving.index_build" for s in trace.spans)


class TestKernelVote:
    def test_matches_naive_reference(self, rng):
        d2 = rng.uniform(0.1, 9.0, size=(13, 37))
        labels = rng.integers(0, 4, size=37)
        k = 9
        scores = kernel_vote_scores(d2, labels, 4, k)
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        expected = np.zeros((13, 4))
        for i in range(13):
            local = d2[i, idx[i]]
            kernel = np.exp(-local / max(local.max(), 1e-12))
            for neighbor, weight in zip(idx[i], kernel):
                expected[i, labels[neighbor]] += weight
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(
            np.argmax(scores, axis=1), np.argmax(expected, axis=1)
        )

    def test_k_clamped_to_train_size(self, rng):
        d2 = rng.uniform(0.1, 4.0, size=(5, 6))
        labels = rng.integers(0, 2, size=6)
        np.testing.assert_array_equal(
            kernel_vote_scores(d2, labels, 2, 50),
            kernel_vote_scores(d2, labels, 2, 6),
        )

    @pytest.mark.parametrize(
        "d2, labels, n_clusters, k, match",
        [
            (np.zeros((1, 3)), np.array([-1, -1, -1]), 2, 3, r"\[0, 2\)"),
            (np.zeros((1, 3)), np.array([0, 1, 2]), 2, 3, r"\[0, 2\)"),
            (np.zeros((1, 3)), np.array([0, 1]), 2, 3, "length 3"),
            (np.zeros((1, 3)), np.array([[0, 1, 1]]), 2, 3, "1-D"),
            (np.zeros((1, 3)), np.array([0.5, 1.0, 1.0]), 2, 3, "integers"),
            (np.zeros((1, 3)), np.array([0, 1, 1]), 2, 0, "k must be >= 1"),
            (np.zeros((1, 3)), np.array([0, 1, 1]), 0, 3, "n_clusters"),
            (np.zeros(3), np.array([0, 1, 1]), 2, 3, "d2 must be 2-D"),
            (
                np.array([[0.0, np.nan, 1.0]]),
                np.array([0, 1, 1]),
                2,
                3,
                "d2 contains NaN",
            ),
        ],
        ids=[
            "negative_label",
            "label_too_large",
            "short_labels",
            "labels_2d",
            "fractional_labels",
            "k_zero",
            "no_clusters",
            "d2_1d",
            "d2_nan",
        ],
    )
    def test_rejects_invalid_inputs(self, d2, labels, n_clusters, k, match):
        with pytest.raises(ValidationError, match=match):
            kernel_vote_scores(d2, labels, n_clusters, k)

    def test_float32_distances_keep_their_dtype(self, rng):
        d2 = rng.uniform(0.1, 4.0, size=(5, 6))
        labels = rng.integers(0, 2, size=6)
        np.testing.assert_array_equal(
            kernel_vote_scores(d2.astype(np.float32), labels, 2, 3),
            current_backend().kernel_vote_scores(
                d2.astype(np.float32), labels, 2, 3
            ),
        )


def _spy_on_bindings(monkeypatch, original, calls: list) -> None:
    """Replace every ``repro`` binding of ``original`` by a recording
    wrapper (by identity, like ``tests/test_call_pins.py``)."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, wrapper)


class TestValidationBoundary:
    """A predict validates each query view once and nothing else."""

    @pytest.mark.parametrize("n_views", [1, 3])
    @pytest.mark.parametrize("batch_size, n_chunks", [(4096, 1), (4, 3)])
    def test_one_check_per_view_and_one_resolution(
        self, monkeypatch, n_views, batch_size, n_chunks
    ):
        predictor = Predictor(
            _blob_artifact(n_views=n_views), batch_size=batch_size
        )
        queries = _queries(predictor.artifact, m=9)
        checked, resolved = [], []
        _spy_on_bindings(monkeypatch, check_matrix, checked)
        _spy_on_bindings(monkeypatch, current_backend, resolved)
        # A private instance carries the kernel spies, as perfbench's
        # layer tracer wraps the active backend instance.
        backend = copy.copy(get_backend("numpy"))
        kernels = {"pairwise_sq_euclidean": 0, "kernel_vote_scores": 0}
        for kernel in kernels:
            method = getattr(backend, kernel)

            def counted(*args, _kernel=kernel, _method=method, **kwargs):
                kernels[_kernel] += 1
                return _method(*args, **kwargs)

            setattr(backend, kernel, counted)
        with use_backend(backend):
            labels = predictor.predict(queries)
        assert labels.shape == (9,)
        assert [args[1] for args in checked] == [
            f"views[{v}]" for v in range(n_views)
        ]
        trains = [index.train for index in predictor._indexes]
        assert not any(
            args[0] is t for args in checked for t in trains
        )
        assert len(resolved) == 1
        assert kernels == {
            "pairwise_sq_euclidean": n_views * n_chunks,
            "kernel_vote_scores": n_views * n_chunks,
        }



@pytest.mark.faults
class TestServingFaults:
    def test_load_recovers_from_one_shot_fault(self, tmp_path):
        art = _blob_artifact()
        art.save(tmp_path)
        with inject_faults(FaultSpec("serving.load", mode="raise", times=1)):
            loaded = ModelArtifact.load(tmp_path)
        assert loaded.content_hash() == art.content_hash()

    def test_load_persistent_fault_exhausts(self, tmp_path):
        _blob_artifact().save(tmp_path)
        with inject_faults(FaultSpec("serving.load", mode="raise", times=None)):
            with pytest.raises(RecoveryExhaustedError) as excinfo:
                ModelArtifact.load(tmp_path)
        assert excinfo.value.site == "serving.load"

    def test_malformed_artifact_is_not_retried(self, tmp_path):
        # ArtifactError is a ValidationError: the policy must let it
        # through untouched instead of burning retries on a bad input.
        with pytest.raises(ArtifactError, match="manifest"):
            ModelArtifact.load(tmp_path / "missing")

    def test_predict_recovers_from_one_shot_nan(self):
        art = _blob_artifact()
        queries = _queries(art)
        clean = Predictor(art).predict_scores(queries)
        with inject_faults(FaultSpec("serving.predict", mode="nan", times=1)):
            recovered = Predictor(art).predict_scores(queries)
        np.testing.assert_array_equal(recovered, clean)

    def test_predict_persistent_raise_recovers_via_serial_fallback(self):
        art = _blob_artifact()
        queries = _queries(art)
        clean = Predictor(art).predict_scores(queries)
        with inject_faults(
            FaultSpec("serving.predict", mode="raise", times=None)
        ):
            recovered = Predictor(art).predict_scores(queries)
        np.testing.assert_array_equal(recovered, clean)


class _GatedPredictor(Predictor):
    """Predictor whose predict blocks until the test opens the gate."""

    def __init__(self, artifact, **kwargs):
        super().__init__(artifact, **kwargs)
        self.started = threading.Event()
        self.gate = threading.Event()

    def predict(self, views, **kwargs):
        self.started.set()
        assert self.gate.wait(timeout=10.0)
        return super().predict(views, **kwargs)


class TestPredictionService:
    def test_concurrent_clients_match_serial_predict(self, small_dataset):
        model = UnifiedMVSC(small_dataset.n_clusters, random_state=0)
        model.fit(small_dataset.views)
        predictor = Predictor(model.to_artifact())
        serial = predictor.predict(small_dataset.views)
        n = small_dataset.n_samples
        results = [None] * n
        n_clients = 8
        with PredictionService(predictor, max_batch=16) as service:

            def client(worker):
                for i in range(worker, n, n_clients):
                    results[i] = service.predict_one(
                        [v[i] for v in small_dataset.views]
                    )

            threads = [
                threading.Thread(target=client, args=(worker,))
                for worker in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = service.stats()
        np.testing.assert_array_equal(np.array(results), serial)
        assert stats.completed == n
        # Micro-batching actually coalesced: far fewer predicts than
        # requests (worst observed in practice is ~n/2; assert the
        # direction, not the timing).
        assert stats.batches <= n

    def test_worker_serves_under_the_construction_context(self):
        # A service built inside use_backend/use_jobs runs every batch
        # under both, though its clients submit from outside the blocks.
        predictor = Predictor(_blob_artifact(n_views=3))
        queries = _queries(predictor.artifact, m=6)
        backend = copy.copy(get_backend("float32"))
        seen = []
        for kernel in ("pairwise_sq_euclidean", "kernel_vote_scores"):
            method = getattr(backend, kernel)

            def spied(*args, _kernel=kernel, _method=method, **kwargs):
                seen.append((_kernel, resolve_jobs(), threading.get_ident()))
                return _method(*args, **kwargs)

            setattr(backend, kernel, spied)
        with use_backend(backend), use_jobs(2):
            service = PredictionService(predictor)
        with service:
            labels = [
                service.predict_one([q[i] for q in queries])
                for i in range(6)
            ]
        with use_backend("float32"):
            expected = [
                int(predictor.predict([q[i : i + 1] for q in queries])[0])
                for i in range(6)
            ]
        assert labels == expected
        kernels = {name for name, _, _ in seen}
        assert kernels == {"pairwise_sq_euclidean", "kernel_vote_scores"}
        assert {jobs for _, jobs, _ in seen} == {2}
        assert threading.get_ident() not in {t for _, _, t in seen}

    def test_backpressure_raises_typed_error(self):
        art = _blob_artifact()
        predictor = _GatedPredictor(art)
        sample = [q[0] for q in _queries(art, m=1)]
        service = PredictionService(predictor, max_batch=1, max_queue=1)
        try:
            first = service.submit(sample)
            assert predictor.started.wait(timeout=10.0)
            # Worker is inside predict; the queue (capacity 1) is free
            # again, so one more request fits and the next must bounce.
            second = service.submit(sample)
            with pytest.raises(ServiceOverloadedError, match="full"):
                service.submit(sample)
            assert service.stats().rejected == 1
        finally:
            predictor.gate.set()
            service.close()
        assert first.result(timeout=10.0) == second.result(timeout=10.0)

    def test_close_drains_pending_requests(self):
        art = _blob_artifact()
        predictor = _GatedPredictor(art)
        sample = [q[0] for q in _queries(art, m=1)]
        service = PredictionService(predictor, max_batch=4)
        futures = [service.submit(sample) for _ in range(6)]
        assert predictor.started.wait(timeout=10.0)
        predictor.gate.set()
        service.close()
        labels = {f.result(timeout=10.0) for f in futures}
        assert len(labels) == 1  # identical sample -> identical label
        with pytest.raises(ServiceClosedError):
            service.submit(sample)
        assert service.stats().completed == 6

    def test_idle_service_does_not_hold_a_lone_request(self):
        # A request that finds the worker idle is predicted at once, not
        # held open for stragglers.  The median keeps one descheduled
        # request from failing the test.
        art = _blob_artifact()
        sample = [q[0] for q in _queries(art, m=1)]
        with PredictionService(Predictor(art)) as service:
            for _ in range(20):
                service.predict_one(sample)
        latency = service.metrics.histograms["serving.request_seconds"]
        assert latency.count == 20
        assert latency.percentile(50) < 2.5e-3

    def test_close_racing_submitters_completes_every_accepted_request(self):
        art = _blob_artifact()
        sample = [q[0] for q in _queries(art, m=1)]
        service = PredictionService(Predictor(art), max_batch=4)
        accepted, lock = [], threading.Lock()

        def client():
            for _ in range(50):
                try:
                    future = service.submit(sample)
                except ServiceClosedError:
                    return
                with lock:
                    accepted.append(future)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            time.sleep(0.005)
            service.close(timeout=10.0)
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not service.draining
        labels = {f.result(timeout=0) for f in accepted}
        assert len(labels) == 1
        stats = service.stats()
        assert stats.completed == stats.submitted == len(accepted)

    def test_close_is_idempotent(self):
        service = PredictionService(Predictor(_blob_artifact()))
        service.close()
        service.close()

    def test_submit_validates_sample(self):
        art = _blob_artifact(n_views=2)
        with PredictionService(Predictor(art)) as service:
            with pytest.raises(ValidationError, match="views"):
                service.submit([np.zeros(art.view_dims[0])])
            with pytest.raises(ValidationError, match="shape"):
                service.submit(
                    [np.zeros(art.view_dims[0] + 1), np.zeros(art.view_dims[1])]
                )
            with pytest.raises(ValidationError, match="NaN"):
                service.submit(
                    [
                        np.full(art.view_dims[0], np.nan),
                        np.zeros(art.view_dims[1]),
                    ]
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_submit_names_the_nonfinite_view(self, bad):
        art = _blob_artifact(n_views=3)
        sample = [np.zeros(d) for d in art.view_dims]
        sample[1][-1] = bad
        with PredictionService(Predictor(art)) as service:
            with pytest.raises(
                ValidationError,
                match=r"^sample view 1 contains NaN or Inf entries$",
            ):
                service.submit(sample)
            assert service.stats().submitted == 0

    def test_batch_exception_fans_out_to_futures(self):
        art = _blob_artifact()

        class _ExplodingPredictor(Predictor):
            def predict(self, views, **kwargs):
                raise RuntimeError("boom")

        with PredictionService(_ExplodingPredictor(art)) as service:
            future = service.submit([q[0] for q in _queries(art, m=1)])
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10.0)

    def test_invalid_parameters(self):
        predictor = Predictor(_blob_artifact())
        with pytest.raises(ValidationError, match="max_batch"):
            PredictionService(predictor, max_batch=0)
        with pytest.raises(ValidationError, match="max_queue"):
            PredictionService(predictor, max_queue=0)
        with pytest.raises(ValidationError, match="Predictor"):
            PredictionService(object())

    def test_service_metrics_flow_to_construction_trace(self):
        art = _blob_artifact()
        trace = Trace("service-test")
        sample = [q[0] for q in _queries(art, m=1)]
        with use_trace(trace):
            with PredictionService(Predictor(art)) as service:
                assert isinstance(service.predict_one(sample), int)
                deadline = time.time() + 10.0
                while (
                    "serving.batch_size" not in trace.metrics.histograms
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
        assert trace.metrics.counters["serving.submitted"].value == 1
        assert "serving.batch_size" in trace.metrics.histograms
        assert "serving.queue_depth" in trace.metrics.histograms

    def test_plain_thread_clients_record_in_construction_trace(self):
        # Plain threads do not carry the constructing context, yet the
        # submit-side metrics must still reach the construction trace.
        art = _blob_artifact()
        sample = [q[0] for q in _queries(art, m=1)]
        release = threading.Event()

        class _GatedPredictor(Predictor):
            def predict(self, views, **kwargs):
                release.wait(10.0)
                return super().predict(views, **kwargs)

        trace = Trace("plain-clients")
        with use_trace(trace):
            service = PredictionService(
                _GatedPredictor(art), max_batch=1, max_queue=2
            )
        outcomes = []

        def client():
            try:
                outcomes.append(service.submit(sample))
            except ServiceOverloadedError:
                outcomes.append(None)

        threads = [threading.Thread(target=client) for _ in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            release.set()
            service.close()
        accepted = [f for f in outcomes if f is not None]
        assert all(isinstance(f.result(timeout=0), int) for f in accepted)
        # The gated worker holds one request and the queue two more.
        assert 1 <= len(accepted) <= 3
        metrics = trace.metrics
        assert metrics.counters["serving.submitted"].value == len(accepted)
        assert metrics.counters["serving.rejected"].value == 8 - len(accepted)
        depth = metrics.histograms["serving.queue_depth"]
        assert depth.count == len(accepted)
        assert metrics.histograms["serving.batch_size"].count == len(accepted)


class TestReplay:
    def test_labels_come_back_in_sample_order(self):
        art = _blob_artifact()
        predictor = Predictor(art)
        queries = _queries(art, m=23)
        samples = [[q[i] for q in queries] for i in range(23)]
        with PredictionService(predictor) as service:
            labels = replay(service, samples, clients=3)
        assert labels == predictor.predict(queries).tolist()

    @pytest.mark.parametrize("clients", [0, -2])
    def test_rejects_fewer_than_one_client(self, clients):
        art = _blob_artifact()
        samples = [[q[0] for q in _queries(art, m=1)]]
        with PredictionService(Predictor(art)) as service:
            with pytest.raises(ValidationError, match="clients must be >= 1"):
                replay(service, samples, clients=clients)
            assert service.stats().submitted == 0

    def test_reraises_the_first_client_failure(self):
        art = _blob_artifact()

        class _ExplodingPredictor(Predictor):
            def predict(self, views, **kwargs):
                raise RuntimeError("boom")

        samples = [[q[i] for q in _queries(art, m=6)] for i in range(6)]
        with PredictionService(_ExplodingPredictor(art)) as service:
            with pytest.raises(RuntimeError, match="boom"):
                replay(service, samples, clients=2)


class TestRequestTracing:
    def test_request_spans_share_one_trace_id(self):
        art = _blob_artifact()
        trace = Trace("serve")
        sample = [q[0] for q in _queries(art, m=1)]
        with use_trace(trace):
            with PredictionService(Predictor(art)) as service:
                assert isinstance(service.predict_one(sample), int)
        by_name = {s.name: s for s in trace.spans}
        assert {
            "serving.request", "serving.batch", "serving.predict",
        } <= set(by_name)
        assert all(s.trace_id == trace.trace_id for s in trace.spans)
        request = by_name["serving.request"]
        batch = by_name["serving.batch"]
        predict = by_name["serving.predict"]
        # The batch span and its coalesced request span link each other.
        assert request.span_id in batch.links
        assert batch.span_id in request.links
        # Work done on behalf of the batch carries the request identity.
        assert request.request_id
        assert predict.request_id == request.request_id
        assert batch.attributes["request_ids"] == [request.request_id]
        # The request span is externally timed but fully populated.
        assert request.duration > 0.0
        assert request.timestamp > 1e9  # epoch seconds, not perf_counter
        assert request.attributes["queue_wait_seconds"] >= 0.0
        assert request.attributes["batch_size"] == 1
        assert request.attributes["failed"] is False

    def test_explicit_request_id_is_honored(self):
        art = _blob_artifact()
        trace = Trace("serve")
        sample = [q[0] for q in _queries(art, m=1)]
        with use_trace(trace):
            with PredictionService(Predictor(art)) as service:
                future = service.submit(sample, request_id="req-explicit")
                assert isinstance(future.result(timeout=10.0), int)
        request = next(
            s for s in trace.spans if s.name == "serving.request"
        )
        assert request.request_id == "req-explicit"

    def test_coalesced_batch_links_every_request_span(self):
        art = _blob_artifact()
        predictor = _GatedPredictor(art)
        sample = [q[0] for q in _queries(art, m=1)]
        trace = Trace("coalesce")
        with use_trace(trace):
            service = PredictionService(predictor, max_batch=8)
        futures = [service.submit(sample) for _ in range(5)]
        assert predictor.started.wait(timeout=10.0)
        predictor.gate.set()
        service.close()
        for future in futures:
            future.result(timeout=10.0)
        requests = [s for s in trace.spans if s.name == "serving.request"]
        batches = [s for s in trace.spans if s.name == "serving.batch"]
        assert len(requests) == 5
        # While the gate held the worker, later submissions coalesced.
        assert max(len(b.links) for b in batches) >= 2
        # Links are a bijection: every request span rides exactly one
        # batch, and the batches together cover all of them.
        assert {sid for b in batches for sid in b.links} == {
            r.span_id for r in requests
        }
        by_id = {b.span_id: b for b in batches}
        for r in requests:
            assert len(r.links) == 1 and r.links[0] in by_id
            assert r.request_id in by_id[r.links[0]].attributes["request_ids"]

    def test_untraced_service_records_no_identity(self):
        art = _blob_artifact()
        sample = [q[0] for q in _queries(art, m=1)]
        with PredictionService(Predictor(art)) as service:
            assert isinstance(service.predict_one(sample), int)
        # No construction-time trace: the id bookkeeping is skipped
        # entirely (the disabled path stays one attribute check).
        assert service._trace is None
