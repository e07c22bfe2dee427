"""Tests for serving runtime telemetry and the HTTP endpoint thread.

Covers the service-owned metrics registry (request-latency / queue-wait
histograms, queue-depth gauge), the extended
:class:`ServiceStats` read from that registry, and the ``/metrics`` /
``/healthz`` / ``/stats`` endpoints served by :class:`TelemetryServer`
— including a real HTTP round-trip against a live service.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import ServiceOverloadedError
from repro.serving import (
    ModelArtifact,
    PredictionService,
    Predictor,
    TelemetryServer,
)


def _blob_artifact(n=40, n_views=2, c=3, seed=0):
    """A small hand-built artifact over well-separated blobs."""
    rng = np.random.default_rng(seed)
    centers = np.arange(c)[:, None] * 8.0
    views, labels = [], np.repeat(np.arange(c), n // c)
    for v in range(n_views):
        d = 3 + 2 * v
        views.append(
            centers[labels][:, :1] * np.ones(d)
            + rng.normal(0, 0.3, (labels.size, d))
        )
    return ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=views,
        train_labels=labels,
        view_weights=rng.uniform(0.5, 1.5, n_views),
        n_clusters=c,
    )


class _GatedPredictor(Predictor):
    """Holds every batched predict until ``release`` is set."""

    def __init__(self, artifact, release):
        super().__init__(artifact)
        self.release = release

    def predict(self, views, **kwargs):
        self.release.wait(10.0)
        return super().predict(views, **kwargs)


def _sample(artifact, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(8.0, 3.0, d) for d in artifact.view_dims]


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry a body
        with err:
            return err.code, err.read().decode("utf-8")


class TestServiceRuntimeTelemetry:
    def test_latency_histograms_cover_every_request(self):
        artifact = _blob_artifact()
        n_requests = 12
        with PredictionService(Predictor(artifact)) as service:
            for i in range(n_requests):
                service.predict_one(_sample(artifact, seed=i))
        # Asserting after close(): the drain guarantees the worker has
        # finished recording telemetry for every request.
        m = service.metrics
        for name in (
            "serving.request_seconds",
            "serving.queue_wait_seconds",
        ):
            assert m.histograms[name].count == n_requests
            assert m.histograms[name].min >= 0.0
        # Every request rode in exactly one batch.
        assert m.histograms["serving.batch_size"].total == n_requests
        assert m.counters["serving.submitted"].value == n_requests
        assert m.counters["serving.completed"].value == n_requests
        # e2e latency includes the queue wait, never less.
        assert (
            m.histograms["serving.request_seconds"].total
            >= m.histograms["serving.queue_wait_seconds"].total
        )

    def test_queue_depth_gauge_returns_to_zero(self):
        artifact = _blob_artifact()
        with PredictionService(Predictor(artifact)) as service:
            service.predict_one(_sample(artifact))
            service.predict_one(_sample(artifact))
        assert service.metrics.gauges["serving.queue_depth"].value == 0.0

    def test_stats_snapshot_carries_queue_depth(self):
        artifact = _blob_artifact()
        with PredictionService(Predictor(artifact)) as service:
            service.predict_one(_sample(artifact))
            stats = service.stats()
        assert stats.queue_depth == 0
        payload = stats.to_dict()
        assert payload["submitted"] == 1
        assert payload["queue_depth"] == 0
        json.dumps(payload)  # strict-JSON ready

    def test_concurrent_clients_lose_no_counts(self):
        artifact = _blob_artifact()
        n_clients, per_client = 6, 10

        with PredictionService(
            Predictor(artifact), max_queue=n_clients * per_client
        ) as service:

            def client(worker):
                for i in range(per_client):
                    service.predict_one(_sample(artifact, seed=worker * 100 + i))

            threads = [
                threading.Thread(target=client, args=(w,))
                for w in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        total = n_clients * per_client
        m = service.metrics
        assert m.counters["serving.submitted"].value == total
        assert m.counters["serving.completed"].value == total
        assert m.histograms["serving.request_seconds"].count == total
        assert m.histograms["serving.queue_wait_seconds"].count == total

    def test_a_resolved_label_is_already_counted(self):
        artifact = _blob_artifact()
        release = threading.Event()
        seen = []
        with PredictionService(_GatedPredictor(artifact, release)) as service:
            future = service.submit(_sample(artifact))
            # Done-callbacks run inside the worker's set_result.
            future.add_done_callback(
                lambda _: seen.append(service.stats().completed)
            )
            release.set()
            future.result(timeout=10.0)
        assert seen == [1]

    def test_stats_equal_the_registry_after_overloaded_traffic(self):
        artifact = _blob_artifact()
        release = threading.Event()
        n_clients, per_client = 4, 10
        futures, rejections = [], []
        lock = threading.Lock()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # The gated worker holds at most 2 requests and the queue 3
            # more, so the first submits meet backpressure.
            gated = _GatedPredictor(artifact, release)
            with PredictionService(
                gated, max_batch=2, max_queue=3
            ) as service:

                def client(worker):
                    for i in range(per_client):
                        sample = _sample(artifact, seed=worker * 100 + i)
                        try:
                            future = service.submit(sample)
                        except ServiceOverloadedError:
                            with lock:
                                rejections.append(worker)
                        else:
                            with lock:
                                futures.append(future)

                threads = [
                    threading.Thread(target=client, args=(w,))
                    for w in range(n_clients)
                ]
                for t in threads:
                    t.start()
                deadline = time.time() + 10.0
                while not rejections and time.time() < deadline:
                    time.sleep(0.001)
                # Batches now complete while clients still submit.
                release.set()
                while any(t.is_alive() for t in threads):
                    snapshot = service.stats()
                    assert snapshot.completed <= snapshot.submitted
                    assert time.time() < deadline
                for t in threads:
                    t.join(timeout=10.0)
                    assert not t.is_alive()
                for future in futures:
                    future.result(timeout=10.0)
                # Completions are counted before the futures resolve.
                assert service.stats().completed == len(futures)
        finally:
            sys.setswitchinterval(previous)
            release.set()
        stats = service.stats()
        m = service.metrics
        sizes = m.histograms["serving.batch_size"]
        assert rejections
        assert stats.submitted + stats.rejected == n_clients * per_client
        assert stats.submitted == m.counters["serving.submitted"].value
        assert stats.submitted == len(futures)
        assert stats.rejected == m.counters["serving.rejected"].value
        assert stats.rejected == len(rejections)
        assert stats.completed == m.counters["serving.completed"].value
        assert stats.completed == stats.submitted
        assert stats.batches == sizes.count
        assert stats.max_batch_size == sizes.max
        assert 1 <= stats.max_batch_size <= 2
        assert stats.mean_batch_size == sizes.total / sizes.count


class TestTelemetryEndpoints:
    def test_http_round_trip_metrics_healthz_stats(self):
        artifact = _blob_artifact()
        with PredictionService(
            Predictor(artifact), telemetry_port=0
        ) as service:
            url = service.telemetry_url
            assert url is not None and url.startswith("http://127.0.0.1:")
            service.predict_one(_sample(artifact))
            # The worker records telemetry just after resolving the
            # future; wait for it before scraping.
            deadline = time.time() + 10.0
            hist = service.metrics.histograms["serving.request_seconds"]
            while hist.count < 1 and time.time() < deadline:
                time.sleep(0.01)

            status, text = _get(f"{url}/metrics")
            assert status == 200
            assert "# TYPE repro_serving_queue_depth gauge" in text
            assert 'repro_serving_request_seconds{quantile="0.5"}' in text
            assert 'repro_serving_request_seconds{quantile="0.99"}' in text
            assert "repro_serving_request_seconds_count 1" in text

            status, text = _get(f"{url}/healthz")
            assert status == 200
            doc = json.loads(text)
            assert doc["status"] == "ok"
            assert doc["ready"] is True
            assert doc["critical"] is False
            assert doc["failing"] == []
            assert doc["rules_evaluated"] > 0

            status, text = _get(f"{url}/stats")
            assert status == 200
            payload = json.loads(text)
            assert payload["service"]["completed"] == 1
            assert (
                payload["metrics"]["histograms"]["serving.request_seconds"][
                    "count"
                ]
                == 1
            )

            status, text = _get(f"{url}/nonsense")
            assert status == 404

    def test_metrics_endpoint_includes_resource_gauges(self):
        artifact = _blob_artifact()
        with PredictionService(
            Predictor(artifact), telemetry_port=0
        ) as service:
            status, text = _get(f"{service.telemetry_url}/metrics")
            assert status == 200
            assert "repro_process_rss_bytes" in text
            assert "repro_process_cpu_seconds" in text

    def test_health_payload_tracks_drain_state(self):
        artifact = _blob_artifact()
        service = PredictionService(Predictor(artifact))
        server = TelemetryServer(service, port=0)
        try:
            body, status, ctype = server.health_payload()
            assert status == 200
            assert ctype == "application/json"
            assert json.loads(body)["status"] == "ok"
            service.close()
            body, status, _ = server.health_payload()
            assert status == 503
            doc = json.loads(body)
            assert doc["status"] in ("draining", "closed")
            assert doc["ready"] is False
        finally:
            server.close()

    def test_healthz_flips_on_critical_rule_and_recovers(self):
        """A firing critical rule turns readiness 503; recovery restores
        200 — while concurrent clients hammer the endpoint the body must
        stay valid JSON on every single response (satellite: /healthz
        under concurrent load)."""
        from repro.observability.health import HealthRule

        artifact = _blob_artifact()
        rule = HealthRule(
            name="test-pressure",
            kind="threshold",
            selector="gauge:test.pressure",
            max_value=1.0,
            severity="critical",
        )
        service = PredictionService(Predictor(artifact))
        server = TelemetryServer(service, port=0, health_rules=[rule])
        url = server.url
        results, stop = [], threading.Event()
        lock = threading.Lock()

        def hammer():
            while not stop.is_set():
                status, text = _get(f"{url}/healthz")
                doc = json.loads(text)  # must never be non-JSON
                with lock:
                    results.append((status, doc["status"]))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            # Phase 1: gauge healthy -> 200/ok.
            service.metrics.gauge("test.pressure").set(0.5)
            status, text = _get(f"{url}/healthz")
            assert status == 200
            assert json.loads(text)["status"] == "ok"
            # Phase 2: breach the critical rule -> readiness flips.
            service.metrics.gauge("test.pressure").set(5.0)
            status, text = _get(f"{url}/healthz")
            doc = json.loads(text)
            assert status == 503
            assert doc["status"] == "failing"
            assert doc["ready"] is False
            assert doc["critical"] is True
            assert [r["rule"] for r in doc["failing"]] == ["test-pressure"]
            assert doc["failing"][0]["severity"] == "critical"
            # Phase 3: pressure subsides -> readiness recovers.
            service.metrics.gauge("test.pressure").set(0.2)
            status, text = _get(f"{url}/healthz")
            assert status == 200
            assert json.loads(text)["status"] == "ok"
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            server.close()
            service.close()
        # The hammering clients saw only the two legal states, all JSON.
        assert results
        assert {s for _, s in results} <= {"ok", "failing"}
        assert {code for code, _ in results} <= {200, 503}

    def test_server_stops_with_service_close(self):
        artifact = _blob_artifact()
        service = PredictionService(Predictor(artifact), telemetry_port=0)
        url = service.telemetry_url
        status, _ = _get(f"{url}/healthz")
        assert status == 200
        service.close()
        assert service.telemetry_url is None
        with pytest.raises(Exception):
            _get(f"{url}/healthz")


class TestServiceStatsLatency:
    def test_stats_carry_uptime_and_latency_percentiles(self):
        import json

        artifact = _blob_artifact()
        with PredictionService(Predictor(artifact)) as service:
            for _ in range(8):
                service.predict_one(_sample(artifact))
            stats = service.stats()
            hist = service.metrics.histograms["serving.request_seconds"]
            assert stats.uptime_seconds > 0.0
            assert stats.latency_p50 == hist.percentile(50)
            assert stats.latency_p95 == hist.percentile(95)
            assert stats.latency_p99 == hist.percentile(99)
            assert 0.0 < stats.latency_p50 <= stats.latency_p95
            assert stats.latency_p95 <= stats.latency_p99
            payload = stats.to_dict()
            assert {
                "uptime_seconds", "latency_p50", "latency_p95", "latency_p99",
            } <= set(payload)
            json.dumps(payload)  # the /stats endpoint serializes this

    def test_stats_empty_before_traffic(self):
        artifact = _blob_artifact()
        with PredictionService(Predictor(artifact)) as service:
            stats = service.stats()
        assert stats.latency_p50 is None
        assert stats.latency_p99 is None
        assert (stats.submitted, stats.completed, stats.rejected) == (0, 0, 0)
        assert (stats.batches, stats.max_batch_size) == (0, 0)
        assert stats.to_dict()["mean_batch_size"] is None
