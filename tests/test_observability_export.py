"""Tests for metric primitives, exporters, and the resource sampler.

Covers the production-telemetry hardening: thread-safe counters /
gauges / histograms (no lost updates under a concurrent hammer), the
deterministic bounded reservoir with exact-below-cap percentiles,
Prometheus-text and JSON rendering (golden output), and the background
RSS / CPU sampler.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ResourceSampler,
    Trace,
    metric_set,
    prometheus_name,
    render_json_snapshot,
    render_prometheus_snapshot,
    use_trace,
)
from repro.observability.metrics import DEFAULT_RESERVOIR_SIZE
from repro.observability.resource import read_cpu_seconds, read_rss_bytes


class TestCounter:
    def test_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match=">= 0"):
            Counter("x").inc(-1.0)

    def test_concurrent_hammer_loses_nothing(self):
        c = Counter("hammer")
        n_threads, n_incs = 8, 2000

        def worker():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == float(n_threads * n_incs)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue")
        g.set(4.0)
        g.dec()
        g.inc(2.0)
        assert g.value == 5.0

    def test_can_go_negative(self):
        g = Gauge("level")
        g.dec(3.0)
        assert g.value == -3.0

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.gauge("a") is registry.gauge("a")
        registry.gauge("a").set(7)
        assert registry.snapshot()["gauges"] == {"a": 7.0}


class TestHistogramReservoir:
    def test_scalar_summaries_always_exact(self):
        h = Histogram("h")
        values = list(range(3 * DEFAULT_RESERVOIR_SIZE))
        for v in values:
            h.observe(v)
        assert not h.exact
        assert h.count == len(values)
        assert h.total == float(sum(values))
        assert h.min == 0.0
        assert h.max == float(values[-1])
        assert h.mean == pytest.approx(np.mean(values))

    def test_bounded_storage(self):
        h = Histogram("h")
        for v in range(100_000):
            h.observe(v)
        assert len(h.values) <= DEFAULT_RESERVOIR_SIZE
        assert not h.exact

    def test_exact_below_cap(self):
        h = Histogram("h")
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        for v in values:
            h.observe(v)
        assert h.exact
        assert sorted(h.values) == sorted(float(v) for v in values)

    def test_percentiles_match_numpy_below_cap(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(size=1000)
        h = Histogram("lat")
        for v in values:
            h.observe(v)
        for q in (0, 12.5, 50, 90, 95, 99, 99.9, 100):
            assert h.percentile(q) == pytest.approx(
                float(np.percentile(values, q)), rel=0, abs=0
            )
        summary = h.quantile_summary()
        assert set(summary) == {"p50", "p90", "p95", "p99"}
        assert summary["p50"] == float(np.percentile(values, 50))

    def test_reservoir_is_deterministic(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=2 * DEFAULT_RESERVOIR_SIZE + 1)
        a = Histogram("a")
        b = Histogram("b")
        for v in values:
            a.observe(v)
            b.observe(v)
        assert not a.exact
        assert a.values == b.values

    def test_decimated_reservoir_is_arrival_strided(self):
        n = 4 * DEFAULT_RESERVOIR_SIZE
        h = Histogram("h")
        for v in range(n):
            h.observe(v)
        # Kept samples are exactly the arrival indices 0, s, 2s, ...
        kept = h.values
        stride = int(kept[1] - kept[0])
        assert stride > 1
        assert kept == [float(i) for i in range(0, n, stride)][: len(kept)]

    def test_decimated_percentiles_stay_reasonable(self):
        h = Histogram("h")
        values = list(range(10_000))
        for v in values:
            h.observe(v)
        # Uniform ramp: the strided subsample preserves quantiles well.
        assert h.percentile(50) == pytest.approx(5000, rel=0.05)
        assert h.percentile(99) == pytest.approx(9900, rel=0.05)

    def test_empty_histogram(self):
        h = Histogram("h")
        assert np.isnan(h.percentile(50))
        assert np.isnan(h.min) and np.isnan(h.mean)

    def test_concurrent_hammer_loses_no_observations(self):
        h = Histogram("hammer")
        n_threads, n_obs = 8, 2000

        def worker():
            for i in range(n_obs):
                h.observe(i)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == n_threads * n_obs
        assert h.total == float(n_threads * sum(range(n_obs)))
        assert not h.exact
        assert len(h.values) <= DEFAULT_RESERVOIR_SIZE

    def test_snapshot_keeps_legacy_keys_and_adds_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        entry = registry.snapshot()["histograms"]["h"]
        for key in ("count", "total", "min", "max", "mean"):
            assert key in entry  # pre-reservoir sink shape
        for key in ("p50", "p90", "p95", "p99"):
            assert key in entry


class TestPrometheusRendering:
    def test_name_sanitization(self):
        assert prometheus_name("serving.queue_depth") == (
            "repro_serving_queue_depth"
        )
        assert prometheus_name("a-b c") == "repro_a_b_c"

    def test_golden_output(self):
        registry = MetricsRegistry()
        registry.counter("eigsh.calls").inc(3)
        registry.gauge("serving.queue_depth").set(2)
        hist = registry.histogram("lat.seconds")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        expected = (
            "# TYPE repro_eigsh_calls_total counter\n"
            "repro_eigsh_calls_total 3\n"
            "# TYPE repro_serving_queue_depth gauge\n"
            "repro_serving_queue_depth 2\n"
            "# TYPE repro_lat_seconds summary\n"
            'repro_lat_seconds{quantile="0.5"} 2.5\n'
            'repro_lat_seconds{quantile="0.9"} 3.7\n'
            'repro_lat_seconds{quantile="0.95"} 3.8499999999999996\n'
            'repro_lat_seconds{quantile="0.99"} 3.9699999999999998\n'
            "repro_lat_seconds_sum 10\n"
            "repro_lat_seconds_count 4\n"
        )
        assert render_prometheus_snapshot(registry.snapshot()) == expected

    def test_empty_histogram_renders_without_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        text = render_prometheus_snapshot(registry.snapshot())
        assert "quantile" not in text
        assert "repro_h_sum 0\n" in text
        assert "repro_h_count 0\n" in text

    def test_every_line_is_valid_exposition_syntax(self):
        import re

        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("c").set(1.5)
        registry.histogram("d").observe(0.25)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{quantile="[0-9.]+"\})? '
            r"(NaN|[+-]Inf|-?[0-9.e+-]+)$"
        )
        text = render_prometheus_snapshot(registry.snapshot())
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+$", line)
            else:
                assert sample.match(line), line

    def test_empty_registry_renders_empty(self):
        assert render_prometheus_snapshot(MetricsRegistry().snapshot()) == ""


class TestJsonRendering:
    def test_round_trips_and_is_strict_json(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc(2)
        registry.gauge("depth").set(1)
        registry.histogram("empty")  # min/max are NaN -> must become null
        payload = json.loads(render_json_snapshot(registry.snapshot()))
        assert payload["counters"] == {"calls": 2.0}
        assert payload["gauges"] == {"depth": 1.0}
        assert payload["histograms"]["empty"]["min"] is None
        assert payload["histograms"]["empty"]["count"] == 0


class TestGaugeTraceHelpers:
    def test_metric_set_noop_without_trace(self):
        metric_set("some.gauge", 5.0)  # nothing raised, nothing recorded

    def test_metric_set_records_on_active_trace(self):
        with use_trace(Trace("t")) as trace:
            metric_set("some.gauge", 5.0)
        assert trace.metrics.gauges["some.gauge"].value == 5.0


class TestResourceSampler:
    def test_readers_return_plausible_values(self):
        assert read_rss_bytes() > 1024 * 1024  # a python process is > 1 MB
        assert read_cpu_seconds() >= 0.0

    def test_context_manager_summary(self):
        with ResourceSampler(interval_seconds=0.01) as sampler:
            # Burn a little CPU and allocate so the window isn't empty.
            arr = np.random.default_rng(0).normal(size=(400, 400))
            for _ in range(3):
                arr = arr @ arr.T
                arr /= np.abs(arr).max()
            time.sleep(0.03)
        usage = sampler.summary()
        assert usage["n_samples"] >= 2  # baseline + final at minimum
        assert usage["peak_rss_bytes"] > 1024 * 1024
        assert usage["wall_seconds"] > 0.0
        assert usage["cpu_seconds"] >= 0.0
        assert sampler.peak_rss_bytes == usage["peak_rss_bytes"]

    def test_publishes_gauges_into_registry(self):
        registry = MetricsRegistry()
        with ResourceSampler(interval_seconds=0.01, registry=registry):
            time.sleep(0.02)
        assert registry.gauge("process.rss_bytes").value > 0
        assert registry.gauge("process.peak_rss_bytes").value > 0
        assert registry.gauge("process.cpu_seconds").value >= 0.0

    def test_stop_is_idempotent(self):
        sampler = ResourceSampler(interval_seconds=0.01).start()
        first = sampler.stop()
        second = sampler.stop()
        assert first["n_samples"] == second["n_samples"]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValidationError, match="interval_seconds"):
            ResourceSampler(interval_seconds=0.0)
