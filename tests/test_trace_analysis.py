"""Tests for the offline trace analytics (repro.observability.analysis)."""

import io
import json

import pytest

from repro.cli import main
from repro.exceptions import TraceFileError
from repro.observability import (
    JsonlSink,
    Trace,
    critical_path,
    hotspot_summary,
    load_trace,
    metrics_snapshot,
    span,
    to_chrome_trace,
    use_trace,
)
from repro.observability.trace import metric_inc


def _write_trace(path):
    """A small real trace file: root -> (child_a, child_b -> grandchild)."""
    with use_trace(Trace("unit", sinks=[JsonlSink(path)])) as trace:
        metric_inc("unit.counter", 2)
        with span("root"):
            with span("child_a", view=0):
                pass
            with span("child_b"):
                with span("grandchild"):
                    pass
    return trace


class TestLoadTrace:
    def test_round_trip_shapes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = _write_trace(path)
        data = load_trace(path)
        assert [s["name"] for s in data.spans] == [
            "child_a", "grandchild", "child_b", "root",
        ]
        assert data.iterations == []
        assert data.meta is not None
        assert data.meta["trace_id"] == trace.trace_id
        assert data.trace_ids == [trace.trace_id]

    def test_missing_file_is_typed_error(self, tmp_path):
        with pytest.raises(TraceFileError, match="cannot read trace file"):
            load_trace(tmp_path / "absent.jsonl")

    def test_malformed_json_line_is_typed_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "name": "x"}\nnot json\n')
        with pytest.raises(TraceFileError, match="bad.jsonl:2 is not valid"):
            load_trace(path)

    def test_non_record_line_is_typed_error(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(TraceFileError, match="not a trace record"):
            load_trace(path)

    def test_no_spans_is_typed_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "fit_start", "solver": "X"}\n')
        with pytest.raises(TraceFileError, match="no span records"):
            load_trace(path)


class TestHotspots:
    def _synthetic(self, tmp_path):
        # root (1.0s) -> child (0.6s) -> grandchild (0.1s); child twice.
        records = [
            {"type": "span", "name": "grandchild", "duration": 0.1,
             "span_id": "g", "parent_id": "c1"},
            {"type": "span", "name": "child", "duration": 0.6,
             "span_id": "c1", "parent_id": "r"},
            {"type": "span", "name": "child", "duration": 0.2,
             "span_id": "c2", "parent_id": "r"},
            {"type": "span", "name": "root", "duration": 1.0,
             "span_id": "r"},
        ]
        path = tmp_path / "s.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return load_trace(path)

    def test_self_time_subtracts_direct_children(self, tmp_path):
        rows = {r.name: r for r in hotspot_summary(self._synthetic(tmp_path))}
        assert rows["root"].total_seconds == pytest.approx(1.0)
        assert rows["root"].self_seconds == pytest.approx(0.2)  # 1.0-0.6-0.2
        assert rows["child"].count == 2
        assert rows["child"].total_seconds == pytest.approx(0.8)
        assert rows["child"].self_seconds == pytest.approx(0.7)  # 0.8-0.1
        assert rows["grandchild"].self_seconds == pytest.approx(0.1)
        assert rows["child"].mean_seconds == pytest.approx(0.4)

    def test_rows_ranked_by_self_time_and_top_cap(self, tmp_path):
        data = self._synthetic(tmp_path)
        rows = hotspot_summary(data)
        assert [r.name for r in rows] == ["child", "root", "grandchild"]

    def test_self_times_sum_to_root_duration(self, tmp_path):
        rows = hotspot_summary(self._synthetic(tmp_path))
        assert sum(r.self_seconds for r in rows) == pytest.approx(1.0)


class TestCriticalPath:
    def test_walks_longest_child_chain(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        steps = critical_path(load_trace(path))
        assert [s.name for s in steps][0] == "root"
        assert [s.depth for s in steps] == list(range(len(steps)))
        # Steps partition the root's duration.
        assert sum(s.self_seconds for s in steps) == pytest.approx(
            steps[0].duration_seconds, rel=1e-6
        )

    def test_named_root(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        steps = critical_path(load_trace(path), root="child_b")
        assert [s.name for s in steps] == ["child_b", "grandchild"]

    def test_unknown_root_is_typed_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        with pytest.raises(TraceFileError, match="no span named 'nope'"):
            critical_path(load_trace(path), root="nope")


class TestChromeExport:
    def test_document_shape_and_units(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = _write_trace(path)
        data = load_trace(path)
        doc = to_chrome_trace(data)
        assert json.loads(json.dumps(doc)) == doc  # strict-JSON safe
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "unit"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(data.spans)
        root = next(e for e in complete if e["name"] == "root")
        root_rec = next(s for s in data.spans if s["name"] == "root")
        # Microseconds, laid out on the wall clock, one lane per thread.
        assert root["ts"] == pytest.approx(root_rec["timestamp"] * 1e6)
        assert root["dur"] == pytest.approx(root_rec["duration"] * 1e6)
        assert root["pid"] == trace.pid
        assert root["tid"] == root_rec["thread"]
        assert root["args"]["trace_id"] == trace.trace_id

    def test_links_become_flow_arrows(self, tmp_path):
        records = [
            {"type": "span", "name": "request", "duration": 0.2,
             "span_id": "req", "timestamp": 100.0, "links": ["bat"]},
            {"type": "span", "name": "batch", "duration": 0.1,
             "span_id": "bat", "timestamp": 100.1, "links": ["req"]},
        ]
        path = tmp_path / "linked.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        doc = to_chrome_trace(load_trace(path))
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        # The reciprocal link pair is deduplicated into one arrow.
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["ts"] <= finishes[0]["ts"]


class TestMetricsSnapshot:
    def test_reads_trace_end_payload(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        snapshot = metrics_snapshot(load_trace(path))
        assert snapshot["counters"]["unit.counter"] == 2

    def test_missing_snapshot_is_typed_error(self, tmp_path):
        path = tmp_path / "nometa.jsonl"
        path.write_text('{"type": "span", "name": "x", "duration": 0.1}\n')
        with pytest.raises(TraceFileError, match="no metrics snapshot"):
            metrics_snapshot(load_trace(path))


class TestTraceCLI:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "cli.jsonl"
        _write_trace(path)
        return path

    def test_summary_prints_hotspot_table(self, trace_file):
        out = io.StringIO()
        assert main(["trace", "summary", str(trace_file)], out=out) == 0
        text = out.getvalue()
        assert "4 spans" in text
        for name in ("root", "child_a", "child_b", "grandchild"):
            assert name in text
        assert "self" in text and "share" in text

    def test_critical_path_prints_chain(self, trace_file):
        out = io.StringIO()
        assert (
            main(
                ["trace", "critical-path", str(trace_file), "--root", "root"],
                out=out,
            )
            == 0
        )
        assert "critical path (root)" in out.getvalue()

    def test_export_writes_valid_chrome_json(self, trace_file, tmp_path):
        out = io.StringIO()
        dest = tmp_path / "chrome.json"
        assert (
            main(
                ["trace", "export", str(trace_file), "--out", str(dest)],
                out=out,
            )
            == 0
        )
        doc = json.loads(dest.read_text())
        assert doc["traceEvents"]
        assert "Perfetto" in out.getvalue()

    def test_missing_file_exits_with_message(self, tmp_path, capsys):
        out = io.StringIO()
        code = main(["trace", "summary", str(tmp_path / "no.jsonl")], out=out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace file")

    def test_served_session_trace_is_analyzable(self, tmp_path):
        # End-to-end: a PredictionService session's JSONL supports every
        # trace command (summary roots differ from a fit trace).
        import numpy as np

        from repro.datasets.synth import make_multiview_blobs
        from repro.serving import ModelArtifact, PredictionService, Predictor

        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=0)
        artifact = ModelArtifact(
            model_class="UnifiedMVSC",
            train_views=ds.views,
            train_labels=ds.labels,
            view_weights=np.array([0.5, 0.5]),
            n_clusters=ds.n_clusters,
        )
        path = tmp_path / "served.jsonl"
        with use_trace(Trace("serve", sinks=[JsonlSink(path)])):
            with PredictionService(Predictor(artifact), max_batch=8) as svc:
                for i in range(4):
                    svc.predict_one([v[i] for v in ds.views])
        out = io.StringIO()
        assert main(["trace", "summary", str(path)], out=out) == 0
        assert "serving.request" in out.getvalue()
        out = io.StringIO()
        assert (
            main(
                ["trace", "critical-path", str(path),
                 "--root", "serving.batch"],
                out=out,
            )
            == 0
        )
        assert "serving.predict" in out.getvalue()
