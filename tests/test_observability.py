"""Tests for the solver instrumentation layer (repro.observability)."""

import io
import json
import re
import threading
import time
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.core.model import UnifiedMVSC
from repro.core.anchor_model import AnchorMVSC
from repro.core.sparse_model import SparseMVSC
from repro.context import current_context
from repro.datasets.synth import make_multiview_blobs
from repro.exceptions import ConvergenceWarning, MonotonicityWarning
from repro.observability import (
    IterationEvent,
    JsonlSink,
    LoggingSink,
    Trace,
    TraceRecorder,
    current_request_id,
    current_trace,
    hot_span,
    load_trace,
    span,
    use_request,
    use_trace,
)
from repro.observability.trace import (
    NOOP_SPAN,
    SpanRecord,
    metric_inc,
    metric_observe,
)


def _block_seconds(spans) -> dict:
    """``{iteration: {block: seconds}}`` from the alternation's block
    spans (the spans carrying an ``iteration`` attribute)."""
    out: dict = {}
    for record in spans:
        iteration = record.attributes.get("iteration")
        if iteration is not None:
            blocks = out.setdefault(iteration, {})
            seconds = blocks.get(record.name, 0.0) + record.duration
            blocks[record.name] = seconds
    return out


class TestSpanAPI:
    def test_nesting_records_depth_and_parent(self):
        with use_trace(Trace("t")) as trace:
            with span("outer"):
                with span("inner", k=3):
                    pass
                with span("inner2"):
                    pass
        names = [s.name for s in trace.spans]
        assert names == ["inner", "inner2", "outer"]  # completion order
        by_name = {s.name: s for s in trace.spans}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["inner"].depth == 1 and by_name["inner"].parent == "outer"
        assert by_name["inner"].attributes == {"k": 3}
        assert all(s.duration >= 0.0 for s in trace.spans)

    def test_set_attaches_attributes_mid_span(self):
        with use_trace(Trace("t")) as trace:
            with span("work") as sp:
                sp.set(n_iter=7)
        assert trace.spans[0].attributes["n_iter"] == 7

    def test_exception_unwinds_span_stack(self):
        trace = Trace("t")
        with pytest.raises(RuntimeError):
            with use_trace(trace):
                with span("outer"):
                    raise RuntimeError("boom")
        assert current_trace() is None
        assert [s.name for s in trace.spans] == ["outer"]
        assert current_context().span is None

    def test_phase_stats_totals(self):
        with use_trace(Trace("t")) as trace:
            for _ in range(3):
                with span("phase"):
                    pass
        count, total = trace.phase_stats()["phase"]
        assert count == 3
        assert trace.phase_totals()["phase"] == pytest.approx(total)


class TestDisabledMode:
    def test_off_by_default(self):
        assert current_trace() is None

    def test_span_is_shared_noop(self):
        assert span("anything") is NOOP_SPAN
        assert span("other", k=1) is NOOP_SPAN
        with span("nested") as sp:
            assert sp.set(x=1) is sp

    def test_profile_span_shares_the_same_noop(self):
        # The profiling wrapper must not add a second dormant object:
        # with no session and no trace it is the identical singleton.
        assert hot_span("anything") is NOOP_SPAN
        assert hot_span("other", k=1) is span("other", k=1)

    def test_metrics_helpers_are_noops(self):
        metric_inc("some.counter")
        metric_observe("some.hist", 3.0)  # nothing raised, nothing recorded

    @pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
    def test_no_events_recorded_and_negligible_overhead(self):
        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=0)
        recorder = TraceRecorder()
        with use_trace(Trace("t", sinks=[recorder])):
            UnifiedMVSC(3, max_iter=3, n_restarts=2, random_state=0).fit(
                ds.views
            )
        assert recorder.events  # enabled mode records
        before = len(recorder.events)
        UnifiedMVSC(3, max_iter=3, n_restarts=2, random_state=0).fit(ds.views)
        assert len(recorder.events) == before  # disabled mode records nothing
        # The no-op fast path is a single contextvar lookup.
        start = time.perf_counter()
        for _ in range(20000):
            with span("hot"):
                pass
        assert time.perf_counter() - start < 1.0


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        event = IterationEvent(
            solver="UnifiedMVSC",
            iteration=1,
            objective=1.5,
            objective_pre_reweight=1.6,
            rel_change=0.1,
            gpi_iterations=4,
            label_moves=2,
            view_weights=(0.4, 0.6),
        )
        with use_trace(Trace("t", sinks=[JsonlSink(path)])) as trace:
            with span("phase", k=2):
                pass
            trace.emit(event)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {r["type"] for r in records}
        assert kinds == {"span", "iteration", "trace_end"}
        span_rec = next(r for r in records if r["type"] == "span")
        assert span_rec["name"] == "phase"
        assert span_rec["attributes"] == {"k": 2}
        iter_rec = next(r for r in records if r["type"] == "iteration")
        assert iter_rec == {"type": "iteration", **event.to_dict()}
        # The closing trace_end line makes the file self-describing.
        tail = records[-1]
        assert tail["type"] == "trace_end"
        assert tail["trace_id"] == trace.trace_id
        assert tail["n_spans"] == 1 and tail["n_events"] == 1
        assert span_rec["trace_id"] == trace.trace_id
        assert set(tail["metrics"]) == {"counters", "gauges", "histograms"}

    def test_stream_destination_left_open(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.on_fit_start({"solver": "X"})
        sink.close()
        assert json.loads(stream.getvalue()) == {
            "type": "fit_start",
            "solver": "X",
        }


class TestIterationEvents:
    @pytest.fixture(scope="class")
    def fitted(self):
        ds = make_multiview_blobs(90, 3, view_dims=(10, 14), random_state=3)
        recorder = TraceRecorder()
        model = UnifiedMVSC(
            3, max_iter=10, n_restarts=3, random_state=0, callbacks=[recorder]
        )
        with warnings.catch_warnings(), use_trace(Trace("fit")) as trace:
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = model.fit(ds.views)
        return result, recorder, trace

    def test_one_event_per_iteration(self, fitted):
        result, recorder, _ = fitted
        assert len(recorder.events) == result.n_iter
        assert [e.iteration for e in recorder.events] == list(
            range(1, result.n_iter + 1)
        )

    def test_events_match_history_and_result(self, fitted):
        result, recorder, _ = fitted
        assert [e.objective for e in recorder.events] == pytest.approx(
            result.objective_history
        )
        assert recorder.events[0].rel_change is None
        assert recorder.events[-1].view_weights == pytest.approx(
            tuple(result.view_weights)
        )

    def test_block_timings_present_and_positive(self, fitted):
        _, recorder, trace = fitted
        blocks = _block_seconds(trace.spans)
        assert sorted(blocks) == [e.iteration for e in recorder.events]
        for event in recorder.events:
            for key in ("f_step", "r_step", "y_step", "w_step", "objective"):
                assert blocks[event.iteration][key] >= 0.0
            assert event.gpi_iterations >= 1  # lam > 0 -> GPI ran
            assert event.label_moves >= 0

    def test_pre_reweight_objective_descends(self, fitted):
        result, recorder, _ = fitted
        # Block descent: pre-reweighting objective never exceeds the
        # previous recorded value (up to tolerance).
        for prev, event in zip(result.objective_history, recorder.events[1:]):
            assert event.objective_pre_reweight <= prev + 1e-6 * max(
                1.0, abs(prev)
            )

    def test_diagnostics_rides_on_result(self, fitted):
        result, _, trace = fitted
        assert len(result.diagnostics.events) == result.n_iter
        assert [e.objective for e in result.diagnostics.events] == (
            pytest.approx(result.objective_history)
        )
        phases = trace.phase_totals()
        assert set(phases) >= {"f_step", "r_step", "y_step", "w_step"}
        blocks = _block_seconds(trace.spans)
        assert sum(sum(b.values()) for b in blocks.values()) > 0.0
        assert result.diagnostics.events[0].to_dict()["iteration"] == 1

    def test_fit_start_and_end_hooks(self, fitted):
        result, recorder, _ = fitted
        kinds = [info["type"] for info in recorder.fit_infos]
        assert kinds == ["fit_start", "fit_end"]
        assert recorder.fit_infos[0]["solver"] == "UnifiedMVSC"
        assert recorder.fit_infos[1]["n_iter"] == result.n_iter

    def test_fit_hooks_reach_trace_sinks(self, tmp_path):
        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=2)
        recorder = TraceRecorder()
        path = tmp_path / "fit.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            with use_trace(
                Trace("fit", sinks=[recorder, JsonlSink(path)])
            ) as trace:
                result = UnifiedMVSC(3, max_iter=5, random_state=0).fit(
                    ds.views
                )
        kinds = [info["type"] for info in recorder.fit_infos]
        assert kinds == ["fit_start", "fit_end"]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        fit_records = [
            r for r in records if r["type"] in ("fit_start", "fit_end")
        ]
        assert [r["type"] for r in fit_records] == kinds
        assert fit_records[1]["n_iter"] == result.n_iter
        # The trace itself still records only the iteration events.
        assert len(trace.events) == result.n_iter
        assert records[-1]["n_events"] == result.n_iter

    def test_scalable_variants_emit_events(self):
        # Iteration 1 of a scalable solver cold-starts (the rotation
        # search replaces the R-step); from iteration 2 on all three
        # solvers run the same F/R/Y/w blocks through the shared driver.
        ds = make_multiview_blobs(80, 3, view_dims=(8, 10), random_state=1)
        for cls in (UnifiedMVSC, AnchorMVSC, SparseMVSC):
            recorder = TraceRecorder()
            model = cls(
                3, max_iter=3, n_restarts=2, random_state=0,
                callbacks=[recorder],
            )
            with use_trace(Trace("fit")) as trace:
                labels = model.fit_predict(ds.views)
            assert labels.shape == (80,)
            assert len(recorder.events) >= 2
            assert recorder.events[0].solver == cls.__name__
            blocks = _block_seconds(trace.spans)
            assert set(blocks[1]) >= {"f_step", "y_step", "w_step"}
            for event in recorder.events[1:]:
                assert set(blocks[event.iteration]) >= {
                    "f_step", "r_step", "y_step", "w_step",
                }


class TestZeroImpact:
    def test_results_bit_identical_with_tracing_on_vs_off(self):
        ds = make_multiview_blobs(80, 3, view_dims=(8, 12), random_state=5)

        def fit():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                return UnifiedMVSC(
                    3, max_iter=5, n_restarts=3, random_state=42
                ).fit(ds.views)

        plain = fit()
        with use_trace(Trace("t", sinks=[TraceRecorder()])):
            traced = fit()
        assert np.array_equal(plain.labels, traced.labels)
        assert plain.objective_history == traced.objective_history
        assert np.array_equal(plain.view_weights, traced.view_weights)
        assert np.array_equal(plain.embedding, traced.embedding)

    def test_trace_collects_solver_spans_and_metrics(self):
        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=2)
        with use_trace(Trace("t")) as trace:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                UnifiedMVSC(3, max_iter=3, n_restarts=2, random_state=0).fit(
                    ds.views
                )
        totals = trace.phase_totals()
        assert set(totals) >= {
            "graph_build", "view_laplacians", "initialize",
            "f_step", "r_step", "y_step", "w_step", "gpi", "eigsh",
        }
        gpi_hist = trace.metrics.histograms["gpi.inner_iterations"]
        assert gpi_hist.count >= 1 and gpi_hist.min >= 1
        assert trace.metrics.counters["eigsh.calls"].value >= 1
        assert trace.metrics.counters["y_step.moves"].value >= 0


class TestWarningsAndReprs:
    def test_monotonicity_warning_is_convergence_family(self):
        assert issubclass(MonotonicityWarning, ConvergenceWarning)
        assert issubclass(MonotonicityWarning, UserWarning)

    def test_convergence_warning_carries_diagnostics(self):
        ds = make_multiview_blobs(70, 3, view_dims=(8, 10), random_state=4)
        with pytest.warns(
            ConvergenceWarning, match="last relative objective change"
        ):
            UnifiedMVSC(3, max_iter=1, n_restarts=2, random_state=0).fit(
                ds.views
            )

    def test_model_repr(self):
        text = repr(UnifiedMVSC(4, lam=0.5, random_state=0))
        assert text.startswith("UnifiedMVSC(")
        assert "n_clusters=4" in text and "lam=0.5" in text
        assert "AnchorMVSC(" in repr(AnchorMVSC(3))
        assert "SparseMVSC(" in repr(SparseMVSC(3))

    def test_result_repr(self):
        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = UnifiedMVSC(
                3, max_iter=3, n_restarts=2, random_state=0
            ).fit(ds.views)
        text = repr(result)
        assert "UMSCResult(" in text
        assert "n_iter=" in text and "converged=" in text
        assert "objective=" in text and "view_weights=[" in text
        assert "array(" not in text  # no raw ndarray dumps


class TestLoggingSink:
    def test_verbose_lines_on_stream(self):
        stream = io.StringIO()
        sink = LoggingSink(stream=stream)
        try:
            sink.on_fit_start({"solver": "UnifiedMVSC", "n_samples": 10})
            sink.on_iteration(
                IterationEvent(
                    solver="UnifiedMVSC",
                    iteration=1,
                    objective=2.0,
                    gpi_iterations=3,
                    label_moves=1,
                    view_weights=(0.5, 0.5),
                )
            )
            sink.on_fit_end({"solver": "UnifiedMVSC", "n_iter": 1})
        finally:
            sink.close()
        text = stream.getvalue()
        assert "fit start" in text
        assert "iter 1" in text and "obj=2.000000" in text
        assert "gpi=3" in text and "moves=1" in text
        assert "fit end" in text

    def test_block_ms_come_from_iteration_spans(self):
        stream = io.StringIO()
        sink = LoggingSink(stream=stream)
        try:
            for name, duration in (("f_step", 0.002), ("objective", 0.001),
                                   ("objective", 0.001), ("gpi", 0.5)):
                attributes = {} if name == "gpi" else {"iteration": 1}
                sink.on_span(
                    SpanRecord(
                        name,
                        duration=duration,
                        attributes=attributes,
                        thread=threading.get_ident(),
                    )
                )
            event = IterationEvent(solver="UnifiedMVSC", iteration=1)
            sink.on_iteration(event)
            sink.on_iteration(event)
        finally:
            sink.close()
        first, second = stream.getvalue().splitlines()
        # Repeated blocks add up; spans without an iteration are not
        # blocks; each iteration's blocks are printed once.
        assert "f_step=2.0ms objective=2.0ms" in first
        assert "gpi" not in first
        assert "ms" not in second

    def test_close_restores_logger_state(self, monkeypatch):
        import logging

        logger = logging.getLogger("repro.observability")
        monkeypatch.setattr(logger, "propagate", True)
        monkeypatch.setattr(logger, "level", logging.NOTSET)
        handlers = list(logger.handlers)
        sink = LoggingSink(stream=io.StringIO())
        assert logger.propagate is False and logger.level == logging.INFO
        sink.close()
        assert logger.propagate is True
        assert logger.level == logging.NOTSET
        assert logger.handlers == handlers


class _TraceSpy:
    """Estimator stand-in recording the trace active at each fit."""

    def __init__(self, seen: list, n_samples: int) -> None:
        self.seen = seen
        self.n_samples = n_samples

    def fit_predict(self, views):
        self.seen.append(current_trace())
        return np.arange(self.n_samples) % 3


class TestRunnerIntegration:
    def test_run_experiment_aggregates_phase_breakdown(self):
        from repro.datasets import load_benchmark
        from repro.evaluation.runner import run_experiment

        ds = load_benchmark("yale")
        with warnings.catch_warnings(), use_trace(Trace("exp")) as trace:
            warnings.simplefilter("ignore", ConvergenceWarning)
            results = run_experiment(
                ds, methods=["UMSC"], n_runs=2, metrics=("acc",)
            )
        assert results["UMSC"].n_runs == 2
        phases = trace.phase_stats()
        assert set(phases) >= {"f_step", "y_step", "w_step"}
        assert phases["graph_build"][0] == 2  # both runs recorded
        assert all(total >= 0.0 for _, total in phases.values())

    def test_grid_sweep_records_phase_seconds(self):
        from repro.evaluation.sweeps import grid_sweep

        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=0)
        with warnings.catch_warnings(), use_trace(Trace("sweep")) as trace:
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = grid_sweep(
                ds,
                lambda random_state, lam: UnifiedMVSC(
                    3, lam=lam, max_iter=2, n_restarts=2,
                    random_state=random_state,
                ),
                {"lam": [0.5, 1.0]},
                metrics=("acc",),
            )
        assert len(result.points) == 2
        phases = trace.phase_stats()
        assert phases["graph_build"][0] == 2  # both points recorded
        assert phases["f_step"][1] >= 0.0

    def test_run_experiment_fits_with_no_trace(self, monkeypatch):
        from repro.evaluation import runner
        from repro.evaluation.registry import MethodSpec

        ds = make_multiview_blobs(30, 3, view_dims=(4, 5), random_state=0)
        seen: list = []
        spy = MethodSpec("Spy", lambda c, seed: _TraceSpy(seen, 30))
        monkeypatch.setattr(
            runner, "default_method_registry", lambda: {"Spy": spy}
        )
        runner.run_experiment(ds, methods=["Spy"], n_runs=2, metrics=("acc",))
        assert seen == [None, None]

    def test_grid_sweep_fits_with_no_trace(self):
        from repro.evaluation.sweeps import grid_sweep

        ds = make_multiview_blobs(30, 3, view_dims=(4, 5), random_state=0)
        seen: list = []
        grid_sweep(
            ds,
            lambda random_state, lam: _TraceSpy(seen, 30),
            {"lam": [0.5, 1.0]},
            metrics=("acc",),
        )
        assert seen == [None, None]


class TestCLI:
    def test_run_with_trace_and_verbose(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        out = io.StringIO()
        code = main(
            [
                "run", "--dataset", "yale", "--method", "UMSC",
                "--trace", str(path), "--verbose", "--profile",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "profile (time per phase):" in text
        assert "trace:" in text and "iteration events" in text
        data = load_trace(path)
        assert data.iterations and data.spans
        # One event per outer iteration; its block spans carry the
        # per-block timings.
        event = data.iterations[-1]
        assert event["solver"] == "UnifiedMVSC"
        blocks = [
            s for s in data.spans
            if s["attributes"].get("iteration") == event["iteration"]
        ]
        assert sum(s["duration"] for s in blocks) > 0.0
        assert len(event["view_weights"]) > 0
        err = capsys.readouterr().err
        assert "iter 1" in err  # --verbose logged to stderr
        # --verbose prints each block's milliseconds from its span.
        first = next(line for line in err.splitlines() if "iter 1:" in line)
        assert re.search(r"f_step=\d+\.\dms", first)
        assert re.search(r"w_step=\d+\.\dms", first)

    def test_run_without_flags_writes_no_trace(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["run", "--dataset", "yale", "--method", "KernelAddSC"], out=out
        )
        assert code == 0
        assert "trace:" not in out.getvalue()
        assert list(tmp_path.iterdir()) == []

    def test_run_without_flags_fits_with_no_trace(self, monkeypatch):
        import repro.cli
        from repro.datasets import load_benchmark
        from repro.evaluation.registry import (
            MethodSpec,
            default_method_registry,
        )

        n = load_benchmark("yale").n_samples
        seen: list = []
        spy = MethodSpec("UMSC", lambda c, seed: _TraceSpy(seen, n))
        monkeypatch.setattr(
            repro.cli,
            "default_method_registry",
            lambda: {**default_method_registry(), "UMSC": spy},
        )
        assert main(["run", "--dataset", "yale"], out=io.StringIO()) == 0
        assert seen == [None]
        assert main(
            ["run", "--dataset", "yale", "--profile"], out=io.StringIO()
        ) == 0
        assert seen[1] is not None  # --profile turns the trace on

    def test_trace_events_cover_every_iteration(self, tmp_path):
        from repro.datasets import load_benchmark
        from repro.evaluation.registry import default_method_registry
        from repro.evaluation.runner import run_method_once

        path = tmp_path / "out.jsonl"
        out = io.StringIO()
        assert (
            main(
                [
                    "run", "--dataset", "yale", "--method", "UMSC",
                    "--trace", str(path), "--seed", "3",
                ],
                out=out,
            )
            == 0
        )
        iterations = load_trace(path).iterations
        # Re-run the same configuration in-process to learn n_iter.
        ds = load_benchmark("yale")
        spec = default_method_registry()["UMSC"]
        recorder = TraceRecorder()
        with use_trace(Trace("t", sinks=[recorder])):
            run_method_once(spec, ds, 3, metrics=("acc",))
        assert len(iterations) == len(recorder.events)
        assert len(iterations) >= 1


class TestSpanIdentity:
    def test_last_trace_round_trips_identity_fields(self, tmp_path):
        path = tmp_path / "id.jsonl"
        with use_trace(Trace("ids", sinks=[JsonlSink(path)])) as trace:
            with span("outer"):
                with span("inner"):
                    pass
        by_name = {s.name: s for s in trace.spans}
        outer, inner = by_name["outer"], by_name["inner"]
        # Every span carries the full correlation identity.
        for s in (outer, inner):
            assert s.trace_id == trace.trace_id
            assert len(s.span_id) == 16
            assert s.timestamp > 1e9  # wall clock, not perf_counter
            assert s.thread
            assert s.request_id is None
            assert s.links == []
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.span_id != inner.span_id
        # The JSONL sink round-trips the same fields verbatim.
        records = {r["name"]: r for r in load_trace(path).spans}
        for s in (outer, inner):
            rec = records[s.name]
            assert rec["trace_id"] == s.trace_id
            assert rec["span_id"] == s.span_id
            assert rec.get("parent_id") == s.parent_id
            assert rec["timestamp"] == pytest.approx(s.timestamp)

    def test_use_request_stamps_spans_within_scope(self):
        assert current_request_id() is None
        with use_trace(Trace("t")) as trace:
            with use_request("req-1"):
                assert current_request_id() == "req-1"
                with span("inside"):
                    pass
            with span("outside"):
                pass
        assert current_request_id() is None
        by_name = {s.name: s for s in trace.spans}
        assert by_name["inside"].request_id == "req-1"
        assert by_name["outside"].request_id is None
