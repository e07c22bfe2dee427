"""Tests for the opt-in profiling hooks (repro.observability.profiling)."""

import pytest

from repro.exceptions import ValidationError
from repro.observability import (
    ProfilingSession,
    Trace,
    current_profiling,
    hot_span,
    use_profiling,
    use_trace,
)
from repro.observability.trace import NOOP_SPAN


def _burn():
    return sum(i * i for i in range(5000))


class TestDisabledMode:
    def test_profile_span_is_shared_noop_when_fully_disabled(self):
        # No session AND no trace: the same singleton span() returns, so
        # the dormant cost stays one contextvar lookup on top of span's.
        assert hot_span("eigsh") is NOOP_SPAN
        assert hot_span("gpi", n=5) is NOOP_SPAN

    def test_profile_span_is_plain_live_span_with_trace_only(self):
        with use_trace(Trace("t")) as trace:
            with hot_span("hot") as sp:
                sp.set(k=1)
        assert [s.name for s in trace.spans] == ["hot"]
        assert "profile" not in trace.spans[0].attributes

    def test_no_session_by_default(self):
        assert current_profiling() is None


class TestProfilingSession:
    def test_records_hotspots_per_site(self):
        with use_profiling(limit=8) as session:
            with hot_span("site.a"):
                _burn()
            with hot_span("site.b"):
                _burn()
        assert session.sites() == ["site.a", "site.b"]
        rows = session.hotspots("site.a")
        assert rows and all(
            set(r) == {"function", "calls", "tottime", "cumtime"}
            for r in rows
        )
        # Merged view covers both sites; top caps the row count.
        assert session.hotspots()
        assert len(session.hotspots(top=1)) == 1

    def test_repeated_site_executions_accumulate(self):
        with use_profiling() as session:
            for _ in range(3):
                with hot_span("site"):
                    _burn()
        row = next(
            r for r in session.hotspots("site") if "_burn" in r["function"]
        )
        assert row["calls"] == 3

    def test_span_attributes_carry_profile_rows(self):
        with use_trace(Trace("t")) as trace:
            with use_profiling():
                with hot_span("hot"):
                    _burn()
        profile = trace.spans[0].attributes["profile"]
        assert profile and profile[0]["cumtime"] >= 0.0
        assert any("_burn" in r["function"] for r in profile)

    def test_nested_profile_spans_profile_outermost_only(self):
        # CPython allows one active profiler; the inner block degrades
        # to a plain span instead of raising.
        with use_trace(Trace("t")) as trace:
            with use_profiling() as session:
                with hot_span("outer"):
                    with hot_span("inner"):
                        _burn()
        assert session.sites() == ["outer"]
        by_name = {s.name: s for s in trace.spans}
        assert "profile" in by_name["outer"].attributes
        assert "profile" not in by_name["inner"].attributes

    def test_context_restored_and_validation(self):
        with use_profiling() as session:
            assert current_profiling() is session
        assert current_profiling() is None
        with pytest.raises(ValidationError, match="limit must be >= 1"):
            ProfilingSession(limit=0)

    def test_exception_disables_profiler(self):
        with use_profiling() as session:
            with pytest.raises(RuntimeError):
                with hot_span("boom"):
                    raise RuntimeError("boom")
            assert session.sites() == ["boom"]  # capture still recorded
            # A later block can profile again (the active flag was reset).
            with hot_span("after"):
                _burn()
        assert session.sites() == ["after", "boom"]


class TestInstrumentedKernels:
    def test_fit_profiles_designated_hot_spans(self):
        import warnings

        from repro.core.model import UnifiedMVSC
        from repro.datasets.synth import make_multiview_blobs
        from repro.exceptions import ConvergenceWarning

        ds = make_multiview_blobs(60, 3, view_dims=(6, 8), random_state=0)
        with use_profiling() as session:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                UnifiedMVSC(3, max_iter=2, n_restarts=2, random_state=0).fit(
                    ds.views
                )
        assert {"eigsh", "gpi", "view_affinity"} <= set(session.sites())

    def test_bench_report_carries_hotspots(self):
        from repro.bench import run_benches

        report = run_benches(["graph_build"], quick=True, repeats=1)
        entry = report["benches"]["graph_build"]
        assert "knn_affinity" in entry["hotspots"]
        assert entry["hotspots"]["knn_affinity"][0]["cumtime"] >= 0.0
        without = run_benches(
            ["graph_build"], quick=True, repeats=1, profile=False
        )
        assert "hotspots" not in without["benches"]["graph_build"]
