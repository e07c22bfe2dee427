"""Tests for per-phase memory attribution and the bench memory gate.

Covers :mod:`repro.observability.memory` — the dormant
``hot_span`` → ``NOOP_SPAN`` chain, :class:`MemorySession`
recording/nesting, :func:`use_memory_tracking` tracemalloc ownership —
plus the :mod:`repro.bench` integration: the per-bench ``memory``
entry, the memory rows of :func:`~repro.bench.compare_reports` (own
threshold, 16 MB noise floor, warn-only on missing fields), and the
acceptance path where an
injected allocation blow-up in a tracked bench fails the gate.  The
single-use :class:`~repro.observability.resource.ResourceSampler`
contract rides along (satellite).
"""

from __future__ import annotations

import copy
import tracemalloc

import pytest

from repro import bench as bench_mod
from repro.exceptions import ValidationError
from repro.observability import Trace, use_trace
from repro.observability.memory import (
    MemorySession,
    current_memory,
    use_memory_tracking,
)
from repro.observability.resource import ResourceSampler
from repro.observability.trace import NOOP_SPAN, hot_span


class TestDormancy:
    def test_memory_span_is_shared_noop_without_trace(self):
        assert current_memory() is None
        assert hot_span("anything") is NOOP_SPAN
        assert hot_span("anything", tag=1) is NOOP_SPAN

    def test_memory_span_without_session_still_profiles(self):
        trace = Trace("no-session")
        with use_trace(trace):
            with hot_span("phase.x"):
                pass
        assert any(s.name == "phase.x" for s in trace.spans)


class TestMemorySession:
    def test_session_records_outermost_spans_only(self):
        trace = Trace("mem")
        with use_trace(trace):
            with use_memory_tracking() as session:
                with hot_span("outer"):
                    blob = bytearray(8 << 20)
                    with hot_span("inner"):
                        blob2 = bytearray(4 << 20)
                del blob, blob2
        table = session.table()
        assert "outer" in session.sites()
        # The nested span must not double-count: only the outermost
        # span of a stack measures (tracemalloc peaks are global).
        assert "inner" not in table
        assert table["outer"]["peak_alloc_bytes"] >= 8 << 20
        assert session.peak_alloc_bytes >= 8 << 20

    def test_session_table_renders(self):
        trace = Trace("mem-table")
        with use_trace(trace):
            with use_memory_tracking() as session:
                with hot_span("alloc.phase"):
                    blob = bytearray(2 << 20)
                del blob
        table = session.table()
        assert table["alloc.phase"]["calls"] == 1
        assert table["alloc.phase"]["peak_alloc_bytes"] >= 2 << 20

    def test_use_memory_tracking_owns_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        with use_memory_tracking():
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

    def test_use_memory_tracking_respects_existing_tracing(self):
        tracemalloc.start()
        try:
            with use_memory_tracking():
                assert tracemalloc.is_tracing()
            assert tracemalloc.is_tracing()  # we didn't start it
        finally:
            tracemalloc.stop()

    def test_span_attributes_carry_memory(self):
        trace = Trace("mem-attrs")
        with use_trace(trace):
            with use_memory_tracking():
                with hot_span("phase.y"):
                    blob = bytearray(1 << 20)
                del blob
        span = next(s for s in trace.spans if s.name == "phase.y")
        mem = span.attributes["memory"]
        assert mem["peak_alloc_bytes"] >= 1 << 20


class TestResourceSamplerSingleUse:
    def test_restart_after_stop_raises(self):
        sampler = ResourceSampler(interval_seconds=0.01).start()
        sampler.stop()
        with pytest.raises(ValidationError):
            sampler.start()

    def test_stop_is_idempotent(self):
        sampler = ResourceSampler(interval_seconds=0.01).start()
        sampler.stop()
        sampler.stop()  # no error


def _quick_report(**kwargs):
    return bench_mod.run_benches(
        ["graph_build"], quick=True, repeats=1, tag="t", profile=False,
        **kwargs,
    )


class TestBenchMemoryPass:
    def test_report_entries_carry_memory_fields(self):
        report = _quick_report()
        entry = report["benches"]["graph_build"]
        mem = entry["memory"]
        assert entry["resources"]["peak_rss_bytes"] > 0
        assert mem["peak_alloc_bytes"] > 0
        assert isinstance(mem["sites"], dict)

    def test_no_memory_flag_omits_the_pass(self):
        report = _quick_report(memory=False)
        assert "memory" not in report["benches"]["graph_build"]


def _memory_regressions(cmp_) -> set:
    """``(bench, metric)`` of the regressed memory rows."""
    return {
        (d.name, d.metric)
        for d in cmp_.regressions
        if d.metric != "seconds"
    }


def _memory_skipped(cmp_) -> list:
    """The skipped ``bench/metric`` labels of the memory rows."""
    return [s for s in cmp_.skipped if not s.endswith("/seconds")]


def _fake_report(seconds=1.0, rss=64 << 20, alloc=64 << 20, name="b"):
    """A minimal hand-built report the comparator accepts."""
    return {
        "schema_version": bench_mod.SCHEMA_VERSION,
        "tag": "fake",
        "quick": True,
        "benches": {
            name: {
                "seconds": seconds,
                "repeats": [seconds],
                "resources": {"peak_rss_bytes": rss},
                "memory": {
                    "peak_alloc_bytes": alloc,
                    "sites": [],
                },
            }
        },
    }


class TestMemoryGate:
    def test_blowup_fails_the_gate(self):
        base = _fake_report(alloc=64 << 20, rss=64 << 20)
        cur = _fake_report(alloc=256 << 20, rss=256 << 20)
        cmp_ = bench_mod.compare_reports(base, cur)
        assert not cmp_.ok
        regressed = _memory_regressions(cmp_)
        assert ("b", "peak_alloc_bytes") in regressed
        assert ("b", "peak_rss_bytes") in regressed
        text = bench_mod.format_comparison(cmp_)
        assert "memory regression" in text and "FAIL" in text

    def test_within_threshold_passes(self):
        base = _fake_report(alloc=64 << 20, rss=64 << 20)
        cur = _fake_report(alloc=80 << 20, rss=80 << 20)  # +25% < +50%
        assert bench_mod.compare_reports(base, cur).ok

    def test_custom_threshold_tightens_the_gate(self):
        base = _fake_report(alloc=64 << 20, rss=64 << 20)
        cur = _fake_report(alloc=80 << 20, rss=80 << 20)
        cmp_ = bench_mod.compare_reports(base, cur, memory_threshold=0.1)
        assert _memory_regressions(cmp_) and not cmp_.ok

    def test_sub_floor_baselines_are_never_gated(self):
        base = _fake_report(alloc=1 << 20, rss=1 << 20)
        cur = _fake_report(alloc=10 << 20, rss=10 << 20)  # 10x but tiny
        cmp_ = bench_mod.compare_reports(base, cur)
        assert cmp_.ok and not _memory_regressions(cmp_)

    def test_missing_memory_fields_compare_warn_only(self):
        base = _fake_report()
        cur = _fake_report()
        del cur["benches"]["b"]["memory"]
        cmp_ = bench_mod.compare_reports(base, cur)
        assert cmp_.ok
        assert _memory_skipped(cmp_)
        text = bench_mod.format_comparison(cmp_)
        assert "memory fields missing" in text

    def test_malformed_memory_fields_compare_warn_only(self):
        base = _fake_report()
        cur = copy.deepcopy(base)
        cur["benches"]["b"]["memory"]["peak_alloc_bytes"] = "oops"
        cmp_ = bench_mod.compare_reports(base, cur)
        assert cmp_.ok
        assert any("peak_alloc_bytes" in s for s in _memory_skipped(cmp_))

    def test_invalid_memory_threshold_rejected(self):
        base = _fake_report()
        with pytest.raises(ValidationError):
            bench_mod.compare_reports(base, base, memory_threshold=-1.0)


class TestMemoryGateAcceptance:
    @pytest.mark.slow
    def test_injected_blowup_in_tracked_bench_fails_gate(self, monkeypatch):
        """Acceptance: blow up a real tracked bench's allocations and
        the memory gate (not the time gate) catches it."""
        description, factory = bench_mod.BENCHES["graph_build"]

        def bloated_factory(quick):
            work = factory(quick)

            def bloated():
                ballast = bytearray(200 << 20)  # 200 MB of ballast
                work()
                return len(ballast)

            return bloated

        clean = _quick_report()
        monkeypatch.setitem(
            bench_mod.BENCHES,
            "graph_build",
            (description, bloated_factory),
        )
        blown = _quick_report()
        cmp_ = bench_mod.compare_reports(clean, blown)
        assert not cmp_.ok
        # The 200 MB ballast shows up in at least one gated peak.  The
        # traced-alloc metric only joins when the *clean* baseline sits
        # above the 16 MB noise floor, so the guaranteed catch is RSS.
        metrics = {metric for _, metric in _memory_regressions(cmp_)}
        assert metrics and metrics <= {"peak_rss_bytes", "peak_alloc_bytes"}
        assert "peak_rss_bytes" in metrics
