"""Tests for the benchmark-regression tracker (``repro.bench``).

Covers the report schema and persistence round-trip, the comparison /
regression gate (including the noise floor and missing-coverage
failure), the CLI exit codes for ``repro bench {run,compare}``, and the
acceptance path from ISSUE 5: arming a fault-injection ``delay`` around
:func:`run_benches` must make ``repro bench compare`` exit nonzero.
"""

from __future__ import annotations

import io
import json
import pathlib
import re

import pytest

import repro
from repro.bench import (
    BENCHES,
    DEFAULT_THRESHOLD,
    MIN_GATED_SECONDS,
    SCHEMA_VERSION,
    compare_reports,
    format_comparison,
    load_report,
    machine_fingerprint,
    run_benches,
    write_report,
)
from repro.cli import main
from repro.exceptions import ValidationError
from repro.observability.trace import current_trace, metric_inc
from repro.robust import FaultSpec, inject_faults

REPO = pathlib.Path(repro.__file__).resolve().parents[2]


def _report(seconds_by_name, tag="fab"):
    """Fabricate a minimal valid report with given headline seconds."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "created_unix": 0.0,
        "quick": True,
        "repeats": 1,
        "machine": machine_fingerprint(),
        "benches": {
            name: {
                "description": name,
                "seconds": seconds,
                "runs": [seconds],
                "metrics": {},
                "resources": {},
            }
            for name, seconds in seconds_by_name.items()
        },
    }


class TestRunBenches:
    def test_report_schema_and_round_trip(self, tmp_path):
        report = run_benches(["graph_build"], quick=True, repeats=2, tag="t")
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["tag"] == "t"
        assert report["quick"] is True
        assert set(report["machine"]) >= {"python", "numpy", "cpu_count"}
        entry = report["benches"]["graph_build"]
        assert entry["seconds"] == min(entry["runs"])
        assert len(entry["runs"]) == 2
        assert entry["resources"]["peak_rss_bytes"] > 0
        # The traced bench leaves a metrics snapshot in the report.
        assert set(entry["metrics"]) == {"counters", "gauges", "histograms"}

        path = tmp_path / "BENCH_t.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded["benches"]["graph_build"]["seconds"] == pytest.approx(
            entry["seconds"]
        )
        # A fresh report gates all of its quantities: one row per
        # metric, none skipped.
        cmp = compare_reports(loaded, loaded)
        assert [d.metric for d in cmp.deltas] == [
            "seconds", "peak_rss_bytes", "peak_alloc_bytes"
        ]
        assert cmp.skipped == [] and cmp.ok

    def test_anchor_benches_report_their_hot_sites(self):
        report = run_benches(
            ["anchor_fit", "streaming"],
            quick=True,
            repeats=1,
            profile=True,
            memory=True,
        )
        for name in ("anchor_fit", "streaming"):
            entry = report["benches"][name]
            for site in ("anchor.assign", "anchor.gram", "anchor.stats"):
                assert entry["hotspots"][site]
                assert entry["memory"]["sites"][site]["calls"] > 0

    def test_timed_repetitions_run_with_no_trace(self, monkeypatch):
        seen: list = []

        def factory(quick):
            def work():
                seen.append(current_trace())
                metric_inc("spy.passes")

            return work

        monkeypatch.setitem(BENCHES, "spy", ("trace spy", factory))
        report = run_benches(
            ["spy"], quick=True, repeats=3, profile=True, memory=True
        )
        # The untimed warm-up runs under the bench's trace; the timed
        # repetitions, the profile pass and the memory pass run with
        # none.
        assert seen[0] is not None
        assert seen[1:] == [None, None, None, None, None]
        # The metrics are the warm-up's: one pass, not one per repeat.
        counters = report["benches"]["spy"]["metrics"]["counters"]
        assert counters["spy.passes"] == 1

    def test_unknown_bench_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown bench"):
            run_benches(["nope"], quick=True)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValidationError, match="repeats"):
            run_benches(["graph_build"], quick=True, repeats=0)

    def test_declared_suite_names_its_importers(self):
        # A description names a benchmarks/ module only when that module
        # times the tracked body through its factory.
        assert set(BENCHES) == {
            "umsc_fit",
            "anchor_fit",
            "graph_build",
            "predict_batch",
            "serving_throughput",
            "scenario_matrix",
            "streaming",
        }
        named = {}
        for name, (description, _) in BENCHES.items():
            for module in re.findall(r"\bbench_\w+", description):
                source = (REPO / "benchmarks" / f"{module}.py").read_text()
                assert f'BENCHES["{name}"]' in source, (name, module)
                named[name] = module
        assert named == {
            "umsc_fit": "bench_fig3_runtime",
            "anchor_fit": "bench_ext_scalability",
        }


class TestLoadReport:
    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="cannot read"):
            load_report(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_report(tmp_path / "absent.json")

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "future.json"
        report = _report({"graph_build": 1.0})
        report["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(report))
        with pytest.raises(ValidationError, match="schema_version"):
            load_report(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"description": "no seconds"},
            {"seconds": "fast"},
            {"seconds": float("nan")},
            {"seconds": True},
            [1.0],
        ],
        ids=["missing", "string", "nan", "bool", "not-a-dict"],
    )
    def test_rejects_an_entry_without_numeric_seconds(self, tmp_path, entry):
        report = _report({"a": 1.0})
        report["benches"]["b"] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        with pytest.raises(ValidationError, match="'b'.*seconds"):
            load_report(path)

    def test_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValidationError, match="schema_version"):
            load_report(path)


class TestCompareReports:
    def test_within_threshold_is_ok(self):
        cmp = compare_reports(
            _report({"a": 1.0, "b": 2.0}),
            _report({"a": 1.1, "b": 2.0 * (1 + DEFAULT_THRESHOLD)}),
        )
        assert cmp.ok
        assert cmp.regressions == []

    def test_regression_beyond_threshold_fails(self):
        cmp = compare_reports(
            _report({"a": 1.0}), _report({"a": 1.5}), threshold=0.25
        )
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["a"]
        assert cmp.regressions[0].ratio == pytest.approx(1.5)

    def test_speedups_never_fail(self):
        cmp = compare_reports(_report({"a": 2.0}), _report({"a": 0.5}))
        assert cmp.ok

    def test_noise_floor_is_not_gated(self):
        fast = MIN_GATED_SECONDS / 2
        cmp = compare_reports(
            _report({"a": fast}), _report({"a": fast * 100})
        )
        assert cmp.ok  # sub-floor baselines are timer noise

    def test_missing_bench_fails(self):
        cmp = compare_reports(
            _report({"a": 1.0, "b": 1.0}), _report({"a": 1.0})
        )
        assert not cmp.ok
        assert cmp.missing == ["b"]

    def test_new_bench_is_informational(self):
        cmp = compare_reports(
            _report({"a": 1.0}), _report({"a": 1.0, "c": 9.0})
        )
        assert cmp.ok
        assert cmp.new == ["c"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError, match="threshold"):
            compare_reports(_report({}), _report({}), threshold=-0.1)

    def test_rss_row_reads_the_timed_pass_sampler(self):
        base = _report({"a": 1.0})
        cur = _report({"a": 1.0})
        base["benches"]["a"]["resources"] = {"peak_rss_bytes": 100e6}
        cur["benches"]["a"]["resources"] = {"peak_rss_bytes": 300e6}
        for report in (base, cur):
            report["benches"]["a"]["memory"] = {"peak_alloc_bytes": 1e6}
        cmp = compare_reports(base, cur)
        rows = {d.metric: d for d in cmp.deltas}
        assert set(rows) == {"seconds", "peak_rss_bytes", "peak_alloc_bytes"}
        assert rows["peak_rss_bytes"].baseline == 100e6
        assert rows["peak_rss_bytes"].regressed
        assert cmp.skipped == [] and not cmp.ok
        text = format_comparison(cmp)
        assert "0 regression(s) at threshold +25%" in text
        assert "1 memory regression(s) at +50% — FAIL" in text

    def test_format_mentions_verdicts(self):
        cmp = compare_reports(_report({"a": 1.0}), _report({"a": 3.0}))
        text = format_comparison(cmp)
        assert "REGRESSED" in text and "FAIL" in text
        ok = compare_reports(_report({"a": 1.0}), _report({"a": 1.0}))
        assert "0 regression(s)" in format_comparison(ok)


class TestBenchCli:
    def test_bench_run_writes_parseable_report(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "BENCH_cli.json"
        code = main(
            [
                "bench",
                "run",
                "--quick",
                "--benches",
                "graph_build",
                "--repeats",
                "1",
                "--tag",
                "cli",
                "--out",
                str(path),
            ],
            out=out,
        )
        assert code == 0
        report = load_report(path)
        assert report["tag"] == "cli"
        assert "graph_build" in report["benches"]
        assert "graph_build" in out.getvalue()

    def test_bench_compare_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        same = tmp_path / "same.json"
        slow = tmp_path / "slow.json"
        write_report(_report({"a": 1.0}), base)
        write_report(_report({"a": 1.0}), same)
        write_report(_report({"a": 2.0}), slow)

        out = io.StringIO()
        assert main(["bench", "compare", str(base), str(same)], out=out) == 0
        out = io.StringIO()
        assert main(["bench", "compare", str(base), str(slow)], out=out) == 1
        assert "REGRESSED" in out.getvalue()
        out = io.StringIO()
        code = main(
            ["bench", "compare", str(base), str(slow), "--warn-only"], out=out
        )
        assert code == 0
        assert "warn-only" in out.getvalue()

    def test_bench_compare_threshold_flag(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_report(_report({"a": 1.0}), base)
        write_report(_report({"a": 1.4}), cur)
        args = ["bench", "compare", str(base), str(cur)]
        assert main(args + ["--threshold", "0.5"], out=io.StringIO()) == 0
        assert main(args + ["--threshold", "0.1"], out=io.StringIO()) == 1


@pytest.mark.faults
class TestRegressionGateAcceptance:
    def test_injected_delay_trips_the_compare_gate(self, tmp_path):
        """ISSUE 5 acceptance: a persistent ``delay`` fault on the fit
        site slows ``umsc_fit`` enough that ``repro bench compare``
        exits nonzero against the clean baseline."""
        clean = run_benches(["umsc_fit"], quick=True, repeats=1, tag="clean")
        baseline_s = clean["benches"]["umsc_fit"]["seconds"]
        assert baseline_s > MIN_GATED_SECONDS

        delay = max(1.0, baseline_s)  # guarantees > threshold slowdown
        spec = FaultSpec("model.fit", mode="delay", delay=delay, times=None)
        with inject_faults(spec) as plan:
            slowed = run_benches(
                ["umsc_fit"], quick=True, repeats=1, tag="slow"
            )
        assert plan.triggered  # the fault actually fired
        assert (
            slowed["benches"]["umsc_fit"]["seconds"]
            > baseline_s * (1 + DEFAULT_THRESHOLD)
        )

        base_path = tmp_path / "BENCH_clean.json"
        cur_path = tmp_path / "BENCH_slow.json"
        write_report(clean, base_path)
        write_report(slowed, cur_path)
        out = io.StringIO()
        code = main(
            ["bench", "compare", str(base_path), str(cur_path)], out=out
        )
        assert code == 1
        assert "REGRESSED" in out.getvalue()
