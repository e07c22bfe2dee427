"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ArtifactError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "yale"])
        assert args.method == "UMSC"
        assert args.seed == 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "yale", "--method", "Magic"]
            )


class TestCommands:
    def test_datasets_lists_all(self):
        out = io.StringIO()
        assert main(["datasets"], out=out) == 0
        text = out.getvalue()
        for name in ("three_sources", "handwritten", "yale"):
            assert name in text

    def test_run_prints_metrics(self):
        out = io.StringIO()
        code = main(
            ["run", "--dataset", "yale", "--method", "KernelAddSC"], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "acc" in text and "nmi" in text and "purity" in text

    def test_table_small(self):
        out = io.StringIO()
        code = main(
            [
                "table",
                "--datasets",
                "yale",
                "--methods",
                "SC_best,KernelAddSC",
                "--runs",
                "1",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "SC_best" in text and "KernelAddSC" in text

    def test_convergence_prints_trace(self):
        out = io.StringIO()
        code = main(
            ["convergence", "--dataset", "yale", "--max-iter", "5"], out=out
        )
        assert code == 0
        assert "iter" in out.getvalue()


class TestStabilityCommand:
    def test_stability_prints_scores(self):
        out = io.StringIO()
        code = main(["stability", "--dataset", "yale", "--runs", "2"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "one-stage" in text and "two-stage" in text


class TestServingCommands:
    def test_save_predict_round_trip(self, tmp_path):
        art_dir = str(tmp_path / "artifact")
        out = io.StringIO()
        code = main(
            [
                "save",
                "--dataset",
                "yale",
                "--model",
                "UnifiedMVSC",
                "--seed",
                "0",
                "--out",
                art_dir,
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "saved UnifiedMVSC artifact" in text
        assert "hash:" in text

        out = io.StringIO()
        code = main(
            ["predict", "--artifact", art_dir, "--dataset", "yale"], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "predicted 165 samples" in text
        assert "acc" in text and "nmi" in text

    def test_serve_bench_reports_throughput(self, tmp_path):
        art_dir = str(tmp_path / "artifact")
        assert (
            main(
                ["save", "--dataset", "yale", "--out", art_dir],
                out=io.StringIO(),
            )
            == 0
        )
        out = io.StringIO()
        code = main(
            [
                "serve",
                "--artifact",
                art_dir,
                "--dataset",
                "yale",
                "--bench",
                "--requests",
                "32",
                "--clients",
                "2",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "one-at-a-time" in text and "micro-batched" in text
        assert "label mismatches vs serial: 0" in text

    def test_predict_missing_artifact_is_typed_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            main(
                [
                    "predict",
                    "--artifact",
                    str(tmp_path / "nowhere"),
                    "--dataset",
                    "yale",
                ],
                out=io.StringIO(),
            )

    def test_save_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["save", "--dataset", "yale", "--model", "Magic", "--out", "x"]
            )


class TestMetricsDump:
    def test_prometheus_dump(self):
        out = io.StringIO()
        code = main(
            [
                "metrics",
                "dump",
                "--dataset",
                "yale",
                "--method",
                "KernelAddSC",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "# TYPE " in text
        assert "repro_" in text
        # Counters render with the Prometheus _total suffix.
        assert "_total " in text

    def test_json_dump_parses(self):
        import json

        out = io.StringIO()
        code = main(
            [
                "metrics",
                "dump",
                "--dataset",
                "yale",
                "--method",
                "KernelAddSC",
                "--format",
                "json",
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert set(payload) == {"counters", "gauges", "histograms"}
        assert payload["counters"]  # a traced fit records at least one

    def test_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["metrics", "dump", "--dataset", "yale", "--format", "xml"]
            )

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code = main(
            ["run", "--dataset", "yale", "--method", "KernelAddSC",
             "--trace", str(path)],
            out=io.StringIO(),
        )
        assert code == 0
        return path

    def test_from_trace_renders_saved_snapshot(self, trace_file):
        import json

        out = io.StringIO()
        code = main(
            ["metrics", "dump", "--from-trace", str(trace_file),
             "--format", "json"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert set(payload) == {"counters", "gauges", "histograms"}
        assert payload["counters"]["eigsh.calls"] >= 1
        out = io.StringIO()
        assert (
            main(["metrics", "dump", "--from-trace", str(trace_file)], out=out)
            == 0
        )
        assert "repro_eigsh_calls_total" in out.getvalue()

    def test_from_trace_missing_file_exits_cleanly(self, tmp_path, capsys):
        out = io.StringIO()
        code = main(
            ["metrics", "dump", "--from-trace", str(tmp_path / "no.jsonl")],
            out=out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace file")
        assert "Traceback" not in err

    def test_from_trace_malformed_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        out = io.StringIO()
        code = main(["metrics", "dump", "--from-trace", str(path)], out=out)
        assert code == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_dump_needs_a_source(self, capsys):
        out = io.StringIO()
        code = main(["metrics", "dump"], out=out)
        assert code == 2
        assert "needs --dataset" in capsys.readouterr().err

    def test_trace_commands_read_a_run_trace(self, trace_file, tmp_path):
        import json

        out = io.StringIO()
        assert main(["trace", "summary", str(trace_file)], out=out) == 0
        assert "eigsh" in out.getvalue()
        dest = tmp_path / "chrome.json"
        out = io.StringIO()
        assert (
            main(
                ["trace", "export", str(trace_file), "--out", str(dest)],
                out=out,
            )
            == 0
        )
        assert json.loads(dest.read_text())["traceEvents"]


class TestBackendsCommand:
    def test_backends_list(self):
        out = io.StringIO()
        assert main(["backends", "list"], out=out) == 0
        text = out.getvalue()
        assert "active backend: numpy" in text
        for name in ("numpy", "float32"):
            assert name in text
        assert "numba" not in text

    def test_backend_flag_on_run(self):
        out = io.StringIO()
        code = main(
            [
                "run",
                "--dataset",
                "three_sources",
                "--backend",
                "float32",
            ],
            out=out,
        )
        assert code == 0
        assert "acc" in out.getvalue()

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "yale", "--backend", "float16"]
            )

    def test_bench_run_records_backend_in_fingerprint(self, tmp_path):
        import json

        out = io.StringIO()
        path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "run",
                "--quick",
                "--repeats",
                "1",
                "--benches",
                "graph_build",
                "--no-profile",
                "--backend",
                "float32",
                "--out",
                str(path),
            ],
            out=out,
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["machine"]["backend"] == "float32"


class TestScenariosCommand:
    def test_list_prints_registry(self):
        out = io.StringIO()
        assert main(["scenarios", "list"], out=out) == 0
        text = out.getvalue()
        for name in ("clean", "confused_pairs", "missing_views"):
            assert name in text
        assert "scenarios registered" in text
        assert "knobs" in text

    def test_run_quick_prints_one_grid_per_metric(self):
        out = io.StringIO()
        code = main(
            [
                "scenarios",
                "run",
                "--quick",
                "--scenarios",
                "clean,confused_pairs",
                "--methods",
                "UMSC,ConcatSC",
                "--runs",
                "1",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "2 methods × 2 scenarios" in text
        for metric in ("acc", "nmi", "ari"):
            assert f"{metric} \\ scenario" in text
        assert "FAILED" not in text

    def test_run_writes_json_artifact(self, tmp_path):
        import json

        out = io.StringIO()
        path = tmp_path / "matrix.json"
        code = main(
            [
                "scenarios",
                "run",
                "--quick",
                "--scenarios",
                "clean",
                "--methods",
                "ConcatSC",
                "--metrics",
                "acc",
                "--json",
                str(path),
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["cells"]["ConcatSC@clean"]["error"] is None
        assert "acc" in payload["cells"]["ConcatSC@clean"]["scores"]
        assert str(path) in out.getvalue()

    def test_run_unknown_scenario_raises(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="unknown scenario"):
            main(
                ["scenarios", "run", "--scenarios", "nope"],
                out=io.StringIO(),
            )

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])
