"""Tests for the command-line interface."""

import argparse
import io
import re

import pytest

from repro.backends import available_backends
from repro.cli import build_parser, main
from repro.datasets import available_benchmarks
from repro.evaluation.registry import default_method_registry
from repro.exceptions import ArtifactError, ValidationError


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

    def test_predict_runs_under_backend_and_jobs_flags(
        self, tmp_path, monkeypatch
    ):
        from repro.backends import ArrayBackend
        from repro.pipeline.parallel import resolve_jobs

        art_dir = str(tmp_path / "artifact")
        assert main(
            ["save", "--dataset", "yale", "--out", art_dir], out=io.StringIO()
        ) == 0
        votes_seen = []
        vote = ArrayBackend.kernel_vote_scores

        def spied(self, *args, **kwargs):
            votes_seen.append((self.name, resolve_jobs()))
            return vote(self, *args, **kwargs)

        monkeypatch.setattr(ArrayBackend, "kernel_vote_scores", spied)
        code = main(
            [
                "predict",
                "--artifact",
                art_dir,
                "--dataset",
                "yale",
                "--backend",
                "float32",
                "--jobs",
                "2",
            ],
            out=io.StringIO(),
        )
        assert code == 0
        # One float32 vote per yale view, each under the --jobs count.
        assert votes_seen == [("float32", 2)] * 3

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

    def test_serve_prints_telemetry_url_before_the_report(self, tmp_path):
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
            ["serve", "--artifact", art_dir, "--dataset", "yale",
             "--requests", "16", "--clients", "2", "--telemetry-port", "0"],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        # Printed while the service is up, so before its report.
        assert re.fullmatch(
            r"telemetry: http://127\.0\.0\.1:\d+ \(/metrics /healthz /stats\)",
            lines[0],
        ), lines
        assert lines[2].startswith("served 16 single-sample requests"), lines

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--clients", "0"], "clients must be >= 1"),
            (["--clients", "-2"], "clients must be >= 1"),
            (["--requests", "0"], "--requests must be >= 1"),
            (["--requests", "-5"], "--requests must be >= 1"),
        ],
    )
    def test_serve_rejects_empty_replays(self, tmp_path, flags, match):
        art_dir = str(tmp_path / "artifact")
        assert (
            main(
                ["save", "--dataset", "yale", "--out", art_dir],
                out=io.StringIO(),
            )
            == 0
        )
        with pytest.raises(ValidationError, match=match):
            main(
                ["serve", "--artifact", art_dir, "--dataset", "yale",
                 "--requests", "8", *flags],
                out=io.StringIO(),
            )

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


    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_trace_summary_rejects_top_below_one(
        self, trace_file, capsys, top
    ):
        out = io.StringIO()
        code = main(
            ["trace", "summary", str(trace_file), "--top", top], out=out
        )
        assert code == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err == f"error: --top must be >= 1, got {top}\n"


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

    def test_json_artifact_reports_the_size_that_ran(self, tmp_path):
        import json

        from repro.bench import matrix_workload

        n = matrix_workload(quick=True)["n_samples"]
        path = tmp_path / "matrix.json"
        code = main(
            [
                "scenarios", "run", "--quick", "--scenarios", "clean",
                "--methods", "ConcatSC", "--metrics", "acc",
                "--json", str(path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        specs = json.loads(path.read_text())["scenario_specs"]
        assert specs["clean"]["n_samples"] == n

    def test_quick_runs_the_tracked_grid_size(self):
        from repro.bench import matrix_workload

        n = matrix_workload(quick=True)["n_samples"]
        out = io.StringIO()
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
            ],
            out=out,
        )
        assert code == 0
        assert f"run(s), samples={n}\n" in out.getvalue()

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


# ---------------------------------------------------------------------------
# Parser surface pin
# ---------------------------------------------------------------------------

_BACKENDS = tuple(available_backends())
_DATASETS = tuple(available_benchmarks())
_METHODS = tuple(sorted(default_method_registry()))

#: Every leaf command's options as (option strings, dest, repr(default),
#: required, choices, type name, nargs, action class), sorted; help
#: actions excluded.  Registry-backed choices are named above.
_SURFACE = {
    'datasets': (
    ),
    'run': (
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', 'None', False, None, None, None, '_StoreAction'),
        (('--dataset',), 'dataset', 'None', True, _DATASETS, None, None, '_StoreAction'),
        (('--jobs',), 'jobs', 'None', False, None, 'int', None, '_StoreAction'),
        (('--max-retries',), 'max_retries', 'None', False, None, 'int', None, '_StoreAction'),
        (('--method',), 'method', "'UMSC'", False, _METHODS, None, None, '_StoreAction'),
        (('--profile',), 'profile', 'False', False, None, None, 0, '_StoreTrueAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
        (('--trace',), 'trace', 'None', False, None, None, None, '_StoreAction'),
        (('--verbose',), 'verbose', 'False', False, None, None, 0, '_StoreTrueAction'),
    ),
    'table': (
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', 'None', False, None, None, None, '_StoreAction'),
        (('--datasets',), 'datasets', "'three_sources,msrcv1,yale'", False, None, None, None, '_StoreAction'),
        (('--jobs',), 'jobs', 'None', False, None, 'int', None, '_StoreAction'),
        (('--max-retries',), 'max_retries', 'None', False, None, 'int', None, '_StoreAction'),
        (('--methods',), 'methods', "''", False, None, None, None, '_StoreAction'),
        (('--metric',), 'metric', "'acc'", False, ('acc', 'nmi', 'purity', 'ari', 'fscore'), None, None, '_StoreAction'),
        (('--runs',), 'runs', '3', False, None, 'int', None, '_StoreAction'),
    ),
    'convergence': (
        (('--dataset',), 'dataset', 'None', True, _DATASETS, None, None, '_StoreAction'),
        (('--max-iter',), 'max_iter', '25', False, None, 'int', None, '_StoreAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
    ),
    'stability': (
        (('--dataset',), 'dataset', 'None', True, _DATASETS, None, None, '_StoreAction'),
        (('--runs',), 'runs', '5', False, None, 'int', None, '_StoreAction'),
    ),
    'cache stats': (
        (('--cache-dir',), 'cache_dir', 'None', True, None, None, None, '_StoreAction'),
    ),
    'cache clear': (
        (('--cache-dir',), 'cache_dir', 'None', True, None, None, None, '_StoreAction'),
    ),
    'faults list': (
    ),
    'save': (
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', 'None', False, None, None, None, '_StoreAction'),
        (('--dataset',), 'dataset', 'None', True, _DATASETS, None, None, '_StoreAction'),
        (('--jobs',), 'jobs', 'None', False, None, 'int', None, '_StoreAction'),
        (('--max-retries',), 'max_retries', 'None', False, None, 'int', None, '_StoreAction'),
        (('--model',), 'model', "'UnifiedMVSC'", False, ('UnifiedMVSC', 'AnchorMVSC', 'SparseMVSC'), None, None, '_StoreAction'),
        (('--out',), 'out', 'None', True, None, None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
    ),
    'predict': (
        (('--artifact',), 'artifact', 'None', True, None, None, None, '_StoreAction'),
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--batch-size',), 'batch_size', '4096', False, None, 'int', None, '_StoreAction'),
        (('--dataset',), 'dataset', 'None', True, _DATASETS, None, None, '_StoreAction'),
        (('--jobs',), 'jobs', 'None', False, None, 'int', None, '_StoreAction'),
    ),
    'serve': (
        (('--artifact',), 'artifact', 'None', True, None, None, None, '_StoreAction'),
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--clients',), 'clients', '4', False, None, 'int', None, '_StoreAction'),
        (('--dataset',), 'dataset', 'None', True, _DATASETS, None, None, '_StoreAction'),
        (('--max-batch',), 'max_batch', '32', False, None, 'int', None, '_StoreAction'),
        (('--requests',), 'requests', '128', False, None, 'int', None, '_StoreAction'),
        (('--telemetry-port',), 'telemetry_port', 'None', False, None, 'int', None, '_StoreAction'),
    ),
    'metrics dump': (
        (('--dataset',), 'dataset', 'None', False, _DATASETS, None, None, '_StoreAction'),
        (('--format',), 'fmt', "'prom'", False, ('prom', 'json'), None, None, '_StoreAction'),
        (('--from-trace',), 'from_trace', 'None', False, None, None, None, '_StoreAction'),
        (('--method',), 'method', "'UMSC'", False, _METHODS, None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
    ),
    'health check': (
        (('--dataset',), 'dataset', 'None', False, _DATASETS, None, None, '_StoreAction'),
        (('--from-bench',), 'from_bench', 'None', False, None, None, None, '_StoreAction'),
        (('--from-trace',), 'from_trace', 'None', False, None, None, None, '_StoreAction'),
        (('--json',), 'json_out', 'None', False, None, None, None, '_StoreAction'),
        (('--method',), 'method', "'UMSC'", False, _METHODS, None, None, '_StoreAction'),
        (('--rules',), 'rules', 'None', False, None, None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
        (('--strict',), 'strict', 'False', False, None, None, 0, '_StoreTrueAction'),
    ),
    'trace summary': (
        ((), 'path', 'None', True, None, None, None, '_StoreAction'),
        (('--top',), 'top', '15', False, None, 'int', None, '_StoreAction'),
    ),
    'trace critical-path': (
        ((), 'path', 'None', True, None, None, None, '_StoreAction'),
        (('--root',), 'root', 'None', False, None, None, None, '_StoreAction'),
    ),
    'trace export': (
        ((), 'path', 'None', True, None, None, None, '_StoreAction'),
        (('--out',), 'out', 'None', True, None, None, None, '_StoreAction'),
    ),
    'bench run': (
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--benches',), 'benches', "''", False, None, None, None, '_StoreAction'),
        (('--no-memory',), 'memory', 'True', False, None, None, 0, '_StoreFalseAction'),
        (('--no-profile',), 'profile', 'True', False, None, None, 0, '_StoreFalseAction'),
        (('--out',), 'out', 'None', False, None, None, None, '_StoreAction'),
        (('--quick',), 'quick', 'False', False, None, None, 0, '_StoreTrueAction'),
        (('--repeats',), 'repeats', '3', False, None, 'int', None, '_StoreAction'),
        (('--tag',), 'tag', "'local'", False, None, None, None, '_StoreAction'),
    ),
    'bench compare': (
        ((), 'baseline', 'None', True, None, None, None, '_StoreAction'),
        ((), 'current', 'None', True, None, None, None, '_StoreAction'),
        (('--memory-threshold',), 'memory_threshold', 'None', False, None, 'float', None, '_StoreAction'),
        (('--threshold',), 'threshold', 'None', False, None, 'float', None, '_StoreAction'),
        (('--warn-only',), 'warn_only', 'False', False, None, None, 0, '_StoreTrueAction'),
    ),
    'backends list': (
    ),
    'scenarios list': (
    ),
    'scenarios run': (
        (('--json',), 'json_out', 'None', False, None, None, None, '_StoreAction'),
        (('--methods',), 'methods', "''", False, None, None, None, '_StoreAction'),
        (('--metrics',), 'metrics', "'acc,nmi,ari'", False, None, None, None, '_StoreAction'),
        (('--quick',), 'quick', 'False', False, None, None, 0, '_StoreTrueAction'),
        (('--runs',), 'runs', '1', False, None, 'int', None, '_StoreAction'),
        (('--samples',), 'samples', 'None', False, None, 'int', None, '_StoreAction'),
        (('--scenarios',), 'scenarios', "''", False, None, None, None, '_StoreAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
    ),
    'stream': (
        ((), 'scenario', 'None', True, None, None, None, '_StoreAction'),
        (('--anchors',), 'anchors', '0', False, None, 'int', None, '_StoreAction'),
        (('--backend',), 'backend', 'None', False, _BACKENDS, None, None, '_StoreAction'),
        (('--batches',), 'batches', '8', False, None, 'int', None, '_StoreAction'),
        (('--cache-dir',), 'cache_dir', 'None', False, None, None, None, '_StoreAction'),
        (('--drift-at',), 'drift_at', 'None', False, None, 'int', None, '_StoreAction'),
        (('--drift-imbalance',), 'drift_imbalance', 'None', False, None, 'float', None, '_StoreAction'),
        (('--drift-mean-shift',), 'drift_mean_shift', '3.0', False, None, 'float', None, '_StoreAction'),
        (('--jobs',), 'jobs', 'None', False, None, 'int', None, '_StoreAction'),
        (('--json',), 'json_out', 'None', False, None, None, None, '_StoreAction'),
        (('--max-retries',), 'max_retries', 'None', False, None, 'int', None, '_StoreAction'),
        (('--no-drift-detect',), 'no_drift_detect', 'False', False, None, None, 0, '_StoreTrueAction'),
        (('--quick',), 'quick', 'False', False, None, None, 0, '_StoreTrueAction'),
        (('--refine-iters',), 'refine_iters', 'None', False, None, 'int', None, '_StoreAction'),
        (('--samples',), 'samples', 'None', False, None, 'int', None, '_StoreAction'),
        (('--seed',), 'seed', '0', False, None, 'int', None, '_StoreAction'),
    ),
}


def _leaf_parsers(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, (*path, name))
            return
    yield " ".join(path), parser


def _option_record(action) -> tuple:
    return (
        tuple(action.option_strings),
        action.dest,
        repr(action.default),
        action.required,
        None if action.choices is None else tuple(action.choices),
        None if action.type is None else action.type.__name__,
        action.nargs,
        type(action).__name__,
    )


class TestParserSurface:
    """Refactors of ``build_parser`` keep every flag the user can type."""

    def test_every_leaf_command_keeps_its_options(self):
        surface = {
            name: tuple(
                sorted(
                    _option_record(action)
                    for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)
                )
            )
            for name, parser in _leaf_parsers(build_parser())
        }
        assert list(surface) == list(_SURFACE)
        for name, options in _SURFACE.items():
            assert surface[name] == options, name

    def test_pin_counts(self):
        assert sum(1 for options in _SURFACE.values() if options) == 18
        assert sum(len(options) for options in _SURFACE.values()) == 101

    def test_serve_rejects_the_removed_bench_flag(self, capsys):
        argv = ["serve", "--artifact", "a", "--dataset", "yale", "--bench"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments: --bench" in capsys.readouterr().err
