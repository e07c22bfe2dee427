"""Tests of the benchmark itself (tiny sizes; run with
``python -m pytest perfbench/tests`` from the repository root)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import env  # noqa: E402
import gauge  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

#: The issue's end-to-end names each workload's readable report prints.
REPORTED = {
    "batch_fit": ("umsc_fit_s", "sparse_fit_s", "umsc_ari", "sparse_ari"),
    "stream": (
        "anchor_fit_s",
        "fold_in_p50_ms",
        "fold_in_p90_ms",
        "fold_in_growth",
        "stream_ari",
    ),
    "serve": ("latency_p50_ms", "latency_p99_ms", "throughput_rps"),
}
COMMON = ("setup_s", "error_rate", "peak_rss_mb")


def _run(capsys, workload: str, trace: int) -> tuple[int, str, dict]:
    code = run.main(
        [
            "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace),
        ],
        sizes=workloads.TINY,
    )
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_spec_declares_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(capsys, workload):
    from repro.observability.trace import current_trace

    code, out, result = _run(capsys, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in REPORTED[workload] + COMMON:
        assert f"  {name} " in out
    assert "fingerprint " in out
    assert current_trace() is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    import repro.core.model
    import repro.linalg.eigen

    code, out, result = _run(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # The wrappers are gone again.
    assert repro.core.model.eigsh_smallest is repro.linalg.eigen.eigsh_smallest
    assert not hasattr(repro.linalg.eigen.eigsh_smallest, "__wrapped__")


def test_install_patches_every_binding_and_restores_it():
    import importlib

    from repro.backends import current_backend
    from repro.core.model import UnifiedMVSC

    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in layers.FUNCTIONS
    }
    holders = {
        key: [
            (mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "repro" or mod_name.startswith("repro.")
            for name, value in list(vars(mod).items())
            if value is fn
        ]
        for key, fn in originals.items()
    }
    fit = UnifiedMVSC.fit
    tracer = layers.LayerTracer()
    layers.install(tracer)
    try:
        for key, fn in originals.items():
            assert len(holders[key]) >= 1
            for mod, name in holders[key]:
                assert getattr(mod, name).__wrapped__ is fn, (mod.__name__, name)
        assert UnifiedMVSC.fit.__wrapped__ is fit
        assert "pairwise_sq_euclidean" in vars(current_backend())
    finally:
        tracer.restore()
    for key, fn in originals.items():
        for mod, name in holders[key]:
            assert getattr(mod, name) is fn
    assert UnifiedMVSC.fit is fit
    assert "pairwise_sq_euclidean" not in vars(current_backend())


def test_self_time_of_nested_calls_per_thread():
    tracer = layers.LayerTracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.03)
        inner()

    outer = tracer.wrap("outer", body)
    worker = threading.Thread(target=outer, name="worker")
    worker.start()  # overlaps the main thread's call
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.calls == {"inner": 2, "outer": 2}
    # Each thread subtracts only its own children.
    assert 0.10 <= tracer.self_s["inner"] < 0.14
    assert 0.06 <= tracer.self_s["outer"] < 0.10
    for thread in ("MainThread", "worker"):
        assert 0.08 <= tracer.top_s[thread] < 0.12
    total = tracer.self_s["inner"] + tracer.self_s["outer"]
    assert total == pytest.approx(sum(tracer.top_s.values()), abs=1e-9)


def test_fits_are_timed_in_cpu_time():
    # Time the process does not run (here a sleep; on a shared host,
    # steal) counts in the wall-clock only.
    result, cpu, wall = workloads._timed(lambda: time.sleep(0.05) or "done")
    assert result == "done"
    assert wall >= 0.05
    assert cpu < 0.02


def test_gauge_scales_cpu_time_to_the_reference_speed():
    speed = gauge.Gauge()
    assert len(speed.readings) == 1 and speed.readings[0] > 0
    # A host at half the reference speed: the gauge reads twice REF_S
    # before and after the operation, so the operation's time halves.
    speed.readings = [2 * gauge.REF_S]
    speed.read = lambda: 2 * gauge.REF_S
    assert speed.scale(1.0) == pytest.approx(0.5)
    assert gauge.NoGauge().scale(1.0) == 1.0


def test_timed_pass_refuses_an_active_trace(capsys):
    from repro.observability.trace import Trace, use_trace

    with use_trace(Trace()):
        with pytest.raises(env.NotProductionPath):
            env.check_production_path()
        code = run.main(
            ["--workload", "batch_fit", "--seed", "1", "--seconds", "1"],
            sizes=workloads.TINY,
        )
    assert code == 3
    assert capsys.readouterr().out == ""


def test_timed_pass_refuses_another_backend(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "float32")
    code = run.main(
        ["--workload", "serve", "--seed", "1", "--seconds", "1"],
        sizes=workloads.TINY,
    )
    assert code == 3
    assert capsys.readouterr().out == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
