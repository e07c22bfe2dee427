#!/usr/bin/env python
"""Standalone entry point for the benchmark-regression tracker.

Thin wrapper over :mod:`repro.bench` (the importable tracker core) so
the perf trajectory can be recorded without installing console scripts:

    python benchmarks/bench_runner.py run --quick --tag ci --out BENCH_ci.json
    python benchmarks/bench_runner.py compare benchmarks/baseline.json BENCH_ci.json

``repro bench {run,compare}`` is the same code behind the package CLI.

The tracked scenarios (``repro.bench.BENCHES``) are runner-sized
versions of the pytest ``bench_*`` suite in this directory:

==================== =================================================
tracker bench        source bench module
==================== =================================================
umsc_fit             bench_fig3_runtime (one-stage fit wall-clock)
anchor_fit           bench_ext_scalability (anchor-accelerated fit)
graph_build          bench_ablation_graphs (per-view kNN affinity)
predict_batch        bench_serving_throughput (batched predict kernel)
serving_throughput   bench_serving_throughput (closed-loop ``replay``)
scenario_matrix      bench_scenario_matrix (method x scenario grid)
streaming            bench_streaming (drift-aware incremental replay)
==================== =================================================

``benchmarks/baseline.json`` is the committed reference the CI
bench-smoke job compares against (warn-only; see docs/benchmarking.md).
"""

from __future__ import annotations

import pathlib
import sys

if __name__ == "__main__":
    try:
        import repro  # noqa: F401  (installed package wins)
    except ImportError:
        sys.path.insert(
            0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
        )
    from repro.cli import main

    sys.exit(main(["bench", *sys.argv[1:]]))
