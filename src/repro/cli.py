"""Command-line interface: ``python -m repro <command>``.

Seventeen commands; the first five regenerate the paper's evaluation
artifacts:

* ``datasets``    — print Table I (benchmark statistics);
* ``run``         — run one method on one benchmark, print its metrics;
* ``table``       — print a Tables II-IV style comparison;
* ``convergence`` — print the Figure-1 objective trace;
* ``stability``   — seed-stability comparison of one-stage vs two-stage;
* ``cache``       — inspect (``stats``) or empty (``clear``) an on-disk
  computation cache;
* ``faults``      — list the registered fault-injection sites of the
  robustness harness (``repro faults list``);
* ``save``        — fit a model on a benchmark and persist a serving
  artifact directory (:mod:`repro.serving`);
* ``predict``     — load a saved artifact and batch-label a benchmark's
  samples, reporting agreement with its ground truth;
* ``serve``       — offline micro-batching benchmark: replay a
  benchmark's samples as single-sample requests through a
  :class:`~repro.serving.service.PredictionService` and compare
  throughput and labels against one-at-a-time prediction, both passes
  run by :func:`~repro.serving.service.serve_against_serial`
  (``--telemetry-port`` exposes ``/metrics`` / ``/healthz`` /
  ``/stats`` during the replay);
* ``metrics``     — ``metrics dump`` runs one traced fit and renders
  its metrics registry via the export layer (``--format prom|json``);
  ``--from-trace PATH`` instead renders the snapshot embedded in a
  saved JSONL trace (missing/malformed files exit with a one-line
  typed error, not a traceback);
* ``trace``       — offline analytics over a JSONL trace file
  (:mod:`repro.observability.analysis`): ``trace summary`` prints the
  self/cumulative hotspot table, ``trace critical-path`` the longest
  dependent span chain, ``trace export`` a Chrome trace-event JSON
  loadable in Perfetto / ``chrome://tracing``;
* ``bench``       — the benchmark-regression tracker
  (:mod:`repro.bench`): ``bench run`` writes a schema-versioned
  ``BENCH_<tag>.json`` (wall-clock, metrics dump, resource peaks,
  per-phase memory attribution), ``bench compare`` gates one report
  against a baseline — wall-clock at ``--threshold``, memory peaks at
  their own looser ``--memory-threshold`` (nonzero exit for CI);
* ``health``      — the SLO/alert rules engine
  (:mod:`repro.observability.health`): ``health check`` evaluates a
  rule pack (default or ``--rules FILE``) against a live traced fit
  (``--dataset``), a saved trace's snapshot (``--from-trace``), or
  every bench entry of a ``BENCH_*.json`` (``--from-bench``); exits 0
  when healthy, 1 when a critical rule fires (``--strict``: any
  failure), 2 on unreadable input;
* ``backends``    — ``backends list`` prints the registered compute
  backends (:mod:`repro.backends`) with dtype, tolerance, and
  availability, marking the currently active one;
* ``scenarios``   — the controlled robustness scenario factory
  (:mod:`repro.datasets.scenarios`): ``scenarios list`` prints every
  registered scenario with its active knobs, ``scenarios run`` executes
  the method × scenario matrix
  (:mod:`repro.evaluation.scenario_matrix`) and prints one ACC/NMI/ARI
  grid per metric (``--quick`` for the CI smoke size, ``--json`` for
  the machine-readable artifact);
* ``stream``      — replay a scenario as a deterministic batch stream
  (:func:`repro.datasets.scenarios.stream_batches`) through the
  drift-aware incremental model (:mod:`repro.streaming`), printing one
  row per batch (action taken, ACC/NMI/ARI against the accumulated
  ground truth, wall-clock, firing drift detectors); ``--drift-at``
  injects a mid-stream distribution shift, ``--json`` dumps the typed
  per-batch records.

``run`` exposes the observability layer: ``--verbose`` streams one line
per solver iteration to stderr, ``--trace PATH`` writes the spans and
iteration events as JSONL, and ``--profile`` prints a per-phase timing
table (where the time went: graph build / eigensolve / GPI / Y-step).

``run`` and ``table`` expose the pipeline layer: ``--cache-dir PATH``
memoizes graph/Laplacian/eigen computations into an on-disk store
(reused across invocations; results are bit-identical), and ``--jobs N``
builds per-view graphs on ``N`` worker threads (``-1`` = all CPUs).
They also expose the robustness layer: ``--max-retries N`` installs a
:class:`~repro.robust.FailurePolicy` giving every numerical kernel ``N``
deterministic perturbed retries before its fallback chain, and the
backend layer: ``--backend NAME`` runs the command under a non-default
compute backend (``repro backends list`` shows the choices).

Every option that several commands share (``--dataset``, ``--seed``,
``--method``, ``--backend``, the pipeline flags, ...) is declared once,
in a parent parser that :func:`build_parser` passes to each command as
``parents=``.  Everything the CLI does is also available
programmatically through :mod:`repro.evaluation`; the CLI only parses
arguments and prints.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import asdict
from functools import partial

import numpy as np

from repro.backends import available_backends, current_backend, get_backend
from repro.context import scoped
from repro.datasets import available_benchmarks, get_spec, load_benchmark
from repro.exceptions import ReproError, ValidationError
from repro.evaluation.curves import convergence_curve, sparkline
from repro.evaluation.registry import default_method_registry
from repro.evaluation.runner import run_experiment, run_method_once
from repro.evaluation.tables import format_metric_table, format_rows
from repro.observability import (
    JsonlSink,
    LoggingSink,
    ProfilingSession,
    Trace,
    use_trace,
)
from repro.pipeline import (
    ComputationCache,
    clear_disk_store,
    disk_store_stats,
    resolve_jobs,
)
from repro.robust import FailurePolicy, registered_fault_sites
from repro.serving import Predictor, serve_against_serial


def _parent(*flags, parents=(), **kwargs) -> argparse.ArgumentParser:
    """A help-less parent parser declaring one option (plus ``parents``)."""
    parent = argparse.ArgumentParser(add_help=False, parents=list(parents))
    if flags:
        parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs).

    Every option shared between commands is declared once, in a parent
    parser the commands list in ``parents=``.
    """
    datasets = available_benchmarks()
    dataset = _parent("--dataset", required=True, choices=datasets)
    method = _parent(
        "--method", default="UMSC", choices=sorted(default_method_registry())
    )
    seed = _parent("--seed", type=int, default=0)
    artifact = _parent(
        "--artifact", required=True, metavar="DIR", help="saved artifact directory"
    )
    json_out = _parent(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also write the command's full result as JSON",
    )
    quick = _parent(
        "--quick",
        action="store_true",
        help="reduced sizes (the CI smoke configuration)",
    )
    backend = _parent(
        "--backend",
        default=None,
        choices=available_backends(),
        help="compute backend for the hot kernels "
        "(default: ambient / REPRO_BACKEND / numpy; see `repro backends list`)",
    )
    pipeline = _parent(parents=[backend])
    pipeline.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="memoize graph/eigen computations into this directory "
        "(reused across invocations; results are bit-identical)",
    )
    pipeline.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for per-view graph construction "
        "(-1 = all CPUs; default serial)",
    )
    pipeline.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="deterministic perturbed retries per numerical kernel "
        "before its fallback chain (default 1)",
    )
    # The metrics source of `metrics dump` and `health check`.
    source = _parent(parents=[method, seed])
    source.add_argument(
        "--dataset",
        default=None,
        choices=datasets,
        help="run one live traced fit and read its metrics",
    )
    source.add_argument(
        "--from-trace",
        dest="from_trace",
        default=None,
        metavar="PATH",
        help="read the metrics snapshot embedded in a saved JSONL trace "
        "instead of running a fit",
    )
    trace_file = _parent("path", help="JSONL trace file")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified multi-view spectral clustering — evaluation CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name: str, summary: str):
        """A command whose subcommand lands in ``args.<name>_command``."""
        return sub.add_parser(name, help=summary).add_subparsers(
            dest=f"{name}_command", required=True
        )

    sub.add_parser("datasets", help="print benchmark statistics (Table I)")

    run_p = sub.add_parser(
        "run",
        help="run one method on one benchmark",
        parents=[dataset, method, seed, pipeline],
    )
    run_p.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per solver iteration to stderr",
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write spans and iteration events to PATH as JSONL",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase timing breakdown after the run and arm "
        "the cProfile hooks on designated hot spans",
    )

    table_p = sub.add_parser(
        "table", help="print a comparison table", parents=[pipeline]
    )
    table_p.add_argument(
        "--datasets",
        default="three_sources,msrcv1,yale",
        help="comma-separated benchmark names",
    )
    table_p.add_argument(
        "--metric", default="acc", choices=["acc", "nmi", "purity", "ari", "fscore"]
    )
    table_p.add_argument("--runs", type=int, default=3)
    table_p.add_argument(
        "--methods",
        default="",
        help="comma-separated registry names (default: the Tables II–IV rows)",
    )

    conv_p = sub.add_parser(
        "convergence", help="print the objective trace", parents=[dataset, seed]
    )
    conv_p.add_argument("--max-iter", type=int, default=25)

    stab_p = sub.add_parser(
        "stability",
        help="seed stability: one-stage vs two-stage",
        parents=[dataset],
    )
    stab_p.add_argument("--runs", type=int, default=5)

    cache_sub = group("cache", "inspect or clear an on-disk computation cache")
    for sub_name, sub_help in (
        ("stats", "print entry count and size of a cache directory"),
        ("clear", "delete every cache entry in a cache directory"),
    ):
        p = cache_sub.add_parser(sub_name, help=sub_help)
        p.add_argument(
            "--cache-dir",
            required=True,
            help="on-disk computation cache directory",
        )

    group("faults", "inspect the fault-injection harness").add_parser(
        "list", help="list every registered fault-injection site"
    )

    save_p = sub.add_parser(
        "save",
        help="fit a model on a benchmark and save a serving artifact",
        parents=[dataset, seed, pipeline],
    )
    save_p.add_argument(
        "--model",
        default="UnifiedMVSC",
        choices=["UnifiedMVSC", "AnchorMVSC", "SparseMVSC"],
    )
    save_p.add_argument(
        "--out", required=True, metavar="DIR", help="artifact directory to write"
    )

    predict_p = sub.add_parser(
        "predict",
        help="batch-label a benchmark with a saved artifact",
        parents=[artifact, dataset, backend],
    )
    predict_p.add_argument("--batch-size", type=int, default=4096)
    predict_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for per-view score computation",
    )

    serve_p = sub.add_parser(
        "serve",
        help="offline micro-batching throughput benchmark",
        parents=[artifact, dataset, backend],
    )
    serve_p.add_argument("--requests", type=int, default=128)
    serve_p.add_argument("--clients", type=int, default=4)
    serve_p.add_argument("--max-batch", type=int, default=32)
    serve_p.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics, /healthz, /stats on 127.0.0.1:PORT "
        "during the replay (0 = pick a free port)",
    )

    dump_p = group("metrics", "export a run's metrics registry").add_parser(
        "dump",
        help="run one traced fit and render its registry "
        "(Prometheus text or JSON)",
        parents=[source],
    )
    dump_p.add_argument(
        "--format",
        dest="fmt",
        default="prom",
        choices=["prom", "json"],
        help="Prometheus text exposition format or structured JSON",
    )

    check_p = group(
        "health",
        "evaluate SLO/health rules against metrics (CI exit codes)",
    ).add_parser(
        "check",
        help="evaluate a rule pack against a live fit, a saved trace, "
        "or a bench report; exit 0 healthy / 1 critical / 2 bad input",
        parents=[source, json_out],
    )
    check_p.add_argument(
        "--from-bench",
        dest="from_bench",
        default=None,
        metavar="PATH",
        help="evaluate every bench entry's metrics in a BENCH_*.json",
    )
    check_p.add_argument(
        "--rules",
        default=None,
        metavar="FILE",
        help="JSON rule pack (default: the built-in six-rule pack)",
    )
    check_p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any failing rule, not only critical ones",
    )

    trace_sub = group("trace", "analyze a JSONL trace file (spans -> hotspots)")
    trace_sub.add_parser(
        "summary",
        help="per-span-name hotspot table (self and cumulative time)",
        parents=[trace_file],
    ).add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="show the N hottest span names (default 15)",
    )
    trace_sub.add_parser(
        "critical-path",
        help="longest dependent span chain through the trace",
        parents=[trace_file],
    ).add_argument(
        "--root",
        default=None,
        metavar="NAME",
        help="span name to root the walk at (e.g. serving.batch); "
        "default: the longest top-level span",
    )
    trace_sub.add_parser(
        "export",
        help="write Chrome trace-event JSON (Perfetto / chrome://tracing)",
        parents=[trace_file],
    ).add_argument(
        "--out", required=True, metavar="PATH", help="output JSON path"
    )

    bench_sub = group("bench", "benchmark-regression tracker (run / compare)")
    bench_run_p = bench_sub.add_parser(
        "run",
        help="run the tracked bench subset, write BENCH_<tag>.json",
        parents=[quick, backend],
    )
    bench_run_p.add_argument(
        "--benches",
        default="",
        help="comma-separated tracked bench names (default: all)",
    )
    bench_run_p.add_argument("--repeats", type=int, default=3)
    bench_run_p.add_argument("--tag", default="local")
    bench_run_p.add_argument(
        "--no-profile",
        dest="profile",
        action="store_false",
        help="skip the extra untimed profiled pass (no per-bench "
        "hotspots in the report)",
    )
    bench_run_p.add_argument(
        "--no-memory",
        dest="memory",
        action="store_false",
        help="skip the extra untimed memory-attribution pass (no "
        "per-bench allocation peak in the report; compare skips that "
        "row, warn-only)",
    )
    bench_run_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="report path (default BENCH_<tag>.json in the cwd)",
    )
    bench_cmp_p = bench_sub.add_parser(
        "compare",
        help="compare two BENCH_*.json reports; exit 1 on regression",
    )
    bench_cmp_p.add_argument("baseline", help="baseline BENCH_*.json")
    bench_cmp_p.add_argument("current", help="current BENCH_*.json")
    bench_cmp_p.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative slowdown gate (default 0.25 = +25%%)",
    )
    bench_cmp_p.add_argument(
        "--memory-threshold",
        dest="memory_threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative memory-growth gate for the per-bench peaks "
        "(default 0.50 = +50%%; allocations jitter more than "
        "wall-clock)",
    )
    bench_cmp_p.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI advisory mode)",
    )

    group("backends", "inspect the pluggable compute backends").add_parser(
        "list", help="print every registered backend and the active one"
    )

    scen_sub = group(
        "scenarios", "controlled robustness scenarios (list / run the matrix)"
    )
    scen_sub.add_parser(
        "list", help="print every registered scenario and its knobs"
    )
    scen_run_p = scen_sub.add_parser(
        "run",
        help="run the method × scenario robustness matrix "
        "(ACC/NMI/ARI grid)",
        parents=[seed, quick, json_out],
    )
    scen_run_p.add_argument(
        "--scenarios",
        default="",
        help="comma-separated scenario names (default: all registered)",
    )
    scen_run_p.add_argument(
        "--methods",
        default="",
        help="comma-separated method registry names (default: "
        "UMSC,AnchorMVSC,SparseMVSC,ConcatSC)",
    )
    scen_run_p.add_argument(
        "--metrics",
        default="acc,nmi,ari",
        help="comma-separated metric names (default acc,nmi,ari)",
    )
    scen_run_p.add_argument("--runs", type=int, default=1)
    scen_run_p.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="resize every scenario to N samples before generation "
        "(--quick: 80)",
    )

    stream_p = sub.add_parser(
        "stream",
        help="replay a scenario as a batch stream through the "
        "drift-aware incremental model",
        parents=[seed, quick, json_out, pipeline],
    )
    stream_p.add_argument(
        "scenario", help="scenario name (see `repro scenarios list`)"
    )
    stream_p.add_argument(
        "--batches",
        type=int,
        default=8,
        help="batches to replay (default 8; --quick: 4)",
    )
    stream_p.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="samples per batch (default: the scenario's native size; "
        "--quick: 80)",
    )
    stream_p.add_argument(
        "--drift-at",
        type=int,
        default=None,
        metavar="BATCH",
        help="inject a distribution shift starting at this batch "
        "(default: stationary stream)",
    )
    stream_p.add_argument(
        "--drift-mean-shift",
        type=float,
        default=3.0,
        metavar="S",
        help="latent cluster-mean displacement of the injected shift "
        "(default 3.0)",
    )
    stream_p.add_argument(
        "--drift-imbalance",
        type=float,
        default=None,
        metavar="R",
        help="post-shift cluster-imbalance ratio (default: unchanged)",
    )
    stream_p.add_argument(
        "--anchors",
        type=int,
        default=0,
        metavar="M",
        help="anchors per view (0 = size heuristic)",
    )
    stream_p.add_argument(
        "--refine-iters",
        type=int,
        default=None,
        metavar="N",
        help="alternations per fold-in (default: AnchorMVSC.partial_fit's)",
    )
    stream_p.add_argument(
        "--no-drift-detect",
        action="store_true",
        help="stream with the drift detectors off (every batch folds in)",
    )
    return parser


def _comma_list(text: str) -> list[str]:
    """The stripped, non-empty items of a comma-separated flag value."""
    return [item for item in re.split(r"\s*,\s*", text.strip()) if item]


def _write_json(path, doc, **dump_kwargs) -> None:
    """Write ``doc`` to ``path`` as one JSON document plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **dump_kwargs)
        fh.write("\n")


def _pipeline_context(args) -> scoped:
    """The run context of the backend/cache/jobs/retry CLI flags; its
    ``cache`` is the ``--cache-dir`` one (the CLI has no ambient cache)."""
    backend = getattr(args, "backend", None)
    cache_dir = getattr(args, "cache_dir", None)
    jobs = getattr(args, "jobs", None)
    retries = getattr(args, "max_retries", None)
    resolve_jobs(jobs)  # validate eagerly
    return scoped(
        backend=None if backend is None else get_backend(backend),
        cache=ComputationCache(directory=cache_dir) if cache_dir else None,
        jobs=jobs,
        policy=None if retries is None else FailurePolicy(max_retries=retries),
    )


def _print_cache_summary(cache, out) -> None:
    if cache is None:
        return
    s = cache.stats()
    print(
        f"cache: {s.hits} hits / {s.misses} misses "
        f"(hit rate {s.hit_rate:.0%}), "
        f"{s.disk_entries} disk entries ({s.disk_bytes / 1e6:.1f} MB)",
        file=out,
    )


def _cmd_datasets(args, out) -> int:
    rows = []
    for name in available_benchmarks():
        spec = get_spec(name)
        rows.append(
            [
                name,
                spec.n_samples,
                len(spec.view_dims),
                "/".join(str(d) for d in spec.view_dims),
                spec.n_clusters,
            ]
        )
    print(
        format_rows(["dataset", "n", "views", "dims", "clusters"], rows),
        file=out,
    )
    return 0


def _profile_table(trace, total_seconds: float) -> str:
    """Per-phase timing table of one trace (sorted by total time)."""
    stats = trace.phase_stats()
    rows = []
    for name, (count, seconds) in sorted(
        stats.items(), key=lambda item: -item[1][1]
    ):
        share = 100.0 * seconds / total_seconds if total_seconds > 0 else 0.0
        rows.append([name, count, f"{seconds:.3f}s", f"{share:.1f}%"])
    return format_rows(["phase", "calls", "total", "share"], rows)


def _cmd_run(args, out) -> int:
    dataset = load_benchmark(args.dataset)
    spec = default_method_registry()[args.method]
    sinks = []
    if args.trace:
        sinks.append(JsonlSink(args.trace))
    if args.verbose:
        sinks.append(LoggingSink(stream=sys.stderr))
    # Trace only when a flag reads it, so a plain run times the
    # production path (no health probes, no span records).
    traced = args.trace or args.verbose or args.profile
    trace = Trace(f"run:{args.dataset}:{args.method}", sinks=sinks)
    session = ProfilingSession() if args.profile else None
    with _pipeline_context(args) as ctx, \
            use_trace(trace) if traced else nullcontext(), \
            scoped(profiling=session):
        cache = ctx.cache
        scores, seconds = run_method_once(
            spec, dataset, args.seed, metrics=("acc", "nmi", "purity")
        )
    print(dataset.summary(), file=out)
    print(f"{args.method} ({seconds:.2f}s):", file=out)
    for metric, value in scores.items():
        print(f"  {metric:>7}: {value:.3f}", file=out)
    if args.profile:
        print("profile (time per phase):", file=out)
        print(_profile_table(trace, seconds), file=out)
        if session is not None and session.sites():
            print(
                "profiled hot spans (top functions by cumulative time):",
                file=out,
            )
            for site in session.sites():
                print(f"  {site}:", file=out)
                for row in session.hotspots(site, top=3):
                    print(
                        f"    {row['cumtime']:.4f}s {row['function']} "
                        f"({row['calls']} calls)",
                        file=out,
                    )
    if args.trace:
        n_events = len(trace.events)
        print(
            f"trace: {len(trace.spans)} spans, {n_events} iteration "
            f"events -> {args.trace}",
            file=out,
        )
    _print_cache_summary(cache, out)
    return 0


def _cmd_table(args, out) -> int:
    results = {}
    with _pipeline_context(args) as ctx:
        cache = ctx.cache
        for name in _comma_list(args.datasets):
            dataset = load_benchmark(name)
            results[name] = run_experiment(
                dataset,
                methods=_comma_list(args.methods) or None,
                n_runs=args.runs,
                metrics=(args.metric,),
            )
    print(format_metric_table(results, args.metric), file=out)
    _print_cache_summary(cache, out)
    return 0


def _cmd_cache(args, out) -> int:
    if args.cache_command == "stats":
        entries, nbytes = disk_store_stats(args.cache_dir)
        print(f"cache directory: {args.cache_dir}", file=out)
        print(f"  entries: {entries}", file=out)
        print(f"  size:    {nbytes / 1e6:.1f} MB", file=out)
        return 0
    if args.cache_command == "clear":
        removed = clear_disk_store(args.cache_dir)
        print(f"removed {removed} cache entries from {args.cache_dir}", file=out)
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_faults(args, out) -> int:
    """``repro faults list`` — print the registered fault sites."""
    sites = registered_fault_sites()
    rows = [
        [site.name, "/".join(site.modes), site.description]
        for site in sorted(sites.values(), key=lambda s: s.name)
    ]
    print(format_rows(["site", "modes", "guards"], rows), file=out)
    print(f"{len(rows)} fault sites registered", file=out)
    return 0


def _cmd_save(args, out) -> int:
    import repro.core

    dataset = load_benchmark(args.dataset)
    model_class = getattr(repro.core, args.model)
    model = model_class(dataset.n_clusters, random_state=args.seed)
    with _pipeline_context(args) as ctx:
        cache = ctx.cache
        model.fit_predict(dataset.views)
        path = model.save(args.out)
    artifact = model.to_artifact()
    print(dataset.summary(), file=out)
    print(
        f"saved {args.model} artifact -> {path}\n"
        f"  n_samples:  {artifact.n_samples}\n"
        f"  view_dims:  {'/'.join(str(d) for d in artifact.view_dims)}\n"
        f"  n_clusters: {artifact.n_clusters}\n"
        f"  hash:       {artifact.content_hash()}",
        file=out,
    )
    _print_cache_summary(cache, out)
    return 0


def _cmd_predict(args, out) -> int:
    from repro.metrics.report import evaluate_clustering

    predictor = Predictor.load(args.artifact, batch_size=args.batch_size)
    dataset = load_benchmark(args.dataset)
    with _pipeline_context(args):
        labels = predictor.predict(dataset.views)
    counts = np.bincount(labels, minlength=predictor.artifact.n_clusters)
    print(f"{predictor!r}", file=out)
    print(f"predicted {labels.shape[0]} samples from {args.dataset}", file=out)
    print(
        "  cluster sizes: "
        + " ".join(f"{j}:{int(n)}" for j, n in enumerate(counts)),
        file=out,
    )
    scores = evaluate_clustering(
        dataset.labels, labels, metrics=("acc", "nmi", "purity")
    )
    for metric, value in scores.items():
        print(f"  {metric:>7}: {value:.3f}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    if args.requests < 1:
        raise ValidationError(f"--requests must be >= 1, got {args.requests}")
    predictor = Predictor.load(args.artifact)
    dataset = load_benchmark(args.dataset)
    n = dataset.n_samples
    n_requests = args.requests
    samples = [
        [v[i % n] for v in dataset.views] for i in range(n_requests)
    ]

    def announce(service) -> None:
        if service.telemetry_url is not None:
            print(
                f"telemetry: {service.telemetry_url} "
                f"(/metrics /healthz /stats)",
                file=out,
            )

    # The replay runs under the --backend flag; the service worker
    # inherits it with the rest of the run context.
    with _pipeline_context(args):
        result = serve_against_serial(
            predictor,
            samples,
            clients=args.clients,
            max_batch=args.max_batch,
            telemetry_port=args.telemetry_port,
            on_start=announce,
        )

    stats = result.stats
    mismatches = sum(a != b for a, b in zip(result.served, result.serial))
    print(f"{predictor!r}", file=out)
    print(
        f"served {n_requests} single-sample requests "
        f"({args.clients} clients, max_batch={args.max_batch})",
        file=out,
    )
    print(
        f"  one-at-a-time: {result.serial_seconds:.3f}s "
        f"({n_requests / result.serial_seconds:.0f} req/s)",
        file=out,
    )
    print(
        f"  micro-batched: {result.served_seconds:.3f}s "
        f"({n_requests / result.served_seconds:.0f} req/s), "
        f"{stats.batches} batches, mean batch "
        f"{stats.mean_batch_size:.1f}, max {stats.max_batch_size}",
        file=out,
    )
    quantiles = result.latency.items()
    print(
        "  request latency: "
        + " ".join(f"{k}={1e3 * v:.1f}ms" for k, v in quantiles),
        file=out,
    )
    print(f"  label mismatches vs serial: {mismatches}", file=out)
    return 0 if mismatches == 0 else 1


def _metrics_source(args, missing: str) -> tuple[str, dict]:
    """``(label, snapshot)`` of ``--from-trace`` or of one live traced fit.

    Shared by ``metrics dump`` and ``health check``; ``missing`` is the
    error raised when neither ``--from-trace`` nor ``--dataset`` is set.
    """
    from repro.observability import analysis

    if args.from_trace:
        trace = analysis.load_trace(args.from_trace)
        return f"trace:{args.from_trace}", analysis.metrics_snapshot(trace)
    if not args.dataset:
        raise ValidationError(missing)
    dataset = load_benchmark(args.dataset)
    spec = default_method_registry()[args.method]
    trace = Trace(f"{args.command}:{args.dataset}:{args.method}")
    with use_trace(trace):
        run_method_once(spec, dataset, args.seed, metrics=("acc",))
    return f"fit:{args.dataset}:{args.method}", trace.metrics.snapshot()


def _cmd_metrics(args, out) -> int:
    from repro.observability import (
        render_json_snapshot,
        render_prometheus_snapshot,
    )

    _, snapshot = _metrics_source(
        args,
        "metrics dump needs --dataset (run a live traced fit) or "
        "--from-trace PATH (render a saved trace's snapshot)",
    )
    if args.fmt == "json":
        print(render_json_snapshot(snapshot), file=out)
    else:
        print(render_prometheus_snapshot(snapshot), file=out, end="")
    return 0


def _cmd_health(args, out) -> int:
    """``repro health check`` — evaluate a rule pack, exit like CI wants."""
    from repro import bench as bench_mod
    from repro.observability.health import (
        default_rule_pack,
        evaluate_rules,
        load_rules,
    )

    assert args.health_command == "check"
    rules = (
        load_rules(args.rules) if args.rules else default_rule_pack()
    )
    if args.from_trace and args.from_bench:
        raise ValidationError(
            "health check takes --from-trace or --from-bench, not both"
        )
    if args.from_bench:
        report = bench_mod.load_report(args.from_bench)
        sources = [
            (f"bench:{name}", entry.get("metrics", {}))
            for name, entry in sorted(report["benches"].items())
        ]
        if not sources:
            raise ValidationError(
                f"bench report {args.from_bench!r} has no bench entries"
            )
    else:
        sources = [
            _metrics_source(
                args,
                "health check needs a metrics source: --dataset (run a "
                "live traced fit), --from-trace PATH, or --from-bench PATH",
            )
        ]

    reports = []
    for label, snapshot in sources:
        report = evaluate_rules(rules, snapshot)
        reports.append((label, report))
        print(f"{label}:", file=out)
        rows = [
            [
                res.rule.name,
                res.status,
                "-" if res.value is None else f"{res.value:.6g}",
                res.rule.severity,
                res.detail,
            ]
            for res in report.results
        ]
        print(
            format_rows(
                ["rule", "status", "value", "severity", "detail"], rows
            ),
            file=out,
        )

    failing = [
        (label, res)
        for label, report in reports
        for res in report.failing
    ]
    critical = [(label, res) for label, res in failing if res.critical]
    n_rules = sum(len(report.results) for _, report in reports)
    verdict = (
        f"{n_rules} rule evaluation(s) across {len(reports)} source(s): "
        f"{len(failing)} failing, {len(critical)} critical"
    )
    bad = bool(critical) or (args.strict and bool(failing))
    print(verdict + (" — FAIL" if bad else " — OK"), file=out)

    if args.json_out:
        doc = {
            "rules": [r.to_dict() for r in rules],
            "sources": [
                {"source": label, **report.to_dict()}
                for label, report in reports
            ],
            "failing": len(failing),
            "critical": len(critical),
            "ok": not bad,
        }
        _write_json(args.json_out, doc, indent=2)
        print(f"wrote health report -> {args.json_out}", file=out)
    return 1 if bad else 0


def _cmd_trace(args, out) -> int:
    from repro.observability import analysis

    if args.trace_command == "summary" and args.top < 1:
        raise ValidationError(f"--top must be >= 1, got {args.top}")
    data = analysis.load_trace(args.path)
    if args.trace_command == "summary":
        all_rows = analysis.hotspot_summary(data)
        total_self = sum(r.self_seconds for r in all_rows)
        ids = ", ".join(i for i in data.trace_ids if i) or "(none)"
        print(
            f"{data.path}: {len(data.spans)} spans, "
            f"{len(data.iterations)} iteration events, trace ids: {ids}",
            file=out,
        )
        rows = []
        for r in all_rows[: args.top]:
            share = (
                100.0 * r.self_seconds / total_self if total_self > 0 else 0.0
            )
            rows.append(
                [
                    r.name,
                    r.count,
                    f"{r.total_seconds:.4f}s",
                    f"{r.self_seconds:.4f}s",
                    f"{share:.1f}%",
                    f"{1e3 * r.mean_seconds:.2f}ms",
                ]
            )
        print(
            format_rows(
                ["span", "calls", "total", "self", "share", "mean"], rows
            ),
            file=out,
        )
        if len(all_rows) > args.top:
            print(
                f"(top {args.top} of {len(all_rows)} span names)", file=out
            )
        return 0
    if args.trace_command == "critical-path":
        steps = analysis.critical_path(data, root=args.root)
        print(
            f"critical path ({steps[0].name}): {len(steps)} steps, "
            f"{steps[0].duration_seconds:.4f}s total",
            file=out,
        )
        rows = [
            [
                "  " * step.depth + step.name,
                step.span_id or "-",
                f"{step.duration_seconds:.4f}s",
                f"{step.self_seconds:.4f}s",
            ]
            for step in steps
        ]
        print(
            format_rows(["step", "span", "duration", "self"], rows), file=out
        )
        return 0
    if args.trace_command == "export":
        doc = analysis.to_chrome_trace(data)
        _write_json(args.out, doc)
        print(
            f"wrote {len(doc['traceEvents'])} trace events -> {args.out} "
            f"(load in Perfetto or chrome://tracing)",
            file=out,
        )
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _cmd_bench(args, out) -> int:
    from repro import bench as bench_mod

    if args.bench_command == "run":
        with _pipeline_context(args):
            report = bench_mod.run_benches(
                _comma_list(args.benches) or None,
                quick=args.quick,
                repeats=args.repeats,
                tag=args.tag,
                profile=args.profile,
                memory=args.memory,
            )
        path = args.out or f"BENCH_{args.tag}.json"
        bench_mod.write_report(report, path)
        for name, entry in report["benches"].items():
            peak = entry["resources"]["peak_rss_bytes"] / 1e6
            line = (
                f"  {name:<20} {entry['seconds']:.3f}s "
                f"(peak rss {peak:.0f} MB"
            )
            if "memory" in entry:
                alloc = entry["memory"]["peak_alloc_bytes"] / 1e6
                line += f", peak alloc {alloc:.0f} MB"
            print(line + ")", file=out)
        print(
            f"wrote {len(report['benches'])} bench entries -> {path} "
            f"(tag {report['tag']!r}, "
            f"{'quick' if report['quick'] else 'full'} sizes)",
            file=out,
        )
        return 0
    if args.bench_command == "compare":
        baseline = bench_mod.load_report(args.baseline)
        current = bench_mod.load_report(args.current)
        gates = {
            name: value
            for name, value in (
                ("threshold", args.threshold),
                ("memory_threshold", args.memory_threshold),
            )
            if value is not None
        }
        comparison = bench_mod.compare_reports(baseline, current, **gates)
        print(bench_mod.format_comparison(comparison), file=out)
        if comparison.ok:
            return 0
        if args.warn_only:
            print("warn-only mode: not failing the gate", file=out)
            return 0
        return 1
    raise AssertionError(f"unhandled bench command {args.bench_command!r}")


def _cmd_backends(args, out) -> int:
    """``repro backends list`` — print the backend registry."""
    assert args.backends_command == "list"
    active = current_backend()
    print(f"active backend: {active.name}", file=out)
    for name in available_backends():
        backend = get_backend(name)
        marker = "*" if backend.name == active.name else " "
        print(
            f"{marker} {backend.name:<8} dtype={backend.compute_dtype.str:<4} "
            f"tolerance={backend.tolerance:g}",
            file=out,
        )
        print(f"    {backend.description}", file=out)
    return 0


def _cmd_scenarios(args, out) -> int:
    """``repro scenarios {list,run}`` — the robustness scenario factory."""
    from repro.datasets.scenarios import available_scenarios, get_scenario
    from repro.evaluation.scenario_matrix import (
        format_matrix,
        run_scenario_matrix,
    )

    if args.scenarios_command == "list":
        rows = []
        for name in available_scenarios():
            spec = get_scenario(name)
            rows.append(
                [
                    name,
                    spec.n_samples,
                    spec.n_views,
                    spec.n_clusters,
                    spec.knob_summary(),
                ]
            )
        print(
            format_rows(["scenario", "n", "views", "clusters", "knobs"], rows),
            file=out,
        )
        print(f"{len(rows)} scenarios registered", file=out)
        return 0
    if args.scenarios_command == "run":
        n_samples = 80 if args.quick else args.samples
        matrix = run_scenario_matrix(
            methods=_comma_list(args.methods) or None,
            scenarios=_comma_list(args.scenarios) or None,
            n_samples=n_samples,
            n_runs=args.runs,
            metrics=tuple(_comma_list(args.metrics)),
            base_seed=args.seed,
        )
        size = n_samples if n_samples is not None else "native"
        print(
            f"scenario matrix: {len(matrix.methods)} methods × "
            f"{len(matrix.scenarios)} scenarios, {args.runs} run(s), "
            f"samples={size}",
            file=out,
        )
        for metric in matrix.metrics:
            print(format_matrix(matrix, metric), file=out)
            print("", file=out)
        for method, scenario, error in matrix.failures:
            print(f"FAILED {method} × {scenario}: {error}", file=out)
        if args.json_out:
            _write_json(
                args.json_out, matrix.to_dict(), indent=2, sort_keys=True
            )
            print(f"wrote matrix JSON -> {args.json_out}", file=out)
        return 0 if not matrix.failures else 1
    raise AssertionError(
        f"unhandled scenarios command {args.scenarios_command!r}"
    )


def _cmd_stream(args, out) -> int:
    """``repro stream`` — replay a batch schedule through StreamingMVSC."""
    from repro.core.anchor_model import AnchorMVSC
    from repro.datasets.scenarios import (
        StreamDrift,
        get_scenario,
        stream_batches,
    )
    from repro.metrics import (
        adjusted_rand_index,
        clustering_accuracy,
        normalized_mutual_information,
    )
    from repro.streaming import StreamingMVSC

    spec = get_scenario(args.scenario)
    n_batches = 4 if args.quick else args.batches
    batch_size = args.samples
    if args.quick and batch_size is None:
        batch_size = 80
    if batch_size is not None:
        spec = spec.with_size(batch_size)
    drift = None
    if args.drift_at is not None:
        drift = StreamDrift(
            at_batch=args.drift_at,
            mean_shift=args.drift_mean_shift,
            imbalance=args.drift_imbalance,
        )
    batches = stream_batches(
        spec, n_batches, drift=drift, random_state=args.seed
    )
    with _pipeline_context(args) as ctx:
        cache = ctx.cache
        streamer = StreamingMVSC(
            AnchorMVSC(
                spec.n_clusters,
                n_anchors=args.anchors,
                random_state=args.seed,
            ),
            refine_iters=args.refine_iters,
            detectors=() if args.no_drift_detect else None,
        )
        rows = []
        records = []
        truth_parts = []
        for batch in batches:
            labels = streamer.partial_fit(batch.views)
            truth_parts.append(batch.labels)
            truth = np.concatenate(truth_parts)
            record = streamer.history[-1]
            scores = {
                "acc": clustering_accuracy(truth, labels),
                "nmi": normalized_mutual_information(truth, labels),
                "ari": adjusted_rand_index(truth, labels),
            }
            fired = (
                ";".join(
                    f"{e.kind}({e.severity:.2f})" for e in record.events
                )
                or "-"
            )
            rows.append(
                [
                    batch.index,
                    record.n_new,
                    record.n_total,
                    "yes" if batch.drifted else "",
                    record.action,
                    f"{scores['acc']:.3f}",
                    f"{scores['nmi']:.3f}",
                    f"{scores['ari']:.3f}",
                    f"{record.seconds:.2f}",
                    fired,
                ]
            )
            records.append({**record.to_dict(), **scores})
    drifted = "stationary" if drift is None else f"drift at batch {drift.at_batch}"
    print(
        f"stream: {spec.name} x {n_batches} batches of "
        f"{spec.n_samples} samples ({drifted}), seed={args.seed}",
        file=out,
    )
    print(
        format_rows(
            [
                "batch",
                "new",
                "total",
                "drifted",
                "action",
                "acc",
                "nmi",
                "ari",
                "sec",
                "detectors",
            ],
            rows,
        ),
        file=out,
    )
    total_seconds = sum(r.seconds for r in streamer.history)
    refits = sum(
        1 for r in streamer.history if r.action in ("partial_refit", "full_refit")
    )
    print(
        f"total {total_seconds:.2f}s, {refits} refit(s), "
        f"{len(streamer.events)} drift event(s)",
        file=out,
    )
    _print_cache_summary(cache, out)
    if args.json_out:
        payload = {
            "scenario": spec.to_dict(),
            "n_batches": n_batches,
            "seed": args.seed,
            "drift": None if drift is None else asdict(drift),
            "records": records,
        }
        _write_json(args.json_out, payload, indent=2, sort_keys=True)
        print(f"wrote stream JSON -> {args.json_out}", file=out)
    return 0


def _cmd_convergence(args, out) -> int:
    dataset = load_benchmark(args.dataset)
    curve = convergence_curve(
        dataset, max_iter=args.max_iter, random_state=args.seed
    )
    print(f"{args.dataset}: {sparkline(curve.history)}", file=out)
    for i, value in enumerate(curve.history, start=1):
        print(f"  iter {i:>3}: {value:.6f}", file=out)
    return 0


def _cmd_stability(args, out) -> int:
    from repro.core import TwoStageMVSC
    from repro.core.tuning import recommended_params
    from repro.evaluation.stability import stability_score
    from repro.utils.rng import spawn_seeds

    dataset = load_benchmark(args.dataset)
    params = recommended_params(args.dataset)
    seeds = spawn_seeds(0, max(2, args.runs))
    one = [
        params.build(dataset.n_clusters, random_state=s).fit(dataset.views).labels
        for s in seeds
    ]
    two = [
        TwoStageMVSC(
            dataset.n_clusters,
            gamma=params.gamma,
            n_neighbors=params.n_neighbors,
            n_init=1,
            random_state=s,
        ).fit_predict(dataset.views)
        for s in seeds
    ]
    print(dataset.summary(), file=out)
    print(
        f"mean pairwise ARI over {len(seeds)} seeds "
        f"(1.0 = perfectly repeatable):",
        file=out,
    )
    print(f"  one-stage (UMSC):          {stability_score(one):.3f}", file=out)
    print(f"  two-stage (1 K-means run): {stability_score(two):.3f}", file=out)
    return 0


def _guard_trace_errors(handler, args, out) -> int:
    """Run a trace-file command; typed errors become one stderr line.

    Only the commands whose main job is reading user-supplied trace
    files go through this wrapper — other commands keep propagating
    :class:`ReproError` subclasses to the caller (tests assert on the
    types).
    """
    try:
        return handler(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


_COMMANDS = {
    "datasets": _cmd_datasets,
    "run": _cmd_run,
    "table": _cmd_table,
    "convergence": _cmd_convergence,
    "stability": _cmd_stability,
    "cache": _cmd_cache,
    "faults": _cmd_faults,
    "save": _cmd_save,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "metrics": partial(_guard_trace_errors, _cmd_metrics),
    "health": partial(_guard_trace_errors, _cmd_health),
    "trace": partial(_guard_trace_errors, _cmd_trace),
    "bench": _cmd_bench,
    "backends": _cmd_backends,
    "scenarios": _cmd_scenarios,
    "stream": _cmd_stream,
}
