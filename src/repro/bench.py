"""Benchmark-regression tracker: run tracked benches, record, compare.

The paper's north star — "as fast as the hardware allows" — is only
meaningful if wall-clock is a *tracked artifact*, not a one-off print.
This module turns a declared subset of the ``benchmarks/bench_*`` suite
into machine-readable perf records:

* :data:`BENCHES` — the tracked scenarios (each mirrors one existing
  ``bench_*`` workload at a runner-friendly size);
* :func:`run_benches` — time them with no trace active under a
  :class:`~repro.observability.resource.ResourceSampler`, after one
  untimed warm-up pass under a :class:`~repro.observability.trace.Trace`,
  producing a schema-versioned report (per-bench wall-clock, the
  warm-up's metrics dump, resource peaks, machine fingerprint);
* :func:`write_report` / :func:`load_report` — ``BENCH_<tag>.json``
  persistence with schema validation;
* :func:`compare_reports` — regression detection between two reports,
  for the CI gate (``repro bench compare`` exits nonzero on
  regression): one row per bench and :data:`GATES` quantity —
  wall-clock against a relative ``threshold``, the timed pass's peak
  RSS and the traced allocation peak against a looser
  ``memory_threshold`` — each above its own noise floor.

Both entry points — ``repro bench {run,compare}`` and
``python benchmarks/bench_runner.py`` — are thin wrappers over this
module, so the tracker is importable (and unit-testable) wherever the
package is installed.

Because every bench body routes through the library's instrumented
kernels, the fault-injection harness applies: arming
``FaultSpec("model.fit", mode="delay", ...)`` around :func:`run_benches`
deterministically slows the fit benches, which is how the regression
gate itself is tested.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from repro.exceptions import ValidationError
from repro.observability.export import _nan_to_none
from repro.observability.memory import use_memory_tracking
from repro.observability.profiling import use_profiling
from repro.observability.resource import ResourceSampler
from repro.observability.trace import Trace, use_trace

#: Format version of ``BENCH_*.json``; bump on breaking layout changes.
#: (The ``memory`` block added per bench is additive, so version 1
#: readers and writers stay compatible.)
SCHEMA_VERSION = 1

#: Relative slowdown tolerated before a bench counts as regressed.
DEFAULT_THRESHOLD = 0.25

#: Benches faster than this are too noisy to gate on; compared but
#: never flagged.
MIN_GATED_SECONDS = 0.005

#: Relative memory growth tolerated before a bench counts as regressed.
#: Allocations jitter more than wall-clock (allocator reuse, reservoir
#: effects), so the memory gate is looser than the time gate.
DEFAULT_MEMORY_THRESHOLD = 0.50

#: Memory baselines below this are too small to gate on (allocator /
#: interpreter noise dominates); compared but never flagged.
MIN_GATED_MEMORY_BYTES = 16 * 1024 * 1024


# ---------------------------------------------------------------------------
# Tracked bench workloads
# ---------------------------------------------------------------------------


def _bench_umsc_fit(quick: bool):
    """One-stage solver fit (mirrors ``bench_fig3_runtime``)."""
    from repro.core import UnifiedMVSC
    from repro.datasets import make_multiview_blobs

    n = 120 if quick else 300
    ds = make_multiview_blobs(
        n, 4, view_dims=(20, 30), separation=5.0, random_state=1
    )

    def work():
        UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views)

    return work


def _bench_anchor_fit(quick: bool):
    """Anchor-accelerated fit (mirrors ``bench_ext_scalability``)."""
    from repro.core import AnchorMVSC
    from repro.datasets import make_multiview_blobs

    n = 200 if quick else 800
    ds = make_multiview_blobs(
        n, 4, view_dims=(20, 30), separation=5.0, random_state=2
    )

    def work():
        AnchorMVSC(ds.n_clusters, random_state=0).fit_predict(ds.views)

    return work


def _bench_graph_build(quick: bool):
    """Per-view affinity construction (mirrors ``bench_ablation_graphs``)."""
    from repro.datasets import make_multiview_blobs
    from repro.graph.affinity import build_view_affinity

    n = 250 if quick else 700
    ds = make_multiview_blobs(
        n, 4, view_dims=(24, 36), separation=4.0, random_state=3
    )

    def work():
        for view in ds.views:
            build_view_affinity(view, k=10)

    return work


def _blob_predictor(n: int, seed: int):
    """A 4-cluster two-view blob dataset and a predictor over all of it."""
    from repro.datasets import make_multiview_blobs
    from repro.serving import ModelArtifact, Predictor

    ds = make_multiview_blobs(
        n, 4, view_dims=(16, 24), view_noise=(0.2, 0.3), random_state=seed
    )
    artifact = ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=ds.views,
        train_labels=ds.labels,
        view_weights=np.array([0.6, 0.4]),
        n_clusters=ds.n_clusters,
    )
    return ds, Predictor(artifact)


def _bench_predict_batch(quick: bool):
    """Batched inductive predict (the ``bench_serving_throughput`` kernel)."""
    n = 200 if quick else 500
    ds, predictor = _blob_predictor(n, seed=4)
    queries = [np.repeat(v[: n // 2], 2, axis=0) for v in ds.views]

    def work():
        predictor.predict(queries)

    return work


def _bench_serving_throughput(quick: bool):
    """Micro-batched replay (mirrors ``bench_serving_throughput``)."""
    from repro.serving import PredictionService, replay

    n_requests = 100 if quick else 400
    ds, predictor = _blob_predictor(150, seed=5)
    rng = np.random.default_rng(6)
    order = rng.integers(0, ds.n_samples, size=n_requests)
    samples = [[v[i] for v in ds.views] for i in order]

    def work():
        with PredictionService(
            predictor, max_batch=64, max_queue=n_requests
        ) as service:
            replay(service, samples, clients=4)

    return work


def _bench_scenario_matrix(quick: bool):
    """Robustness-matrix sweep (mirrors ``bench_scenario_matrix``).

    Tracking the matrix wall-clock in the regression gate means a
    robustness-harness slowdown (or a scenario generator that silently
    got expensive) fails CI exactly like a kernel regression.
    """
    from repro.evaluation.scenario_matrix import run_scenario_matrix

    n = 70 if quick else 160
    methods = ("UMSC", "ConcatSC")
    scenarios = ("clean", "confused_pairs", "missing_views")

    def work():
        run_scenario_matrix(
            methods=methods, scenarios=scenarios, n_samples=n, n_runs=1
        )

    return work


def _bench_streaming(quick: bool):
    """Drift-aware streaming replay (mirrors ``bench_streaming``).

    Times the full per-batch protocol — fold-in, drift detection, and
    the refit the injected shift provokes — so a regression in the
    incremental path (or a detector that starts refitting every batch)
    shows up as wall-clock, not just as a logic bug.
    """
    from repro.core.anchor_model import AnchorMVSC
    from repro.datasets.scenarios import (
        StreamDrift,
        get_scenario,
        stream_batches,
    )
    from repro.streaming import StreamingMVSC

    n_batches = 4 if quick else 8
    batch_size = 70 if quick else 150
    scenario = get_scenario("confused_pairs").with_size(batch_size)
    drift = StreamDrift(
        at_batch=n_batches - 2, mean_shift=4.0, imbalance=5.0
    )
    batches = stream_batches(scenario, n_batches, drift=drift, random_state=0)

    def work():
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)

    return work


#: The declared tracked subset: ``{name: (description, factory)}``.
#: Each factory takes ``quick`` and returns the zero-argument timed body.
BENCHES: dict = {
    "umsc_fit": (
        "UnifiedMVSC one-stage fit on synthetic blobs (bench_fig3_runtime)",
        _bench_umsc_fit,
    ),
    "anchor_fit": (
        "AnchorMVSC scalable fit on synthetic blobs (bench_ext_scalability)",
        _bench_anchor_fit,
    ),
    "graph_build": (
        "per-view kNN affinity construction (bench_ablation_graphs)",
        _bench_graph_build,
    ),
    "predict_batch": (
        "batched inductive Predictor.predict (bench_serving_throughput)",
        _bench_predict_batch,
    ),
    "serving_throughput": (
        "micro-batched PredictionService replay (bench_serving_throughput)",
        _bench_serving_throughput,
    ),
    "scenario_matrix": (
        "method × scenario robustness grid (bench_scenario_matrix)",
        _bench_scenario_matrix,
    ),
    "streaming": (
        "drift-aware incremental batch replay (bench_streaming)",
        _bench_streaming,
    ),
}


def machine_fingerprint() -> dict:
    """Where a report was measured (for judging comparability).

    Includes the active compute backend: reports taken under different
    backends measure different numerical contracts and should only be
    compared deliberately (e.g. ``repro bench compare`` for speedups).
    """
    from repro.backends import current_backend

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": current_backend().name,
    }


def run_benches(
    names=None,
    *,
    quick: bool = False,
    repeats: int = 3,
    tag: str = "local",
    profile: bool = True,
    memory: bool = True,
) -> dict:
    """Execute tracked benches; return the schema-versioned report.

    Parameters
    ----------
    names : sequence of str, optional
        Subset of :data:`BENCHES` to run (default: all, in declaration
        order).  Unknown names raise :class:`ValidationError`.
    quick : bool
        Use the reduced problem sizes (the CI smoke configuration).
    repeats : int
        Timed repetitions per bench after one untimed warmup; the
        headline ``seconds`` is the minimum (least-noise statistic).
    tag : str
        Label stored in the report (conventionally the ``<tag>`` of
        ``BENCH_<tag>.json``).
    profile : bool
        After the timed repetitions, run one extra *untimed* pass with
        the :mod:`~repro.observability.profiling` hooks armed and store
        each profiled site's top functions under the entry's
        ``"hotspots"`` key.  The timed repetitions never run under the
        profiler, so the headline seconds are unaffected.
    memory : bool
        After the timed repetitions, run one extra *untimed* pass with
        :class:`~repro.observability.memory.use_memory_tracking` armed
        and store the per-phase allocation table and the traced
        allocation peak under the entry's ``"memory"`` key.
        Tracemalloc roughly doubles allocation cost, which is why this
        pass is untimed and separate.

    Only the untimed warm-up pass runs under the bench's own trace and
    supplies the entry's ``"metrics"`` snapshot (eigensolver calls, GPI
    inner iterations, serving latencies, ...) for one pass.  Every
    other pass runs under the caller's run context, with no trace
    unless the caller activated one; the timed repetitions run inside
    the entry's one resource sampler (``"resources"``: RSS/CPU peaks).
    """
    if names is None:
        selected = list(BENCHES)
    else:
        selected = list(names)
        unknown = [n for n in selected if n not in BENCHES]
        if unknown:
            raise ValidationError(
                f"unknown bench names {unknown}; tracked benches: "
                f"{sorted(BENCHES)}"
            )
    if int(repeats) < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")

    benches: dict = {}
    for name in selected:
        description, factory = BENCHES[name]
        work = factory(quick)
        # The untimed warm-up (touches caches, allocators, BLAS) runs
        # under the bench's trace and supplies the per-pass metrics, so
        # the timed repetitions run the production path with no trace.
        trace = Trace(f"bench:{name}")
        with use_trace(trace):
            work()
        runs: list[float] = []
        with ResourceSampler(interval_seconds=0.01) as sampler:
            for _ in range(int(repeats)):
                start = time.perf_counter()
                work()
                runs.append(time.perf_counter() - start)
        entry = {
            "description": description,
            "seconds": min(runs),
            "runs": runs,
            "metrics": _nan_to_none(trace.metrics.snapshot()),
            "resources": sampler.summary(),
        }
        if profile:
            # Separate untimed pass, untraced like the timed one, so the
            # profiler overhead never touches the headline timings.
            with use_profiling(limit=8) as session:
                work()
            entry["hotspots"] = {
                site: session.hotspots(site, top=5)
                for site in session.sites()
            }
        if memory:
            # Separate untimed pass: tracemalloc distorts timings, so
            # memory attribution never shares a pass with the clock.
            with use_memory_tracking() as mem_session:
                work()
            entry["memory"] = {
                "peak_alloc_bytes": mem_session.peak_alloc_bytes,
                "sites": mem_session.table(),
            }
        benches[name] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "created_unix": time.time(),
        "quick": bool(quick),
        "repeats": int(repeats),
        "machine": machine_fingerprint(),
        "benches": benches,
    }


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------


def write_report(report: dict, path) -> str:
    """Serialize a report to ``path`` (conventionally ``BENCH_<tag>.json``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def load_report(path) -> dict:
    """Read and validate a ``BENCH_*.json`` report.

    Raises
    ------
    ValidationError
        Unparseable JSON, missing keys, an unknown schema version, or a
        bench entry without a finite non-negative ``seconds``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read bench report {path}: {exc}") from exc
    if not isinstance(report, dict) or "schema_version" not in report:
        raise ValidationError(
            f"{path} is not a bench report (no schema_version key)"
        )
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"{path} has schema_version {report['schema_version']!r}; this "
            f"tracker reads version {SCHEMA_VERSION}"
        )
    if not isinstance(report.get("benches"), dict):
        raise ValidationError(f"{path} has no 'benches' mapping")
    for name, entry in report["benches"].items():
        if _gated_value(entry, "seconds") is None:
            raise ValidationError(
                f"{path}: bench {name!r} has no non-negative 'seconds'"
            )
    return report


# ---------------------------------------------------------------------------
# Comparison / regression gate
# ---------------------------------------------------------------------------


#: The gated quantities, one row each per bench: ``(dotted field of the
#: bench entry, threshold argument of compare_reports, noise floor)``;
#: a row's metric is the field's last part.  RSS is the sampler's around
#: the timed repetitions, the allocation peak the tracemalloc pass's.
GATES = (
    ("seconds", "threshold", MIN_GATED_SECONDS),
    ("resources.peak_rss_bytes", "memory_threshold", MIN_GATED_MEMORY_BYTES),
    ("memory.peak_alloc_bytes", "memory_threshold", MIN_GATED_MEMORY_BYTES),
)


def _gated_value(entry, dotted: str):
    """The non-negative finite number at the ``dotted`` field of a bench
    entry, or ``None`` when it is missing or malformed."""
    value = entry
    for key in dotted.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not math.isfinite(value) or value < 0:
        return None
    return float(value)


@dataclass(frozen=True)
class Delta:
    """One bench's baseline-vs-current row for one gated metric."""

    name: str
    metric: str
    baseline: float
    current: float
    regressed: bool

    @property
    def ratio(self) -> float:
        """``current / baseline`` (inf when the baseline is 0)."""
        if self.baseline <= 0:
            return float("inf")
        return self.current / self.baseline


@dataclass(frozen=True)
class Comparison:
    """Outcome of :func:`compare_reports`.

    Attributes
    ----------
    deltas : list of Delta
        One row per :data:`GATES` metric per bench present in both
        reports, where both carry the metric.
    skipped : list of str
        ``bench/metric`` labels whose field was missing or malformed on
        either side — reported, never gated (warn-only), so reports
        without a memory pass keep comparing cleanly.
    missing : list of str
        Benches in the baseline but absent from the current report
        (treated as a failure: coverage silently shrank).
    new : list of str
        Benches only in the current report (informational).
    threshold : float
        Relative slowdown gate of the ``seconds`` rows.
    memory_threshold : float
        Relative growth gate of the memory rows (looser than the time
        gate; allocations jitter more).
    """

    deltas: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    new: list = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD
    memory_threshold: float = DEFAULT_MEMORY_THRESHOLD

    @property
    def regressions(self) -> list:
        """The rows that exceeded their threshold."""
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        """True when no row regressed and no coverage went missing."""
        return not self.regressions and not self.missing


def compare_reports(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    memory_threshold: float = DEFAULT_MEMORY_THRESHOLD,
) -> Comparison:
    """Judge ``current`` against ``baseline`` bench by bench.

    Each :data:`GATES` metric of a bench regresses when its current
    value exceeds the baseline by more than its threshold (relative)
    *and* the baseline is above the metric's noise floor (sub-5ms
    timings are timer noise, sub-16MB peaks allocator noise).  A metric
    missing on either side is *skipped* (warn-only, never a failure);
    :func:`load_report` guarantees ``seconds``, so only memory fields
    can be missing from a loaded report.  Speedups and shrinkage never
    fail; comparing reports from different machines is allowed but the
    fingerprints are the caller's responsibility.
    """
    limits = {
        "threshold": float(threshold),
        "memory_threshold": float(memory_threshold),
    }
    for arg, limit in limits.items():
        if limit < 0:
            raise ValidationError(f"{arg} must be >= 0, got {limit}")
    base_benches = baseline["benches"]
    cur_benches = current["benches"]
    deltas = []
    skipped = []
    for name, base in base_benches.items():
        if name not in cur_benches:
            continue
        for dotted, arg, floor in GATES:
            metric = dotted.rsplit(".", 1)[-1]
            base_v = _gated_value(base, dotted)
            cur_v = _gated_value(cur_benches[name], dotted)
            if base_v is None or cur_v is None:
                skipped.append(f"{name}/{metric}")
                continue
            regressed = base_v > floor and cur_v > base_v * (1 + limits[arg])
            deltas.append(Delta(name, metric, base_v, cur_v, regressed))
    return Comparison(
        deltas=deltas,
        skipped=skipped,
        missing=sorted(set(base_benches) - set(cur_benches)),
        new=sorted(set(cur_benches) - set(base_benches)),
        threshold=limits["threshold"],
        memory_threshold=limits["memory_threshold"],
    )


def _show(metric: str, value: float) -> str:
    """One table cell: seconds as seconds, byte counts as MB."""
    if metric == "seconds":
        return f"{value:.3f}s"
    return f"{value / 1e6:.1f}MB"


def format_comparison(comparison: Comparison) -> str:
    """Human-readable comparison table plus verdict lines."""
    from repro.evaluation.tables import format_rows

    rows = [
        [
            d.name,
            d.metric,
            _show(d.metric, d.baseline),
            _show(d.metric, d.current),
            f"{d.ratio:.2f}x",
            "REGRESSED" if d.regressed else "ok",
        ]
        for d in comparison.deltas
    ]
    lines = [
        format_rows(
            ["bench", "metric", "baseline", "current", "ratio", "verdict"],
            rows,
        )
    ]
    if comparison.skipped:
        lines.append(
            "memory fields missing (compared warn-only): "
            + ", ".join(comparison.skipped)
        )
    if comparison.missing:
        lines.append(
            "missing from current report: " + ", ".join(comparison.missing)
        )
    if comparison.new:
        lines.append("new benches (no baseline): " + ", ".join(comparison.new))
    n_reg = sum(d.metric == "seconds" for d in comparison.regressions)
    n_mem = len(comparison.regressions) - n_reg
    lines.append(
        f"{n_reg} regression(s) at threshold +{comparison.threshold:.0%}, "
        f"{n_mem} memory regression(s) at "
        f"+{comparison.memory_threshold:.0%}"
        + ("" if comparison.ok else " — FAIL")
    )
    return "\n".join(lines)
