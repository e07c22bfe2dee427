"""Solver instrumentation: traces, per-block timings, iteration diagnostics.

The paper's headline claims — monotone one-stage descent at a cost
comparable to the two-stage pipeline — are only checkable with
per-iteration data.  This subsystem provides it in three layers:

* :mod:`repro.observability.trace` — a span/timer API with a
  context-scoped active trace and a true no-op fast path when
  disabled, so the solver hot paths can stay instrumented permanently;
* :mod:`repro.observability.metrics` — a counters/histograms registry
  attached to every trace (GPI inner iterations, Y-step moves,
  eigensolver calls);
* :mod:`repro.observability.events` / :mod:`repro.observability.sinks`
  — a :class:`FitCallback` protocol carrying one structured
  :class:`IterationEvent` per outer solver iteration, with pluggable
  sinks (in-memory recorder, JSONL file writer, stdlib-``logging``);
* :mod:`repro.observability.export` — Prometheus-text and JSON
  renderers for any :class:`MetricsRegistry` (the serving ``/metrics``
  endpoint and ``repro metrics dump`` are built on these);
* :mod:`repro.observability.resource` — a background RSS / CPU-time
  sampler (:class:`ResourceSampler`) attachable to fits, experiment
  runs, benchmarks, and the serving process;
* :mod:`repro.observability.analysis` — offline trace analytics over
  the JSONL sink format: hotspot tables (self/cumulative time),
  critical-path extraction, Chrome trace-event export (the ``repro
  trace`` CLI commands);
* :mod:`repro.observability.profiling` — opt-in deterministic cProfile
  capture on the designated hot spans (:func:`hot_span` /
  :class:`use_profiling`), dormant at the cost of one context lookup;
* :mod:`repro.observability.memory` — opt-in tracemalloc metering of
  the same hot spans (:class:`use_memory_tracking`): per-phase
  allocation deltas and peaks, persisted per bench by the regression
  tracker;
* :mod:`repro.observability.health` — a declarative SLO/alert rules
  engine (:class:`HealthRule` / :func:`evaluate_rules` /
  :func:`default_rule_pack`) judging any registry snapshot, live on the
  serving ``/healthz`` endpoint and offline via ``repro health check``.

Spans carry correlation identity — a per-trace ``trace_id``, a
``span_id`` / ``parent_id`` ancestry chain, wall-clock ``timestamp``
alongside the monotonic duration, and an ambient ``request_id``
(:class:`use_request`) that the serving layer threads from ``submit``
through batch coalescing into prediction and recovery events.

Tracing is **off by default** and observably zero-impact on results:
with no active trace every ``span(...)`` returns a shared no-op handle,
and fitted labels / objective histories are bit-identical with tracing
on or off (a tier-1 regression test asserts this).

See ``docs/observability.md`` for the span API, the event schema, sink
configuration, and how to read a profile.
"""

from repro.observability.analysis import (
    Hotspot,
    PathStep,
    TraceData,
    critical_path,
    hotspot_summary,
    load_trace,
    metrics_snapshot,
    to_chrome_trace,
)
from repro.observability.events import (
    FitCallback,
    FitDiagnostics,
    IterationEvent,
    dispatch_event,
)
from repro.observability.health import (
    HealthMonitor,
    HealthReport,
    HealthRule,
    RuleResult,
    default_rule_pack,
    evaluate_rule,
    evaluate_rules,
    load_rules,
    resolve_metric,
    rules_to_dicts,
    weight_entropy,
)
from repro.observability.memory import (
    MemorySession,
    current_memory,
    use_memory_tracking,
)
from repro.observability.export import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_name,
    render_json_snapshot,
    render_prometheus_snapshot,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.resource import (
    ResourceSample,
    ResourceSampler,
    read_cpu_seconds,
    read_rss_bytes,
)
from repro.observability.profiling import (
    ProfilingSession,
    current_profiling,
    use_profiling,
)
from repro.observability.sinks import (
    JsonlSink,
    LoggingSink,
    TraceRecorder,
    read_jsonl,
)
from repro.observability.trace import (
    SpanRecord,
    Trace,
    current_request_id,
    current_trace,
    hot_span,
    metric_inc,
    metric_observe,
    metric_set,
    new_id,
    span,
    use_request,
    use_trace,
)

__all__ = [
    "Counter",
    "FitCallback",
    "FitDiagnostics",
    "Gauge",
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "Histogram",
    "Hotspot",
    "IterationEvent",
    "JsonlSink",
    "LoggingSink",
    "MemorySession",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "PathStep",
    "ProfilingSession",
    "ResourceSample",
    "ResourceSampler",
    "RuleResult",
    "SpanRecord",
    "Trace",
    "TraceData",
    "TraceRecorder",
    "critical_path",
    "current_memory",
    "current_profiling",
    "current_request_id",
    "current_trace",
    "default_rule_pack",
    "dispatch_event",
    "evaluate_rule",
    "evaluate_rules",
    "hot_span",
    "hotspot_summary",
    "load_rules",
    "load_trace",
    "metric_inc",
    "metric_observe",
    "metric_set",
    "metrics_snapshot",
    "new_id",
    "prometheus_name",
    "read_cpu_seconds",
    "read_jsonl",
    "read_rss_bytes",
    "render_json_snapshot",
    "render_prometheus_snapshot",
    "resolve_metric",
    "rules_to_dicts",
    "span",
    "to_chrome_trace",
    "use_memory_tracking",
    "use_profiling",
    "use_request",
    "use_trace",
    "weight_entropy",
]
