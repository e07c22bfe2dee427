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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Counter": "metrics",
    "FitCallback": "events",
    "FitDiagnostics": "events",
    "Gauge": "metrics",
    "HealthMonitor": "health",
    "HealthReport": "health",
    "HealthRule": "health",
    "Histogram": "metrics",
    "Hotspot": "analysis",
    "IterationEvent": "events",
    "JsonlSink": "sinks",
    "LoggingSink": "sinks",
    "MemorySession": "memory",
    "MetricsRegistry": "metrics",
    "PROMETHEUS_CONTENT_TYPE": "export",
    "PathStep": "analysis",
    "ProfilingSession": "profiling",
    "ResourceSample": "resource",
    "ResourceSampler": "resource",
    "RuleResult": "health",
    "SpanRecord": "trace",
    "Trace": "trace",
    "TraceData": "analysis",
    "TraceRecorder": "sinks",
    "critical_path": "analysis",
    "current_memory": "memory",
    "current_profiling": "profiling",
    "current_request_id": "trace",
    "current_trace": "trace",
    "default_rule_pack": "health",
    "dispatch_event": "events",
    "evaluate_rule": "health",
    "evaluate_rules": "health",
    "hot_span": "trace",
    "hotspot_summary": "analysis",
    "load_rules": "health",
    "load_trace": "analysis",
    "metric_inc": "trace",
    "metric_observe": "trace",
    "metric_set": "trace",
    "metrics_snapshot": "analysis",
    "new_id": "trace",
    "prometheus_name": "export",
    "read_cpu_seconds": "resource",
    "read_rss_bytes": "resource",
    "render_json_snapshot": "export",
    "render_prometheus_snapshot": "export",
    "resolve_metric": "health",
    "span": "trace",
    "to_chrome_trace": "analysis",
    "use_memory_tracking": "memory",
    "use_profiling": "profiling",
    "use_request": "trace",
    "use_trace": "trace",
})
