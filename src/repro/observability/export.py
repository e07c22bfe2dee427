"""Render a :class:`~repro.observability.metrics.MetricsRegistry` snapshot.

Both renderers take a ``MetricsRegistry.snapshot()`` — a live registry's
or one recovered from a trace file — and cover scraping and archival:

* :func:`render_prometheus_snapshot` — the Prometheus text exposition format
  (``text/plain; version=0.0.4``): counters as ``*_total``, gauges
  verbatim, histograms as summaries with ``quantile`` labels plus
  ``*_sum`` / ``*_count``.  This is what the serving ``/metrics``
  endpoint serves.
* :func:`render_json_snapshot` — the snapshot as a JSON document
  (counters / gauges / histogram summaries with quantiles), for log
  shipping and the ``BENCH_*.json`` perf tracker.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names
(``serving.queue_depth``) become underscore names prefixed with the
library namespace (``repro_serving_queue_depth``).

Examples
--------
>>> from repro.observability.metrics import MetricsRegistry
>>> registry = MetricsRegistry()
>>> registry.counter("eigsh.calls").inc(3)
>>> print(render_prometheus_snapshot(registry.snapshot()), end="")
# TYPE repro_eigsh_calls_total counter
repro_eigsh_calls_total 3
"""

from __future__ import annotations

import json
import math
import re

#: Content type the Prometheus text format should be served under.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantile levels exported for every histogram summary.
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_DIGIT = re.compile(r"^[0-9]")


def prometheus_name(name: str, *, prefix: str = "repro") -> str:
    """Map a dotted registry name onto the Prometheus metric grammar.

    >>> prometheus_name("serving.queue_depth")
    'repro_serving_queue_depth'
    """
    flat = _INVALID_CHARS.sub("_", name)
    if prefix:
        flat = f"{prefix}_{flat}"
    if _LEADING_DIGIT.match(flat):
        flat = f"_{flat}"
    return flat


def _format_value(value: float) -> str:
    """One sample value in Prometheus text syntax (NaN / +Inf aware)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_json_snapshot(snapshot: dict, *, indent: int | None = 2) -> str:
    """A registry snapshot (``MetricsRegistry.snapshot()`` shape, live or
    the ``metrics`` payload of a JSONL trace's ``trace_end`` line) as a
    JSON document.

    Non-finite values (an empty histogram's ``min``) are serialized as
    ``null`` so the output is strict JSON any consumer can parse.
    """
    return json.dumps(_nan_to_none(snapshot), indent=indent)


def render_prometheus_snapshot(snapshot: dict, *, prefix: str = "repro") -> str:
    """A registry snapshot in Prometheus text exposition format.

    Counters render with the conventional ``_total`` suffix, gauges as
    plain samples, and histograms as Prometheus *summaries*: their
    ``p50``/``p90``/``p95``/``p99`` levels as ``quantile`` samples
    (skipped when empty) plus the exact ``_sum`` / ``_count`` series.
    ``None`` values (non-finite floats scrubbed at write time) render
    as ``NaN``.  Families are emitted in sorted-name order so output is
    stable for golden tests.
    """
    def value_of(raw) -> str:
        return _format_value(float("nan") if raw is None else raw)

    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        flat = prometheus_name(name, prefix=prefix) + "_total"
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {value_of(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        flat = prometheus_name(name, prefix=prefix)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {value_of(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        flat = prometheus_name(name, prefix=prefix)
        lines.append(f"# TYPE {flat} summary")
        if hist.get("count"):
            for q in SUMMARY_QUANTILES:
                level = hist.get(f"p{100.0 * q:g}")
                if level is not None:
                    lines.append(
                        f'{flat}{{quantile="{q:g}"}} {value_of(level)}'
                    )
        lines.append(f"{flat}_sum {value_of(hist.get('total', 0.0))}")
        lines.append(f"{flat}_count {int(hist.get('count', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def _nan_to_none(payload):
    """Deep-copy ``payload`` with non-finite floats replaced by None."""
    if isinstance(payload, dict):
        return {k: _nan_to_none(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_nan_to_none(v) for v in payload]
    if isinstance(payload, float) and not math.isfinite(payload):
        return None
    return payload
