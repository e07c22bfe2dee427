"""Trace analytics: hotspot tables, critical paths, Chrome-trace export.

A JSONL trace (the :class:`~repro.observability.sinks.JsonlSink` format,
as written by ``repro run --trace`` or any
:class:`~repro.observability.trace.Trace` wired to a sink — including a
:class:`~repro.serving.service.PredictionService` session) answers three
operator questions once the spans carry correlation ids:

* **Where did the time go?** — :func:`hotspot_summary` aggregates
  per-span-name *cumulative* time (the span's own wall clock) and
  *self* time (cumulative minus direct children), the table ROADMAP's
  pluggable-backend work reads to decide which kernels to rewrite.
* **What was the longest dependent chain?** — :func:`critical_path`
  walks from a root span (a fit, or one served batch) down its
  longest-child chain; shaving anything off the path shortens the run,
  shaving anything else does not.
* **Can I look at it?** — :func:`to_chrome_trace` renders the spans as
  Chrome trace events (the JSON loaded by Perfetto / ``chrome://
  tracing``), one lane per recording thread, with flow arrows for
  span links (a serving batch to its coalesced requests).

Everything operates on :class:`TraceData`, the parsed form of one JSONL
file returned by :func:`load_trace`; failures surface as
:class:`~repro.exceptions.TraceFileError` (a
:class:`~repro.exceptions.ReproError`), never a bare ``OSError`` or
``json`` traceback.  The ``repro trace {summary,critical-path,export}``
CLI commands are thin wrappers over this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.exceptions import TraceFileError


@dataclass(frozen=True)
class TraceData:
    """One parsed JSONL trace file.

    Attributes
    ----------
    spans : list of dict
        The ``{"type": "span", ...}`` records, file order (completion
        order within one process).
    iterations : list of dict
        The ``{"type": "iteration", ...}`` records.
    meta : dict or None
        The closing ``trace_end`` record (trace name/id, pid, metrics
        snapshot), when the writer emitted one.
    path : str
        Where the trace was read from (for error messages).
    """

    spans: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    meta: dict | None = None
    path: str = ""

    @property
    def trace_ids(self) -> list:
        """Distinct ``trace_id`` values seen on spans (sorted)."""
        return sorted({s.get("trace_id", "") for s in self.spans})


@dataclass(frozen=True)
class Hotspot:
    """One span name's aggregate in a hotspot table.

    ``total_seconds`` is cumulative (a parent's total includes its
    children's); ``self_seconds`` subtracts direct children, so self
    times across all names sum to ~the traced wall clock and rank the
    names a kernel rewrite would actually help.
    """

    name: str
    count: int
    total_seconds: float
    self_seconds: float

    @property
    def mean_seconds(self) -> float:
        """Average cumulative seconds per call."""
        return self.total_seconds / self.count if self.count else 0.0


@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path: a span and its on-path self time."""

    name: str
    span_id: str
    duration_seconds: float
    self_seconds: float
    depth: int
    attributes: dict = field(default_factory=dict)


def load_trace(path) -> TraceData:
    """Parse one JSONL trace file.

    Raises
    ------
    TraceFileError
        The file is missing/unreadable, a line is not valid JSON, a
        record is not an object with a ``type`` key, or the file
        contains no span records at all.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            lines = stream.readlines()
    except OSError as exc:
        raise TraceFileError(f"cannot read trace file {path}: {exc}") from exc
    spans: list = []
    iterations: list = []
    meta: dict | None = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFileError(
                f"{path}:{lineno} is not valid JSON ({exc}); expected one "
                f"JSONL trace record per line"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TraceFileError(
                f"{path}:{lineno} is not a trace record (JSON object with "
                f"a 'type' key)"
            )
        if record["type"] == "span":
            spans.append(record)
        elif record["type"] == "iteration":
            iterations.append(record)
        elif record["type"] == "trace_end":
            meta = record
    if not spans:
        raise TraceFileError(
            f"{path} contains no span records; was it written by a "
            f"JsonlSink-backed trace (repro run --trace / a traced "
            f"PredictionService session)?"
        )
    return TraceData(
        spans=spans, iterations=iterations, meta=meta, path=str(path)
    )


def _child_durations(spans) -> dict:
    """``{parent span_id: summed direct-child seconds}`` over ``spans``."""
    totals: dict = {}
    for s in spans:
        parent_id = s.get("parent_id")
        if parent_id:
            totals[parent_id] = totals.get(parent_id, 0.0) + float(
                s.get("duration", 0.0)
            )
    return totals


def hotspot_summary(trace: TraceData) -> list:
    """Per-span-name hotspot rows, ranked by self time (descending).

    Self time needs the structural ``parent_id`` links; spans from a
    pre-identity writer (no ``span_id``) degrade gracefully — their
    self time equals their cumulative time.
    """
    children = _child_durations(trace.spans)
    stats: dict = {}
    for s in trace.spans:
        duration = float(s.get("duration", 0.0))
        own = duration - children.get(s.get("span_id") or "", 0.0)
        count, total, self_total = stats.get(s["name"], (0, 0.0, 0.0))
        stats[s["name"]] = (
            count + 1,
            total + duration,
            self_total + max(own, 0.0),
        )
    rows = [
        Hotspot(
            name=name,
            count=count,
            total_seconds=total,
            self_seconds=self_total,
        )
        for name, (count, total, self_total) in stats.items()
    ]
    rows.sort(key=lambda r: (-r.self_seconds, -r.total_seconds, r.name))
    return rows


def critical_path(trace: TraceData, *, root: str | None = None) -> list:
    """The longest dependent chain through one rooted span tree.

    Parameters
    ----------
    trace : TraceData
        The parsed trace.
    root : str, optional
        Span *name* to root the walk at (e.g. ``"serving.batch"`` for
        one served batch); the longest-duration span with that name is
        chosen.  Default: the longest-duration top-level span (no
        ``parent_id`` in the file).

    Returns
    -------
    list of PathStep
        Root first; each step's ``self_seconds`` is its duration minus
        the on-path child's, so the steps sum to the root's duration.

    Raises
    ------
    TraceFileError
        ``root`` names a span that never completed in this trace.
    """
    spans = trace.spans
    if root is not None:
        candidates = [s for s in spans if s["name"] == root]
        if not candidates:
            names = sorted({s["name"] for s in spans})
            raise TraceFileError(
                f"no span named {root!r} in {trace.path}; recorded names: "
                f"{', '.join(names)}"
            )
    else:
        candidates = [s for s in spans if not s.get("parent_id")]
    start = max(candidates, key=lambda s: float(s.get("duration", 0.0)))
    by_parent: dict = {}
    for s in spans:
        parent_id = s.get("parent_id")
        if parent_id:
            by_parent.setdefault(parent_id, []).append(s)
    path = []
    node = start
    depth = 0
    while True:
        kids = by_parent.get(node.get("span_id") or "", [])
        longest = (
            max(kids, key=lambda s: float(s.get("duration", 0.0)))
            if kids
            else None
        )
        duration = float(node.get("duration", 0.0))
        on_path_child = (
            float(longest.get("duration", 0.0)) if longest is not None else 0.0
        )
        path.append(
            PathStep(
                name=node["name"],
                span_id=node.get("span_id", ""),
                duration_seconds=duration,
                self_seconds=max(duration - on_path_child, 0.0),
                depth=depth,
                attributes=dict(node.get("attributes", {})),
            )
        )
        if longest is None:
            return path
        node = longest
        depth += 1


def to_chrome_trace(trace: TraceData) -> dict:
    """The spans as a Chrome trace-event document (Perfetto-loadable).

    One complete event (``"ph": "X"``) per span — timestamps prefer the
    wall-clock ``timestamp`` (so traces from different processes align)
    and fall back to the monotonic ``start`` for pre-identity records —
    plus flow arrows (``"s"``/``"f"``) for each recorded span link and a
    ``process_name`` metadata event from the trace's ``trace_end`` line.
    All times are microseconds, per the trace-event spec.
    """
    meta = trace.meta or {}
    pid = int(meta.get("pid", 0))
    events = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": meta.get("name", trace.path or "trace")},
        }
    ]
    by_id: dict = {}
    for s in trace.spans:
        if s.get("span_id"):
            by_id[s["span_id"]] = s

    def _ts(s: dict) -> float:
        wall = float(s.get("timestamp", 0.0))
        base = wall if wall > 0.0 else float(s.get("start", 0.0))
        return base * 1e6

    for s in trace.spans:
        args = dict(s.get("attributes", {}))
        for key in ("trace_id", "span_id", "parent_id", "request_id"):
            if s.get(key):
                args[key] = s[key]
        if s.get("links"):
            args["links"] = list(s["links"])
        events.append(
            {
                "ph": "X",
                "cat": "span",
                "name": s["name"],
                "ts": _ts(s),
                "dur": float(s.get("duration", 0.0)) * 1e6,
                "pid": pid,
                "tid": int(s.get("thread", 0)),
                "args": args,
            }
        )
    # Flow arrows: one per undirected link pair, drawn from the earlier
    # span to the later one so Perfetto renders batch/request causality.
    seen: set = set()
    flow_id = 0
    for s in trace.spans:
        for target_id in s.get("links", ()):
            other = by_id.get(target_id)
            if other is None:
                continue
            pair = frozenset((s.get("span_id", ""), target_id))
            if pair in seen:
                continue
            seen.add(pair)
            src, dst = (s, other) if _ts(s) <= _ts(other) else (other, s)
            flow_id += 1
            common = {"cat": "flow", "name": "link", "id": flow_id, "pid": pid}
            events.append(
                {
                    "ph": "s",
                    "ts": _ts(src),
                    "tid": int(src.get("thread", 0)),
                    **common,
                }
            )
            events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "ts": max(_ts(dst), _ts(src)),
                    "tid": int(dst.get("thread", 0)),
                    **common,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def metrics_snapshot(trace: TraceData) -> dict:
    """The metrics-registry snapshot embedded in the trace file.

    Raises
    ------
    TraceFileError
        The file has no ``trace_end`` metrics line (written by a
        pre-snapshot version of the JSONL sink, or truncated).
    """
    if trace.meta is None or "metrics" not in trace.meta:
        raise TraceFileError(
            f"{trace.path} carries no metrics snapshot (no trace_end "
            f"record); re-record it with a current JsonlSink, or dump "
            f"metrics from a live run instead"
        )
    return trace.meta["metrics"]
