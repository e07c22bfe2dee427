"""Pluggable destinations for spans and iteration events.

Three sinks cover the common needs:

* :class:`TraceRecorder` — in-memory capture for tests and notebooks;
* :class:`JsonlSink` — one JSON object per line (``{"type": "span" |
  "iteration" | "fit_start" | "fit_end" | "trace_end", ...}``),
  machine-readable and append-friendly;
  :func:`~repro.observability.analysis.load_trace` reads it back.  The
  final ``trace_end`` line carries the trace
  name/id, the recording pid, and the trace's metrics-registry snapshot,
  so one file is enough for ``repro trace ...`` analytics and
  ``repro metrics dump --from-trace``;
* :class:`LoggingSink` — human-readable one-liners through stdlib
  ``logging`` (the CLI's ``--verbose`` wires it to stderr).

Every sink implements the :class:`~repro.observability.events.
FitCallback` protocol plus the span hook ``on_span(record)``; pass them
to :class:`~repro.observability.trace.Trace` (for span + event
streaming) or directly to a model's ``callbacks=`` (events only).
"""

from __future__ import annotations

import json
import logging
import threading

from repro.observability.events import FitCallback, IterationEvent
from repro.observability.export import _nan_to_none
from repro.observability.trace import SpanRecord


class TraceRecorder(FitCallback):
    """In-memory sink: keeps every span and event it sees."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.events: list[IterationEvent] = []
        self.fit_infos: list[dict] = []

    def on_span(self, record: SpanRecord) -> None:
        """Keep one completed span."""
        self.spans.append(record)

    def on_iteration(self, event: IterationEvent) -> None:
        """Keep one iteration event."""
        self.events.append(event)

    def on_fit_start(self, info: dict) -> None:
        """Keep the fit-start announcement."""
        self.fit_infos.append({"type": "fit_start", **info})

    def on_fit_end(self, info: dict) -> None:
        """Keep the fit-end outcome."""
        self.fit_infos.append({"type": "fit_end", **info})


class JsonlSink(FitCallback):
    """Append spans and events to a JSONL file (one object per line).

    Parameters
    ----------
    path_or_stream : str, pathlib.Path, or writable text stream
        Destination; paths are opened for writing on construction and
        closed by :meth:`close`, streams are written to but left open.
    """

    def __init__(self, path_or_stream) -> None:
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns_stream = False
        else:
            self._stream = open(path_or_stream, "w", encoding="utf-8")
            self._owns_stream = True

    def _write(self, payload: dict) -> None:
        self._stream.write(json.dumps(payload) + "\n")

    def on_span(self, record: SpanRecord) -> None:
        """Write ``{"type": "span", ...}``."""
        self._write({"type": "span", **record.to_dict()})

    def on_iteration(self, event: IterationEvent) -> None:
        """Write ``{"type": "iteration", ...}``."""
        self._write({"type": "iteration", **event.to_dict()})

    def on_fit_start(self, info: dict) -> None:
        """Write ``{"type": "fit_start", ...}``."""
        self._write({"type": "fit_start", **info})

    def on_fit_end(self, info: dict) -> None:
        """Write ``{"type": "fit_end", ...}``."""
        self._write({"type": "fit_end", **info})

    def on_trace_end(self, trace) -> None:
        """Write the closing ``{"type": "trace_end", ...}`` metadata line.

        Carries the trace name, ``trace_id``, recording ``pid``, span
        and event counts, and the metrics-registry snapshot (non-finite
        floats nulled for strict JSON) — everything a post-hoc reader
        needs that is not already on the per-span lines.
        """
        self._write(
            {
                "type": "trace_end",
                "name": trace.name,
                "trace_id": trace.trace_id,
                "pid": trace.pid,
                "n_spans": len(trace.spans),
                "n_events": len(trace.events),
                "metrics": _nan_to_none(trace.metrics.snapshot()),
            }
        )

    def close(self) -> None:
        """Flush, and close the stream if this sink opened it."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


class LoggingSink(FitCallback):
    """Human-readable per-iteration lines through stdlib ``logging``.

    Events are logged at ``logging.INFO`` to the ``repro.observability``
    logger.

    Parameters
    ----------
    stream : writable text stream, optional
        When given, a dedicated non-propagating ``StreamHandler`` is
        attached so output appears on this stream (the CLI passes
        ``sys.stderr``) without requiring global logging configuration;
        :meth:`close` detaches it and restores the logger's level and
        ``propagate`` flag.

    Per-block milliseconds come from the alternation's block spans (the
    spans that carry an ``iteration`` attribute), so they appear only
    when the sink is attached to a :class:`~repro.observability.trace.
    Trace`; as a bare model callback it logs the iteration without them.
    """

    def __init__(self, stream=None):
        self.logger = logging.getLogger("repro.observability")
        self._handler = None
        self._restore = None
        # Block seconds of the running iteration, per recording thread.
        self._blocks: dict[int, dict[str, float]] = {}
        if stream is not None:
            self._handler = logging.StreamHandler(stream)
            self._handler.setFormatter(logging.Formatter("%(message)s"))
            self._restore = (self.logger.level, self.logger.propagate)
            self.logger.addHandler(self._handler)
            level = self.logger.level or logging.INFO
            self.logger.setLevel(min(level, logging.INFO))
            self.logger.propagate = False

    def on_span(self, record: SpanRecord) -> None:
        """Add one alternation block's time to its thread's iteration."""
        if "iteration" in record.attributes:
            blocks = self._blocks.setdefault(record.thread, {})
            seconds = blocks.get(record.name, 0.0) + record.duration
            blocks[record.name] = seconds

    def on_fit_start(self, info: dict) -> None:
        """Log the solver/problem announcement."""
        solver = info.get("solver", "?")
        rest = ", ".join(
            f"{k}={v}" for k, v in info.items() if k != "solver"
        )
        self.logger.log(logging.INFO, "[%s] fit start: %s", solver, rest)

    def on_iteration(self, event: IterationEvent) -> None:
        """Log one compact line per outer iteration."""
        obj = (
            f"{event.objective:.6f}" if event.objective is not None else "-"
        )
        rel = (
            f"{event.rel_change:.2e}" if event.rel_change is not None else "-"
        )
        blocks = " ".join(
            f"{name}={seconds * 1e3:.1f}ms"
            for name, seconds in self._blocks.pop(
                threading.get_ident(), {}
            ).items()
        )
        extras = []
        if event.gpi_iterations is not None:
            extras.append(f"gpi={event.gpi_iterations}")
        if event.label_moves is not None:
            extras.append(f"moves={event.label_moves}")
        if len(event.view_weights):
            weights = "/".join(f"{w:.3f}" for w in event.view_weights)
            extras.append(f"w={weights}")
        self.logger.log(
            logging.INFO,
            "[%s] iter %d: obj=%s rel=%s %s %s",
            event.solver,
            event.iteration,
            obj,
            rel,
            blocks,
            " ".join(extras),
        )

    def on_fit_end(self, info: dict) -> None:
        """Log the fit outcome."""
        solver = info.get("solver", "?")
        rest = ", ".join(
            f"{k}={v}" for k, v in info.items() if k != "solver"
        )
        self.logger.log(logging.INFO, "[%s] fit end: %s", solver, rest)

    def close(self) -> None:
        """Detach the handler this sink attached (if any) and restore
        the logger's level and ``propagate`` flag."""
        if self._handler is not None:
            self.logger.removeHandler(self._handler)
            self._handler = None
            self.logger.setLevel(self._restore[0])
            self.logger.propagate = self._restore[1]
