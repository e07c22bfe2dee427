"""Thread-based micro-batching prediction service.

Per-request inference wastes the predictor's vectorization: a single
query pays the same Python/GEMM dispatch overhead as a whole batch.
:class:`PredictionService` recovers batch efficiency under a
request/response API by *micro-batching*: clients ``submit`` one sample
at a time and get a :class:`~concurrent.futures.Future` back.  A worker
thread batches while busy: it sleeps until a request is pending, then
takes every queued request (up to ``max_batch``) at once, runs ONE
batched :meth:`~repro.serving.predictor.Predictor.predict`, and fans
the labels back out to the per-request futures.  Requests that arrive
during that predict form the next batch, so batches fill under load,
while a request that finds the worker idle is predicted at once.

Operational properties:

* **Backpressure** — the request queue is bounded; ``submit`` on a full
  queue raises :class:`~repro.exceptions.ServiceOverloadedError`
  immediately instead of buffering unboundedly.
* **Graceful shutdown** — :meth:`close` stops accepting, drains every
  queued request through the normal batch path, then joins the worker;
  submitting afterwards raises
  :class:`~repro.exceptions.ServiceClosedError`.
* **Observability** — the service owns a
  :class:`~repro.observability.metrics.MetricsRegistry` (``.metrics``),
  its one ledger: ``serving.submitted`` / ``serving.completed`` /
  ``serving.rejected`` counters, per-request queue-wait and end-to-end
  latency histograms, batch-size and batch-time histograms,
  and a live queue-depth gauge.  :meth:`~PredictionService.stats`
  reads it, and ``telemetry_port=`` starts a localhost HTTP thread
  serving it as ``/metrics`` (Prometheus text), ``/healthz``
  (rule-aware readiness), and ``/stats`` (JSON) — see
  :mod:`repro.serving.telemetry`.
* **Tracing** — everything the service sends to a trace goes to the
  trace active when the service was *constructed*, whichever thread
  submits: the ``serving.submitted`` / ``serving.rejected`` counters
  and the ``serving.queue_depth`` / ``serving.batch_size`` histograms
  (a batch's time is its ``serving.batch`` span).  The worker runs in
  a snapshot of the construction-time context, so traces, caches,
  failure policies, and armed fault plans all apply to the batched
  predicts.
  Under that trace the service is also *request-correlated*: every
  ``submit`` gets a ``request_id`` and a ``serving.request`` span
  covering submit→resolution, each ``serving.batch`` span links to the
  ``span_id``s of the requests it coalesced, and recovery events fired
  during the batched predict carry the joined request ids — one
  ``trace_id`` joins a request's whole path end to end.
* **Determinism** — batch composition depends on arrival timing, but
  the predictor's per-query independence makes every result identical
  to a serial ``predict`` of that sample, whatever batch it rode in.

Examples
--------
>>> import numpy as np
>>> from repro.serving import ModelArtifact, Predictor, PredictionService
>>> art = ModelArtifact(
...     model_class="UnifiedMVSC",
...     train_views=[np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 9])],
...     train_labels=np.repeat([0, 1], 5),
...     view_weights=np.array([1.0]),
...     n_clusters=2,
... )
>>> with PredictionService(Predictor(art)) as service:
...     future = service.submit([np.array([8.8, 9.1])])
...     future.result(timeout=5.0)
1
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import (
    SpanRecord,
    current_trace,
    new_id,
    span,
    use_request,
)
from repro.serving.predictor import Predictor


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time request/batch counters of one service.

    The counts and latencies are read from the service's
    :attr:`~PredictionService.metrics` registry, the one ``/metrics``
    serves.

    Attributes
    ----------
    submitted : int
        Requests accepted by :meth:`~PredictionService.submit`.
    completed : int
        Requests whose future was resolved (result or exception).
    rejected : int
        Requests refused with :class:`~repro.exceptions.
        ServiceOverloadedError`.
    batches : int
        Batched predict calls issued.
    max_batch_size : int
        Largest batch so far.
    uptime_seconds : float
        Seconds since the service was constructed (monotonic clock).
    latency_p50 / latency_p95 / latency_p99 : float or None
        End-to-end request-latency percentiles in seconds, from the
        ``serving.request_seconds`` histogram (exact below the
        histogram's reservoir cap — the same percentile view
        ``/metrics`` exposes); ``None`` before the first completed
        request.
    """

    submitted: int
    completed: int
    rejected: int
    batches: int
    max_batch_size: int
    queue_depth: int = 0
    uptime_seconds: float = 0.0
    latency_p50: float | None = None
    latency_p95: float | None = None
    latency_p99: float | None = None

    @property
    def mean_batch_size(self) -> float:
        """Average requests per batch (``nan`` before the first batch)."""
        return self.completed / self.batches if self.batches else float("nan")

    def to_dict(self) -> dict:
        """JSON-ready representation (served by the ``/stats`` endpoint).

        The ``uptime_seconds`` and ``latency_p*`` keys are additive on
        top of the original schema; existing keys are unchanged.
        """
        mean = self.mean_batch_size
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "queue_depth": self.queue_depth,
            "mean_batch_size": None if self.batches == 0 else mean,
            "uptime_seconds": self.uptime_seconds,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
        }


class _Request:
    """One enqueued sample: its per-view rows and the result future."""

    __slots__ = (
        "rows",
        "future",
        "submitted_at",
        "request_id",
        "span_id",
        "submitted_wall",
        "thread",
    )

    def __init__(self, rows: list) -> None:
        self.rows = rows
        self.future: Future = Future()
        self.submitted_at = 0.0
        # Trace identity, populated by submit() only when the service
        # was constructed under an active trace.
        self.request_id: str | None = None
        self.span_id: str | None = None
        self.submitted_wall = 0.0
        self.thread = 0


class PredictionService:
    """Micro-batching request queue over a :class:`Predictor`.

    Parameters
    ----------
    predictor : Predictor
        The batched inductive classifier answering requests.
    max_batch : int
        Most queued requests taken into one predict call.
    max_queue : int
        Bound on queued (not yet batched) requests; the backpressure
        knob.
    telemetry_port : int or None
        When given, start a :class:`~repro.serving.telemetry.
        TelemetryServer` exposing ``/metrics`` (Prometheus text),
        ``/healthz`` (rule-aware readiness), and ``/stats`` (JSON) on
        ``127.0.0.1:port`` (``0`` picks a free port; see
        :attr:`telemetry_url`).
    """

    def __init__(
        self,
        predictor: Predictor,
        *,
        max_batch: int = 32,
        max_queue: int = 1024,
        telemetry_port: int | None = None,
    ) -> None:
        if not isinstance(predictor, Predictor):
            raise ValidationError(
                f"predictor must be a Predictor, got "
                f"{type(predictor).__name__}"
            )
        if int(max_batch) < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if int(max_queue) < 1:
            raise ValidationError(f"max_queue must be >= 1, got {max_queue}")
        self.predictor = predictor
        # The view schema is fixed for the predictor's lifetime (adapt
        # grows the training set, never the views), so read it once.
        self._view_dims = predictor.artifact.view_dims
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        # Queued (not yet batched) requests.  One lock guards them and
        # ``_closed``; the worker waits on ``_ready`` for either to change.
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False
        # The trace mirror and request-correlated tracing bind to the
        # trace active at construction (same snapshot the worker thread
        # runs in); with no trace the request-span bookkeeping is skipped.
        self._trace = current_trace()
        self._started = time.perf_counter()
        self.metrics = MetricsRegistry()
        # Pre-register the runtime families so a scrape sees them (with
        # zero counts) even before the first request lands.
        self.metrics.gauge("serving.queue_depth")
        for name in (
            "serving.queue_wait_seconds",
            "serving.request_seconds",
            "serving.batch_size",
            "serving.batch_seconds",
        ):
            self.metrics.histogram(name)
        context = contextvars.copy_context()
        self._worker = threading.Thread(
            target=lambda: context.run(self._serve_loop),
            name="repro-prediction-service",
            daemon=True,
        )
        self._worker.start()
        self._telemetry_server = None
        if telemetry_port is not None:
            from repro.serving.telemetry import TelemetryServer

            self._telemetry_server = TelemetryServer(
                self, port=telemetry_port
            )

    # -- client side -------------------------------------------------------

    def submit(self, sample_views, *, request_id: str | None = None) -> Future:
        """Enqueue one sample; returns the future of its label.

        Parameters
        ----------
        sample_views : sequence of ndarray
            One array per view, shape ``(d_v,)`` or ``(1, d_v)``, in the
            model's view order.
        request_id : str, optional
            Correlation id recorded on the request's trace span (and on
            any recovery events its batch fires).  Defaults to a fresh
            id; only meaningful when the service was constructed under
            an active trace (otherwise ignored — the disabled path does
            no id bookkeeping).

        Returns
        -------
        concurrent.futures.Future
            Resolves to the sample's cluster label (int), or to the
            exception its batch raised.

        Raises
        ------
        ServiceClosedError
            The service has been closed.
        ServiceOverloadedError
            The bounded queue is full (backpressure; retry later).
        """
        rows = self._check_sample(sample_views)
        request = _Request(rows)
        if self._trace is not None:
            request.request_id = request_id or new_id()
            request.span_id = new_id()
            request.submitted_wall = time.time()
            request.thread = threading.get_ident()
        request.submitted_at = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "prediction service is closed; no new requests accepted"
                )
            # Counting the request before it is queued keeps
            # stats().completed <= stats().submitted.
            if len(self._pending) >= self.max_queue:
                self.metrics.counter("serving.rejected").inc()
                self._mirror("counter", "serving.rejected", 1)
                raise ServiceOverloadedError(
                    f"prediction queue is full ({self.max_queue} requests "
                    f"pending); retry later or raise max_queue"
                )
            self.metrics.counter("serving.submitted").inc()
            self._mirror("counter", "serving.submitted", 1)
            self._pending.append(request)
            depth = len(self._pending)
            self._ready.notify()
        self.metrics.gauge("serving.queue_depth").set(depth)
        # A gauge in the registry, a distribution in the trace.
        self._mirror("histogram", "serving.queue_depth", depth)
        return request.future

    def predict_one(self, sample_views, *, timeout: float | None = 30.0):
        """Blocking convenience: :meth:`submit` and wait for the label."""
        return self.submit(sample_views).result(timeout=timeout)

    def stats(self) -> ServiceStats:
        """Current :class:`ServiceStats`, read from :attr:`metrics`."""
        counters = self.metrics.counters
        histograms = self.metrics.histograms

        def count(name: str) -> int:
            counter = counters.get(name)
            return 0 if counter is None else int(counter.value)

        # Read before ``submitted``: a request is counted as submitted
        # before it can complete, so the snapshot never shows more
        # completed than submitted.
        completed = count("serving.completed")
        sizes = histograms["serving.batch_size"]
        # ``max`` is nan before the first batch (and -inf for an
        # instant while one is being recorded); batch sizes are >= 1.
        peak = sizes.max
        latency = histograms["serving.request_seconds"]
        p50 = p95 = p99 = None
        if latency.count:
            p50 = latency.percentile(50)
            p95 = latency.percentile(95)
            p99 = latency.percentile(99)
        return ServiceStats(
            submitted=count("serving.submitted"),
            completed=completed,
            rejected=count("serving.rejected"),
            batches=sizes.count,
            max_batch_size=int(peak) if peak >= 1 else 0,
            queue_depth=len(self._pending),
            uptime_seconds=time.perf_counter() - self._started,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
        )

    @property
    def draining(self) -> bool:
        """Whether :meth:`close` has begun but queued work remains."""
        return self._closed and self._worker.is_alive()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def telemetry_url(self) -> str | None:
        """Base URL of the telemetry endpoints (None when disabled)."""
        if self._telemetry_server is None:
            return None
        return self._telemetry_server.url

    def close(self, *, timeout: float | None = None) -> None:
        """Stop accepting requests, drain the queue, join the worker.

        Every request accepted before the close completes normally (its
        future resolves through the usual batch path).  Idempotent.
        """
        with self._lock:
            self._closed = True
            self._ready.notify()
        self._worker.join(timeout=timeout)
        if self._telemetry_server is not None:
            # Kept up through the drain so /healthz can report it;
            # stopped only once the worker is done.
            self._telemetry_server.close()
            self._telemetry_server = None

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- worker side -------------------------------------------------------

    def _check_sample(self, sample_views) -> list:
        """Validate one sample's per-view rows; returns ``(1, d_v)`` rows.

        Finiteness is one pass over all views; only a failing sample
        pays for the per-view pass that names the offending view.
        """
        dims = self._view_dims
        try:
            seq = list(sample_views)
        except TypeError as exc:
            raise ValidationError(
                "sample_views must be a sequence with one array per view"
            ) from exc
        if len(seq) != len(dims):
            raise ValidationError(
                f"model has {len(dims)} views but the sample has "
                f"{len(seq)} views"
            )
        rows = []
        for v, (x, d) in enumerate(zip(seq, dims)):
            arr = np.asarray(x, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr[None, :]
            if arr.shape != (1, d):
                raise ValidationError(
                    f"sample view {v} must have shape ({d},) or (1, {d}), "
                    f"got {np.asarray(x).shape}"
                )
            rows.append(arr)
        if not np.isfinite(np.concatenate(rows, axis=1)).all():
            for v, arr in enumerate(rows):
                if not np.isfinite(arr).all():
                    raise ValidationError(
                        f"sample view {v} contains NaN or Inf entries"
                    )
        return rows

    def _serve_loop(self) -> None:
        """Take every queued request (up to ``max_batch``), predict, fan
        out; once closed, drain the queue and return."""
        pending = self._pending
        while True:
            with self._lock:
                while not pending and not self._closed:
                    self._ready.wait()
                if not pending:
                    return
                batch = [
                    pending.popleft()
                    for _ in range(min(len(pending), self.max_batch))
                ]
            self._run_batch(batch)

    def _mirror(self, kind: str, name: str, value: float) -> None:
        """Write one metric to the trace active at construction, if any.

        Every trace-side write of the service goes through here, from
        client and worker threads alike, so it lands on ``self._trace``
        rather than on the calling thread's context.  ``kind`` is
        ``"counter"`` (add ``value``) or ``"histogram"`` (observe it).
        """
        if self._trace is not None:
            metrics = self._trace.metrics
            if kind == "counter":
                metrics.counter(name).inc(value)
            else:
                metrics.histogram(name).observe(value)

    def _count_batch(self, size: int) -> None:
        """Count a batch's completions before any of its futures resolve,
        so a caller holding a label always sees it in :meth:`stats`."""
        self.metrics.histogram("serving.batch_size").observe(size)
        self.metrics.counter("serving.completed").inc(size)
        self._mirror("histogram", "serving.batch_size", size)

    def _run_batch(self, batch: list) -> None:
        """One batched predict; resolve every request's future."""
        traced = self._trace is not None
        batch_failed = False
        tick = time.perf_counter()
        # Under a trace, link the batch to its constituent
        # request spans, and let everything under the predict — nested
        # spans, recovery events — carry the joined request ids.
        request_ids = [r.request_id for r in batch] if traced else None
        with span("serving.batch", batch_size=len(batch)) as batch_span, \
                use_request(",".join(request_ids) if traced else None):
            if traced:
                batch_span.set(request_ids=list(request_ids))
                batch_span.link(*[r.span_id for r in batch])
            try:
                views = [
                    np.concatenate([r.rows[v] for r in batch])
                    for v in range(len(self._view_dims))
                ]
                labels = self.predictor.predict(views)
            except BaseException as exc:
                batch_failed = True
                self._count_batch(len(batch))
                for request in batch:
                    request.future.set_exception(exc)
            else:
                self._count_batch(len(batch))
                for i, request in enumerate(batch):
                    request.future.set_result(int(labels[i]))
        done = time.perf_counter()
        if traced:
            # One submit-to-resolution span per request, linked to the
            # batch that carried it; recorded directly on the trace
            # because its lifetime crosses the client/worker threads.
            batch_record = getattr(batch_span, "record", None)
            batch_span_id = (
                batch_record.span_id if batch_record is not None else ""
            )
            for request in batch:
                self._trace.record(
                    SpanRecord(
                        name="serving.request",
                        start=request.submitted_at,
                        duration=done - request.submitted_at,
                        timestamp=request.submitted_wall,
                        span_id=request.span_id,
                        request_id=request.request_id,
                        thread=request.thread,
                        links=[batch_span_id] if batch_span_id else [],
                        attributes={
                            "queue_wait_seconds": tick - request.submitted_at,
                            "batch_size": len(batch),
                            "failed": batch_failed,
                        },
                    )
                )
        m = self.metrics
        m.histogram("serving.batch_seconds").observe(done - tick)
        queue_wait = m.histogram("serving.queue_wait_seconds")
        e2e = m.histogram("serving.request_seconds")
        for request in batch:
            queue_wait.observe(tick - request.submitted_at)
            e2e.observe(done - request.submitted_at)
        m.gauge("serving.queue_depth").set(len(self._pending))


def replay(service: PredictionService, samples, *, clients: int) -> list:
    """Closed-loop replay of single-sample requests through ``service``.

    ``clients`` threads share the samples round-robin; each submits its
    next sample only once the previous one's label is back.  Returns
    the labels in sample order.  After every thread has joined, the
    first exception any client hit is re-raised, so a failed replay
    never returns with missing labels.

    Raises
    ------
    ValidationError
        If ``clients < 1``.
    """
    if clients < 1:
        raise ValidationError(f"clients must be >= 1, got {clients}")
    labels: list = [None] * len(samples)
    errors: list = []

    def client(first: int) -> None:
        try:
            for i in range(first, len(samples), clients):
                labels[i] = service.predict_one(samples[i])
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(first,))
        for first in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return labels


class ServedComparison(NamedTuple):
    """What :func:`serve_against_serial` measured: each pass's labels in
    sample order and wall-clock seconds (the served pass times the
    replay only), the service's stats after the replay, and its
    request-latency quantiles in seconds."""

    serial: list
    served: list
    serial_seconds: float
    served_seconds: float
    stats: ServiceStats
    latency: dict


def serve_against_serial(
    predictor: Predictor,
    samples,
    *,
    clients: int,
    max_batch: int,
    telemetry_port: int | None = None,
    on_start=None,
) -> ServedComparison:
    """Predict ``samples`` (one per-view row list each) one at a time,
    then :func:`replay` them through a fresh :class:`PredictionService`.

    The queue holds every sample, so the closed loop is never rejected.
    ``on_start(service)``, when given, runs once the service is up,
    before the replay.  Both passes run under the caller's run context.
    """
    tick = time.perf_counter()
    serial = [
        int(predictor.predict([row[None, :] for row in s])[0])
        for s in samples
    ]
    serial_seconds = time.perf_counter() - tick
    with PredictionService(
        predictor,
        max_batch=max_batch,
        max_queue=max(1, len(samples)),
        telemetry_port=telemetry_port,
    ) as service:
        if on_start is not None:
            on_start(service)
        tick = time.perf_counter()
        served = replay(service, samples, clients=clients)
        served_seconds = time.perf_counter() - tick
        stats = service.stats()
    latency = service.metrics.histograms["serving.request_seconds"]
    return ServedComparison(
        serial, served, serial_seconds, served_seconds, stats,
        latency.quantile_summary(),
    )
