"""The benchmark's workloads: inputs, timed pass, checks and metrics.

Every workload is a set-up (input generation from the seed, warm-up,
service start) followed by a pass of fixed work.  The pass is sized from
``--seconds`` and the nominal cost of one unit of work on the reference
machine, so the same arguments always give the same work: a faster
program finishes sooner rather than doing more.  The program only ever
receives the generated arrays.

The timed pass is production code only (see
:func:`env.check_production_path`).  With tracing on, the same work runs
a second time with the layer wrappers of :mod:`layers` installed.

The fits of ``batch_fit`` and ``stream`` and serve's closed-loop
throughput are timed in CPU time (see :func:`_timed`) and scaled to the
reference speed by :mod:`gauge`; serve's open-loop latencies are
wall-clock, since they include the service's batching wait.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

import env
import gauge
import layers
from repro.core.anchor_model import AnchorMVSC
from repro.core.model import UnifiedMVSC
from repro.core.sparse_model import SparseMVSC
from repro.datasets.scenarios import generate, get_scenario, stream_batches
from repro.exceptions import ReproError
from repro.metrics.ari import adjusted_rand_index
from repro.robust.policy import collect_recoveries
from repro.serving import ModelArtifact, PredictionService, Predictor
from repro.streaming.model import StreamingMVSC

#: Clusters in every scenario used here.
N_CLUSTERS = 4

#: ARI below these floors fails the run.  Measured over seeds: 0.22 to
#: 0.7 per batch_fit dataset (a mean of about 0.45 per solver), 0.9 to
#: 0.98 for the stream and 0.78 to 0.9 for serve (whose artifact holds
#: ground-truth labels).
ARI_FLOOR = {"batch_fit": 0.2, "stream": 0.6, "serve": 0.5}

#: How long a future may take to resolve before it counts as failed.
FUTURE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: :data:`FULL` for the benchmark, :data:`TINY` for tests."""

    batch_n: int  # rows of each batch_fit dataset
    batch_rep_s: float  # nominal seconds of one UMSC + Sparse repetition
    warm_n: int  # rows of the warm-up fits in set-up
    stream_initial: int  # rows of the cold fit
    stream_rows: int  # rows per fold-in batch
    stream_batch_s: float  # nominal seconds of one fold-in batch
    serve_train: int  # rows of the served artifact
    serve_queries: int  # distinct query rows, cycled by the requests
    serve_rate: float  # open-loop requests per second
    serve_window: int  # closed-loop requests kept outstanding
    setup_repeats: int  # set-ups per run; setup_s is their median


FULL = Sizes(
    batch_n=150,
    batch_rep_s=0.7,
    warm_n=60,
    stream_initial=2000,
    stream_rows=20,
    stream_batch_s=0.25,
    serve_train=2000,
    serve_queries=2000,
    serve_rate=500.0,
    serve_window=64,
    setup_repeats=3,
)

TINY = Sizes(
    batch_n=60,
    batch_rep_s=0.5,
    warm_n=40,
    stream_initial=120,
    stream_rows=20,
    stream_batch_s=1 / 12,
    serve_train=120,
    serve_queries=40,
    serve_rate=400.0,
    serve_window=8,
    setup_repeats=2,
)


class Ledger:
    """Operations attempted and failed, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def valid_labels(labels, n: int) -> bool:
    """``n`` labels in ``[0, c)`` with no empty cluster."""
    labels = np.asarray(labels)
    return (
        labels.shape == (n,)
        and n >= N_CLUSTERS
        and labels.min() >= 0
        and labels.max() < N_CLUSTERS
        and np.bincount(labels, minlength=N_CLUSTERS).min() > 0
    )


def _timed(op):
    """``(result, cpu_s, wall_s)`` of ``op()``; ``result`` is None on
    ReproError.

    ``cpu_s`` is the process's CPU time.  The process runs on one CPU
    with one BLAS thread, so it equals the wall-clock except for the time
    the host gives the virtual CPU to someone else: the guest kernel
    accounts that as steal time, not as the process's.
    """
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        result = op()
    except ReproError:
        result = None
    return result, time.process_time() - cpu, time.perf_counter() - wall


def _ms(values) -> np.ndarray:
    return np.asarray(values, dtype=float) * 1000.0


@dataclass
class Pass:
    """What one pass measured: samples, checks and workload extras."""

    wall_s: float = 0.0
    samples: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# batch_fit
# ---------------------------------------------------------------------------


@dataclass
class BatchInputs:
    datasets: list

    def close(self) -> None:
        pass


def batch_fit_setup(seed: int, seconds: float, sizes: Sizes) -> BatchInputs:
    reps = max(1, int(round(seconds / sizes.batch_rep_s)))
    # One dataset per repetition: a run's median spans several draws of
    # the scenario, so it does not hinge on one draw's convergence path.
    datasets = [
        generate(
            "heterogeneous", n_samples=sizes.batch_n, random_state=seed * 1000 + r
        )
        for r in range(reps)
    ]
    warm = generate("heterogeneous", n_samples=sizes.warm_n, random_state=seed)
    UnifiedMVSC(N_CLUSTERS, random_state=0).fit(warm.views)
    SparseMVSC(N_CLUSTERS, random_state=0).fit_predict(warm.views)
    return BatchInputs(datasets)


def batch_fit_pass(
    inputs: BatchInputs, ledger: Ledger, callbacks=(), speed=gauge.NoGauge()
) -> Pass:
    umsc_s, sparse_s, umsc_ari, sparse_ari = [], [], [], []
    cpu_s, wall_s = [], []
    rows = 0
    start, gauged = time.perf_counter(), speed.wall_s
    for data in inputs.datasets:
        env.check_production_path()
        views, truth = data.views, data.labels
        n = truth.shape[0]
        result, cpu, wall = _timed(
            lambda: UnifiedMVSC(
                N_CLUSTERS, random_state=0, callbacks=callbacks
            ).fit(views)
        )
        umsc_s.append(speed.scale(cpu))
        cpu_s.append(cpu)
        wall_s.append(wall)
        labels = None if result is None else result.labels
        if ledger.record(
            labels is not None and valid_labels(labels, n), "UnifiedMVSC.fit"
        ):
            umsc_ari.append(adjusted_rand_index(truth, labels))
        labels, cpu, wall = _timed(
            lambda: SparseMVSC(
                N_CLUSTERS, random_state=0, callbacks=callbacks
            ).fit_predict(views)
        )
        sparse_s.append(speed.scale(cpu))
        cpu_s[-1] += cpu
        wall_s[-1] += wall
        if ledger.record(
            labels is not None and valid_labels(labels, n),
            "SparseMVSC.fit_predict",
        ):
            sparse_ari.append(adjusted_rand_index(truth, labels))
        rows += 2 * n
    wall = time.perf_counter() - start - (speed.wall_s - gauged)
    floor = ARI_FLOOR["batch_fit"]
    for name, aris in (("umsc", umsc_ari), ("sparse", sparse_ari)):
        mean = float(np.mean(aris)) if aris else 0.0
        ledger.record(mean >= floor, f"{name}_ari {mean:.3f} < {floor}")
    return Pass(
        wall_s=wall,
        samples={
            "umsc_s": umsc_s,
            "sparse_s": sparse_s,
            "cpu_s": cpu_s,
            "wall_s": wall_s,
        },
        values={
            "umsc_ari": float(np.mean(umsc_ari)) if umsc_ari else 0.0,
            "sparse_ari": float(np.mean(sparse_ari)) if sparse_ari else 0.0,
            "rows_per_s": rows / (sum(umsc_s) + sum(sparse_s)),
        },
    )


#: Percentile of the batch_fit tail: with 36 repetitions a run (at
#: ``--seconds 25``) nine lie beyond it.
BATCH_TAIL_PCT = 75


def batch_fit_metrics(p: Pass) -> tuple[dict, list]:
    umsc = np.asarray(p.samples["umsc_s"])
    sparse = np.asarray(p.samples["sparse_s"])
    # The operation is one repetition: a UMSC fit and a Sparse fit of the
    # same views.  Their sum varies less from dataset to dataset than
    # either fit alone.
    rep = _ms(umsc + sparse)
    v = p.values
    e2e = {
        "op_p50_ms": (float(np.median(rep)), "ms"),
        "op_tail_ms": (float(np.percentile(rep, BATCH_TAIL_PCT)), "ms"),
        "rate_per_s": (v["rows_per_s"], "1/s"),
        "quality_ari": ((v["umsc_ari"] + v["sparse_ari"]) / 2.0, "ARI"),
    }
    fits = f"median of {umsc.size}"
    report = [
        ("rep_p50_ms", float(np.median(rep)), "ms", fits),
        (
            f"rep_p{BATCH_TAIL_PCT}_ms",
            float(np.percentile(rep, BATCH_TAIL_PCT)),
            "ms",
            f"{rep.size} repetitions",
        ),
        (
            "rep_p50_cpu_ms",
            float(np.median(_ms(p.samples["cpu_s"]))),
            "ms",
            "CPU time, not scaled",
        ),
        (
            "rep_p50_wall_ms",
            float(np.median(_ms(p.samples["wall_s"]))),
            "ms",
            "wall-clock, steal included",
        ),
        ("umsc_fit_s", float(np.median(umsc)), "s", fits),
        ("sparse_fit_s", float(np.median(sparse)), "s", fits),
        ("umsc_ari", v["umsc_ari"], "ARI", "mean over datasets"),
        ("sparse_ari", v["sparse_ari"], "ARI", "mean over datasets"),
    ]
    return e2e, report


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


#: Independent streams per run, each with its own cold fit.  How much a
#: fold-in costs depends on the stream: over seeds, a stream's median
#: fold-in differed by up to about 20% (on streams the model separates
#: less well it moves more labels).  Three streams a run average that.
STREAMS = 3


@dataclass
class Stream:
    initial: list
    batches: list
    truth: np.ndarray


@dataclass
class StreamInputs:
    streams: list

    def close(self) -> None:
        pass


def stream_setup(seed: int, seconds: float, sizes: Sizes) -> StreamInputs:
    # ``clean``, not ``confused_pairs``: on confused pairs the anchor
    # model's ARI swings between 0.26 and 0.54 from seed to seed, too
    # wide for a gated quality metric; the work per row is the same.
    scenario = get_scenario("clean").with_size(sizes.stream_rows)
    blocks = max(1, sizes.stream_initial // sizes.stream_rows)
    n_batches = max(1, int(round(seconds / sizes.stream_batch_s / STREAMS)))
    streams = []
    for k in range(STREAMS):
        # A stationary stream; its first blocks form the cold-fit block.
        batches = stream_batches(
            scenario, blocks + n_batches, random_state=seed * 1000 + k
        )
        streams.append(
            Stream(
                initial=[
                    np.vstack([b.views[v] for b in batches[:blocks]])
                    for v in range(scenario.n_views)
                ],
                batches=[b.views for b in batches[blocks:]],
                truth=np.concatenate([b.labels for b in batches]),
            )
        )
    warm = StreamingMVSC(AnchorMVSC(N_CLUSTERS, random_state=0))
    warm.partial_fit([x[: sizes.warm_n * 2] for x in streams[0].initial])
    warm.partial_fit(streams[0].batches[0])
    return StreamInputs(streams)


def _stream_ok(model, labels) -> bool:
    return (
        labels is not None
        and len(model.labels_) == model.n_seen_
        and valid_labels(labels, model.n_seen_)
    )


def stream_pass(
    inputs: StreamInputs,
    ledger: Ledger,
    callbacks=(),
    tracer=None,
    speed=gauge.NoGauge(),
) -> Pass:
    cold_s, fold_s, cpu_s, wall_s, aris, growths = [], [], [], [], [], []
    rows = escalations = 0
    start, gauged = time.perf_counter(), speed.wall_s
    for k, stream in enumerate(inputs.streams):
        model = StreamingMVSC(
            AnchorMVSC(N_CLUSTERS, random_state=0, callbacks=callbacks)
        )
        if tracer is not None:
            layers.install_detectors(tracer, model)
        env.check_production_path()
        labels, cpu, _ = _timed(lambda: model.partial_fit(stream.initial))
        cold_s.append(speed.scale(cpu))
        ledger.record(_stream_ok(model, labels), f"stream {k} cold fit")
        first = len(fold_s)
        for i, views in enumerate(stream.batches):
            labels, cpu, wall = _timed(lambda: model.partial_fit(views))
            fold_s.append(speed.scale(cpu))
            cpu_s.append(cpu)
            wall_s.append(wall)
            ledger.record(_stream_ok(model, labels), f"stream {k} fold-in {i}")
        growths.append(fold_in_growth(fold_s[first:]))
        final = np.asarray(model.labels_)
        ari = (
            adjusted_rand_index(stream.truth, final)
            if final.shape == stream.truth.shape
            else 0.0
        )
        floor = ARI_FLOOR["stream"]
        ledger.record(ari >= floor, f"stream {k} ARI {ari:.3f} < {floor}")
        aris.append(ari)
        rows += model.n_seen_
        escalations += sum(
            h.action in ("partial_refit", "full_refit") for h in model.history
        )
    wall = time.perf_counter() - start - (speed.wall_s - gauged)
    return Pass(
        wall_s=wall,
        samples={
            "cold_s": cold_s,
            "fold_s": fold_s,
            "cpu_s": cpu_s,
            "wall_s": wall_s,
        },
        values={
            "ari": float(np.mean(aris)),
            "rows_per_s": rows / (sum(cold_s) + sum(fold_s)),
            "escalations": escalations,
            "growth": float(np.mean(growths)),
        },
    )


def fold_in_growth(fold_s) -> float:
    """Mean of the last 10 fold-ins over the mean of the first 10."""
    fold = np.asarray(fold_s, dtype=float)
    k = min(10, fold.size // 2) or 1
    return float(fold[-k:].mean() / fold[:k].mean())


def stream_metrics(p: Pass) -> tuple[dict, list]:
    fold = _ms(p.samples["fold_s"])
    p50, p90 = float(np.median(fold)), float(np.percentile(fold, 90))
    v = p.values
    e2e = {
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (p90, "ms"),
        "rate_per_s": (v["rows_per_s"], "1/s"),
        "quality_ari": (v["ari"], "ARI"),
    }
    batches = f"{fold.size} batches"
    streams = f"{len(p.samples['cold_s'])} streams"
    report = [
        ("anchor_fit_s", float(np.median(p.samples["cold_s"])), "s", streams),
        ("fold_in_p50_ms", p50, "ms", batches),
        ("fold_in_p90_ms", p90, "ms", batches),
        (
            "fold_in_p50_cpu_ms",
            float(np.median(_ms(p.samples["cpu_s"]))),
            "ms",
            "CPU time, not scaled",
        ),
        (
            "fold_in_p50_wall_ms",
            float(np.median(_ms(p.samples["wall_s"]))),
            "ms",
            "wall-clock, steal included",
        ),
        ("fold_in_growth", v["growth"], "ratio", "last 10 / first 10"),
        ("stream_ari", v["ari"], "ARI", f"final labels_ vs truth, {streams}"),
    ]
    return e2e, report


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


@dataclass
class ServeInputs:
    predictor: Predictor
    service: PredictionService
    samples: list  # one per-view row list per distinct query
    query_views: list
    query_truth: np.ndarray
    open_requests: int  # phase A request count
    closed_s: float  # phase B duration
    rate: float
    window: int

    def close(self) -> None:
        self.service.close(timeout=FUTURE_TIMEOUT_S)


def serve_setup(seed: int, seconds: float, sizes: Sizes) -> ServeInputs:
    data = generate(
        "clean",
        n_samples=sizes.serve_train + sizes.serve_queries,
        random_state=seed,
    )
    t = sizes.serve_train
    # The artifact holds ground-truth labels, so set-up runs no fit.
    artifact = ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=[x[:t] for x in data.views],
        train_labels=data.labels[:t],
        view_weights=np.ones(len(data.views)),
        n_clusters=N_CLUSTERS,
    )
    predictor = Predictor(artifact)
    service = PredictionService(predictor)
    query_views = [x[t:] for x in data.views]
    samples = [
        [x[i] for x in query_views] for i in range(sizes.serve_queries)
    ]
    window = min(sizes.serve_window, service.max_queue)
    warm = [service.submit(samples[i % len(samples)]) for i in range(window)]
    for future in warm:
        future.result(timeout=FUTURE_TIMEOUT_S)
    return ServeInputs(
        predictor=predictor,
        service=service,
        samples=samples,
        query_views=query_views,
        query_truth=data.labels[t:],
        open_requests=max(1, int(sizes.serve_rate * seconds / 2.0)),
        closed_s=seconds / 2.0,
        rate=sizes.serve_rate,
        window=window,
    )


def _resolve(futures, ledger: Ledger, what: str) -> list:
    """Labels of every future; a future that fails or hangs counts."""
    labels = []
    for i, future in enumerate(futures):
        label = None
        if future is not None:
            try:
                label = future.result(timeout=FUTURE_TIMEOUT_S)
            except (ReproError, TimeoutError):
                label = None
        ledger.record(label is not None, f"{what} request {i}")
        labels.append(label)
    return labels


#: Segments of the closed loop; its rate is the median over them.
CLOSED_SEGMENTS = 10


def serve_pass(
    inputs: ServeInputs,
    ledger: Ledger,
    service: PredictionService | None = None,
    tracer=None,
    speed=gauge.NoGauge(),
) -> Pass:
    service = inputs.service if service is None else service
    samples = inputs.samples
    q = len(samples)
    clock = time.perf_counter
    predict_s = tracer.last_s if tracer is not None else {}

    # Phase A: open loop at a fixed rate; latency counts from due time.
    n = inputs.open_requests
    due = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    batch_predict = np.full(n, np.nan)

    def resolved(i, _future):
        done[i] = clock()
        batch_predict[i] = predict_s.get("serving.predict", np.nan)

    futures: list = [None] * n
    env.check_production_path()
    t0 = clock() + 0.005
    for i in range(n):
        due[i] = t0 + i / inputs.rate
        wait = due[i] - clock()
        if wait > 0:
            time.sleep(wait)
        sent[i] = clock()
        try:
            future = service.submit(samples[i % q])
        except ReproError:
            continue
        future.add_done_callback(functools.partial(resolved, i))
        futures[i] = future
    open_labels = _resolve(futures, ledger, "open-loop")
    open_wall = np.nanmax(done) - t0 if np.isfinite(done).any() else 0.0

    # Phase B: closed loop from this thread with a fixed window of
    # outstanding requests, never more than the queue admits.  It runs in
    # segments; each ends by draining its window, so the gauge then reads
    # an idle service, and the segment's rate is its requests over the
    # process's scaled CPU time (sender and worker share the one CPU).
    closed_labels = []
    segment_rates = []
    closed_wall = 0.0
    i = 0
    speed.read()
    for _ in range(CLOSED_SEGMENTS):
        window: list = []
        count = len(closed_labels)
        cpu, start = time.process_time(), clock()
        while True:
            while len(window) < inputs.window:
                try:
                    window.append((i, service.submit(samples[i % q])))
                except ReproError:
                    ledger.record(False, f"closed-loop request {i} rejected")
                i += 1
            j, future = window.pop(0)
            label = _resolve([future], ledger, "closed-loop")[0]
            closed_labels.append((j, label))
            if clock() - start >= inputs.closed_s / CLOSED_SEGMENTS:
                break
        for j, future in window:
            label = _resolve([future], ledger, "closed-loop")[0]
            closed_labels.append((j, label))
        cpu = time.process_time() - cpu
        closed_wall += clock() - start
        segment_rates.append((len(closed_labels) - count) / speed.scale(cpu))
    env.check_production_path()

    latency = done - due
    return Pass(
        wall_s=open_wall + closed_wall,
        samples={
            "latency_s": latency[np.isfinite(latency)],
            "late_s": sent - due,
            "queue_wait_s": (latency - batch_predict)[
                np.isfinite(latency - batch_predict)
            ],
        },
        values={
            "open_labels": open_labels,
            "closed_labels": closed_labels,
            "throughput": len(closed_labels) / closed_wall,
            "scaled_throughput": float(np.median(segment_rates)),
        },
    )


def serve_check(inputs: ServeInputs, p: Pass, ledger: Ledger) -> float:
    """Served labels must equal a direct predict; returns the served ARI."""
    expected = inputs.predictor.predict(inputs.query_views)
    q = len(inputs.samples)
    served = [
        (i, label) for i, label in enumerate(p.values["open_labels"])
    ] + list(p.values["closed_labels"])
    mismatched = sum(
        label is not None and label != expected[i % q] for i, label in served
    )
    ledger.record(mismatched == 0, f"{mismatched} served labels differ")
    rows = [i % q for i, label in served if label is not None]
    labels = [label for _, label in served if label is not None]
    ari = (
        adjusted_rand_index(inputs.query_truth[rows], np.asarray(labels))
        if labels
        else 0.0
    )
    floor = ARI_FLOOR["serve"]
    ledger.record(ari >= floor, f"served ARI {ari:.3f} < {floor}")
    return ari


#: Open-loop requests per tail window: p99 of 1000 has 10 beyond it.
TAIL_WINDOW = 1000


def windowed_p99(latency) -> float:
    """Median over consecutive windows of each window's p99.

    One stall of the shared machine lands in one window instead of
    moving the p99 of the whole phase.
    """
    latency = np.asarray(latency, dtype=float)
    windows = [
        latency[i : i + TAIL_WINDOW]
        for i in range(0, latency.size - TAIL_WINDOW + 1, TAIL_WINDOW)
    ] or [latency]
    return float(np.median([np.percentile(w, 99) for w in windows]))


def serve_metrics(p: Pass) -> tuple[dict, list]:
    latency = _ms(p.samples["latency_s"])
    p50 = float(np.median(latency))
    v = p.values
    e2e = {
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (float(np.percentile(latency, 90)), "ms"),
        "rate_per_s": (v["scaled_throughput"], "1/s"),
        "quality_ari": (v["ari"], "ARI"),
    }
    late_p99 = float(np.percentile(_ms(p.samples["late_s"]), 99))
    closed = f"{len(v['closed_labels'])} closed-loop requests"
    report = [
        ("latency_p50_ms", p50, "ms", f"{latency.size} open-loop requests"),
        ("latency_p99_ms", windowed_p99(latency), "ms", "median of windows"),
        (
            "throughput_rps",
            v["scaled_throughput"],
            "req/s",
            f"median of {CLOSED_SEGMENTS} segments, per scaled CPU second",
        ),
        ("throughput_wall_rps", v["throughput"], "req/s", closed),
        ("gen_late_p99_ms", late_p99, "ms", "open-loop sender"),
    ]
    return e2e, report


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """A run's result: end-to-end and per-layer metrics, and the ledger."""

    e2e: dict
    report: list
    per_layer: dict
    ledger: Ledger


SETUPS = {"batch_fit": batch_fit_setup, "stream": stream_setup, "serve": serve_setup}
WORKLOADS = tuple(SETUPS)



def _setup(name: str, seed: int, seconds: float, sizes: Sizes):
    """Set up ``sizes.setup_repeats`` times; keep the last inputs."""
    times = []
    inputs = None
    for _ in range(sizes.setup_repeats):
        if inputs is not None:
            inputs.close()
        start = time.perf_counter()
        inputs = SETUPS[name](seed, seconds, sizes)
        times.append(time.perf_counter() - start)
    return inputs, float(np.median(times))


def _run_pass(
    name, inputs, ledger, tracer=None, counter=None, speed=gauge.NoGauge()
):
    callbacks = () if counter is None else (counter,)
    if name == "batch_fit":
        return batch_fit_pass(inputs, ledger, callbacks, speed)
    if name == "stream":
        return stream_pass(inputs, ledger, callbacks, tracer, speed)
    if tracer is None:
        return serve_pass(inputs, ledger, speed=speed)
    # A fresh service, constructed inside the recovery collection, so
    # its worker thread's context carries the collector.
    service = PredictionService(inputs.predictor)
    try:
        return serve_pass(inputs, ledger, service, tracer)
    finally:
        service.close(timeout=FUTURE_TIMEOUT_S)


def _metrics(name, inputs, p: Pass, ledger: Ledger):
    if name == "batch_fit":
        return batch_fit_metrics(p)
    if name == "stream":
        return stream_metrics(p)
    p.values["ari"] = serve_check(inputs, p, ledger)
    return serve_metrics(p)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Sizes = FULL,
    import_s: float = 0.0,
) -> Outcome:
    """Set up, run the timed pass and, with ``trace``, the traced pass."""
    inputs, setup_s = _setup(name, seed, seconds, sizes)
    try:
        ledger = Ledger()
        speed = gauge.Gauge()
        timed = _run_pass(name, inputs, ledger, speed=speed)
        e2e, report = _metrics(name, inputs, timed, ledger)
        readings = f"median of {len(speed.readings)} gauge readings"
        report.append(("gauge_speed", speed.speed(), "ratio", readings))
        per_layer = {}
        if trace:
            per_layer = _traced(name, inputs, timed)
    finally:
        inputs.close()
    rss = env.peak_rss_mb()
    success = 1.0 - ledger.failed / max(ledger.attempted, 1)
    e2e.update(
        setup_s=(import_s + setup_s, "s"),
        peak_rss_mb=(rss, "MB"),
        success_rate=(success, "fraction"),
    )
    failed = f"{ledger.failed}/{ledger.attempted} failed"
    setups = f"imports + median of {sizes.setup_repeats} set-ups"
    report += [
        ("error_rate", 1.0 - success, "fraction", failed),
        ("peak_rss_mb", rss, "MB", "process high-water"),
        ("setup_s", import_s + setup_s, "s", setups),
    ]
    return Outcome(e2e, report, per_layer, ledger)


def _traced(name: str, inputs, timed: Pass) -> dict:
    """Replay the timed work with every layer wrapped."""
    tracer = layers.LayerTracer()
    counter = layers.IterationCounter()
    layers.install(tracer)
    try:
        with collect_recoveries() as recoveries:
            traced = _run_pass(name, inputs, Ledger(), tracer, counter)
    finally:
        tracer.restore()
    if name == "serve":
        # The open loop's wall-clock is fixed by its schedule; the closed
        # loop's request rate carries the overhead.
        overhead = timed.values["throughput"] / traced.values["throughput"]
    else:
        overhead = traced.wall_s / timed.wall_s
    return layers.per_layer_metrics(
        tracer,
        counter,
        traced_wall=traced.wall_s,
        trace_overhead=overhead,
        recoveries=len(recoveries),
        extras=_layer_extras(name, timed, traced),
    )


def _layer_extras(name: str, timed: Pass, traced: Pass) -> dict:
    """Workload-level per-layer values; zero where a workload has none.

    Escalations, growth and generator lateness come from the timed pass,
    queue wait from the traced one (it needs each batch's predict time).
    """
    escalations = growth = wait_p50 = late_max = late_p99 = 0.0
    if name == "stream":
        escalations = float(timed.values["escalations"])
        growth = timed.values["growth"]
    if name == "serve":
        wait = _ms(traced.samples["queue_wait_s"])
        late = _ms(timed.samples["late_s"])
        wait_p50 = float(np.median(wait)) if wait.size else 0.0
        late_max = float(late.max())
        late_p99 = float(np.percentile(late, 99))
    return {
        "streaming.escalations": (escalations, "count"),
        "streaming.fold_in_growth": (growth, "ratio"),
        "serving.queue_wait_p50_ms": (wait_p50, "ms"),
        "bench.gen_late_max_ms": (late_max, "ms"),
        "bench.gen_late_p99_ms": (late_p99, "ms"),
    }
