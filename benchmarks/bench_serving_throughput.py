"""Throughput and overhead budgets of the serving layer.

Two guarantees back the serving design:

* **Micro-batching pays for itself.**  On a 1k-sample synthetic workload
  of single-sample requests, routing through
  :class:`~repro.serving.service.PredictionService` (which coalesces
  requests into batched predicts) must not be slower than calling
  ``Predictor.predict`` once per sample — the whole point of the service
  is amortizing the per-call dispatch over a batch.
* **The disarmed harness is nearly free.**  The predict path routes
  through ``run_with_policy`` (``serving.predict``) and the
  observability spans; with no fault plan armed and no trace active,
  that wrapping must stay within the library's **< 2% wall-clock
  budget** (same discipline as ``bench_robust_overhead``), measured
  against a bypassed variant with the policy/span bindings replaced by
  raw passthroughs.  That budget covers the request-tracing and
  profiling hooks too: with no construction-time trace the service
  skips id minting and request-span bookkeeping entirely, and a
  dormant ``hot_span`` is one extra contextvar lookup before
  returning the same shared no-op handle as ``span``.

Both checks are plain (unmarked) tests, so a default benchmark session
runs them as smoke.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import repro.serving.predictor as predictor_mod
from repro.datasets import make_multiview_blobs
from repro.serving import ModelArtifact, PredictionService, Predictor, replay

#: Single-sample requests replayed through both paths.
N_REQUESTS = 1000

#: Client threads feeding the micro-batching service.
N_CLIENTS = 8

#: Interleaved repetitions per variant; min-of-N is the statistic.
N_REPS = 3

#: Relative budget plus a small absolute allowance for timer jitter.
REL_BUDGET = 1.02
ABS_SLACK_SECONDS = 0.05


def _workload():
    """A fitted artifact plus 1k single-sample requests over its views."""
    ds = make_multiview_blobs(
        300, 4, view_dims=(16, 24), view_noise=(0.2, 0.3), random_state=3
    )
    artifact = ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=ds.views,
        train_labels=ds.labels,
        view_weights=np.array([0.6, 0.4]),
        n_clusters=ds.n_clusters,
    )
    rng = np.random.default_rng(4)
    n = ds.n_samples
    order = rng.integers(0, n, size=N_REQUESTS)
    samples = [[v[i] for v in ds.views] for i in order]
    return artifact, samples


def _serial_seconds(predictor: Predictor, samples) -> tuple[float, list]:
    start = time.perf_counter()
    labels = [
        int(predictor.predict([row[None, :] for row in s])[0]) for s in samples
    ]
    return time.perf_counter() - start, labels


def _service_seconds(predictor: Predictor, samples) -> tuple[float, list]:
    with PredictionService(
        predictor, max_batch=64, max_queue=len(samples)
    ) as service:
        start = time.perf_counter()
        labels = replay(service, samples, clients=N_CLIENTS)
        seconds = time.perf_counter() - start
    return seconds, labels


def test_micro_batching_beats_one_at_a_time():
    """Service throughput >= serial single-sample predict throughput."""
    artifact, samples = _workload()
    predictor = Predictor(artifact)
    # Warm both paths.
    _serial_seconds(predictor, samples[:50])
    _service_seconds(predictor, samples[:50])
    # N_REPS interleaved pairs, alternating which side runs first, so a
    # burst of load from elsewhere on the host lands on both sides; the
    # minimum of each side is its least-disturbed run.
    times = {_serial_seconds: [], _service_seconds: []}
    for rep in range(N_REPS):
        order = list(times) if rep % 2 == 0 else list(times)[::-1]
        labels = {}
        for timed in order:
            seconds, labels[timed] = timed(predictor, samples)
            times[timed].append(seconds)
        assert labels[_service_seconds] == labels[_serial_seconds]
    serial_s = min(times[_serial_seconds])
    service_s = min(times[_service_seconds])
    assert service_s <= serial_s * REL_BUDGET + ABS_SLACK_SECONDS, (
        f"micro-batched service took {service_s:.3f}s for {N_REQUESTS} "
        f"requests vs {serial_s:.3f}s one-at-a-time; batching must not "
        f"lose throughput"
    )


def _bypass_run_with_policy(
    site, primary, *, fallbacks=(), validate=None, context=None
):
    return primary(0.0)


def _time_batched_predict(predictor: Predictor, views) -> float:
    start = time.perf_counter()
    predictor.predict(views)
    return time.perf_counter() - start


def test_disarmed_serving_overhead_under_two_percent():
    """Policy/span wrapping on the predict path stays within budget."""
    ds = make_multiview_blobs(
        600, 4, view_dims=(32, 48), view_noise=(0.2, 0.3), random_state=5
    )
    artifact = ModelArtifact(
        model_class="UnifiedMVSC",
        train_views=ds.views,
        train_labels=ds.labels,
        view_weights=np.array([0.6, 0.4]),
        n_clusters=ds.n_clusters,
    )
    predictor = Predictor(artifact, batch_size=128)
    queries = [np.repeat(v, 4, axis=0) for v in ds.views]

    saved = (
        predictor_mod.run_with_policy,
        predictor_mod.span,
        predictor_mod.failure_guard,
    )

    class _bypass:
        def __enter__(self):
            predictor_mod.run_with_policy = _bypass_run_with_policy
            predictor_mod.span = lambda *a, **k: nullcontext()
            predictor_mod.failure_guard = lambda site: nullcontext()

        def __exit__(self, *exc):
            (
                predictor_mod.run_with_policy,
                predictor_mod.span,
                predictor_mod.failure_guard,
            ) = saved
            return False

    _time_batched_predict(predictor, queries)
    with _bypass():
        _time_batched_predict(predictor, queries)
    harness, bypass = [], []
    for _ in range(N_REPS):
        harness.append(_time_batched_predict(predictor, queries))
        with _bypass():
            bypass.append(_time_batched_predict(predictor, queries))
    budget = min(bypass) * REL_BUDGET + ABS_SLACK_SECONDS
    assert min(harness) <= budget, (
        f"disarmed serving predict {min(harness):.3f}s vs bypassed "
        f"{min(bypass):.3f}s exceeds the 2% overhead budget"
    )


if __name__ == "__main__":
    artifact, samples = _workload()
    predictor = Predictor(artifact)
    serial_s, _ = _serial_seconds(predictor, samples)
    service_s, _ = _service_seconds(predictor, samples)
    print(
        f"one-at-a-time {serial_s:.3f}s ({N_REQUESTS / serial_s:.0f} req/s)  "
        f"micro-batched {service_s:.3f}s ({N_REQUESTS / service_s:.0f} req/s)"
    )
