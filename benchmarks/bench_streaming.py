"""Streaming fold-in vs per-batch full refits: the cost/quality contract.

The streaming subsystem (:mod:`repro.streaming`) exists on one claim:
absorbing batches with :meth:`~repro.core.anchor_model.AnchorMVSC.
partial_fit` — escalating to a refit only when the drift ladder demands
one — tracks the quality of refitting from scratch on every batch at a
small fraction of the cost.  This bench measures that claim on the
deterministic drifted stream the scenario factory produces:

* an unmarked quick leg (10 batches x 150 samples, cluster-mean +
  imbalance drift injected mid-stream) asserting the contract directly:
  the streaming replay spends at least ``MIN_SPEEDUP`` (3x) less total
  fit wall-clock than per-batch full refits on the accumulated data,
  its final ARI is within ``ARI_TOLERANCE`` (0.05) of the full-refit
  trajectory, and the drift ladder actually escalated at the injected
  shift (so the cheap path is being defended, not just lucky);
* a ``slow``-marked full pass at larger batches that prints the
  per-batch action/cost table.

The ``streaming`` entry of ``repro bench run`` times the same protocol
(a ``confused_pairs`` stream with a mean-shift 4, imbalance 5 drift)
but not this workload: 4 batches of 70 samples with the drift at batch
2 under ``--quick``, 8 batches of 150 with the drift at batch 6 at full
size, and no full-refit comparison.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.anchor_model import AnchorMVSC
from repro.datasets.scenarios import StreamDrift, get_scenario, stream_batches
from repro.metrics import adjusted_rand_index
from repro.streaming import StreamingMVSC

#: Minimum total-wall-clock advantage of the streaming replay over
#: per-batch full refits (measured ~10x on the quick workload; 3x keeps
#: slack for machine variance without letting the contract rot).
MIN_SPEEDUP = 3.0

#: Maximum final-ARI deficit the cheap path may show against per-batch
#: full refits (documented tolerance; measured well inside it).
ARI_TOLERANCE = 0.05

N_BATCHES = 10
DRIFT_AT = 6


def _make_stream(batch_size: int):
    scenario = get_scenario("confused_pairs").with_size(batch_size)
    drift = StreamDrift(at_batch=DRIFT_AT, mean_shift=4.0, imbalance=5.0)
    batches = stream_batches(
        scenario, N_BATCHES, drift=drift, random_state=0
    )
    truth = np.concatenate([b.labels for b in batches])
    return scenario, batches, truth


def _run_streaming(scenario, batches):
    streamer = StreamingMVSC(AnchorMVSC(scenario.n_clusters, random_state=0))
    tick = time.perf_counter()
    labels = None
    for batch in batches:
        labels = streamer.partial_fit(batch.views)
    return labels, time.perf_counter() - tick, streamer


def _run_full_refits(scenario, batches):
    views = None
    tick = time.perf_counter()
    labels = None
    for batch in batches:
        views = (
            [v.copy() for v in batch.views]
            if views is None
            else [np.vstack([a, v]) for a, v in zip(views, batch.views)]
        )
        labels = AnchorMVSC(
            scenario.n_clusters, random_state=0
        ).fit_predict(views)
    return labels, time.perf_counter() - tick


def test_quick_streaming_tracks_full_refits_at_fraction_of_cost():
    scenario, batches, truth = _make_stream(150)

    stream_labels, stream_seconds, streamer = _run_streaming(
        scenario, batches
    )
    full_labels, full_seconds = _run_full_refits(scenario, batches)

    ari_stream = adjusted_rand_index(truth, stream_labels)
    ari_full = adjusted_rand_index(truth, full_labels)

    # The cost contract: >= MIN_SPEEDUP x less total fit wall-clock.
    assert full_seconds >= MIN_SPEEDUP * stream_seconds, (
        f"streaming replay took {stream_seconds:.2f}s vs {full_seconds:.2f}s "
        f"for per-batch full refits — below the {MIN_SPEEDUP:g}x contract"
    )
    # The quality contract: final ARI within ARI_TOLERANCE of full refits.
    assert ari_stream >= ari_full - ARI_TOLERANCE, (
        f"streaming ARI {ari_stream:.3f} trails full-refit ARI "
        f"{ari_full:.3f} by more than {ARI_TOLERANCE:g}"
    )
    # The drift ladder did its job: escalation at (exactly) the injected
    # shift batch, fold-in everywhere else after the initial fit.
    actions = [r.action for r in streamer.history]
    assert actions[0] == "fit"
    assert actions[DRIFT_AT] in ("partial_refit", "full_refit")
    assert all(
        a == "fold_in" for i, a in enumerate(actions[1:], start=1)
        if i != DRIFT_AT
    )
    assert any(e.batch_index == DRIFT_AT for e in streamer.events)


def test_quick_stationary_stream_never_refits():
    """Without drift the ladder must stay on the cheap rung throughout."""
    scenario = get_scenario("confused_pairs").with_size(120)
    batches = stream_batches(scenario, 6, random_state=0)
    streamer = StreamingMVSC(AnchorMVSC(scenario.n_clusters, random_state=0))
    for batch in batches:
        streamer.partial_fit(batch.views)
    assert [r.action for r in streamer.history][1:] == ["fold_in"] * 5
    assert streamer.events == []


@pytest.mark.slow
def test_full_streaming_replay_prints(capsys):
    scenario, batches, truth = _make_stream(300)
    stream_labels, stream_seconds, streamer = _run_streaming(
        scenario, batches
    )
    full_labels, full_seconds = _run_full_refits(scenario, batches)
    with capsys.disabled():
        print("\n=== Streaming replay vs per-batch full refits ===")
        print(f"{'batch':>5} {'n':>6} {'action':<14} {'cost':>8} {'sec':>6}")
        for r in streamer.history:
            print(
                f"{r.batch_index:>5} {r.n_total:>6} {r.action:<14} "
                f"{r.batch_cost:>8.3f} {r.seconds:>6.2f}"
            )
        print(
            f"streaming: {stream_seconds:.2f}s "
            f"ARI {adjusted_rand_index(truth, stream_labels):.3f} | "
            f"full refits: {full_seconds:.2f}s "
            f"ARI {adjusted_rand_index(truth, full_labels):.3f} | "
            f"speedup {full_seconds / stream_seconds:.1f}x"
        )
    assert full_seconds >= MIN_SPEEDUP * stream_seconds
