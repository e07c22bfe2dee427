"""Streaming fold-in vs per-batch full refits: the cost/quality contract.

The streaming subsystem (:mod:`repro.streaming`) exists on one claim:
absorbing batches with :meth:`~repro.core.anchor_model.AnchorMVSC.
partial_fit` — escalating to a refit only when the drift ladder demands
one — tracks the quality of refitting from scratch on every batch at a
small fraction of the cost.  These unmarked contract legs measure that
claim on the full-size stream of the tracked ``streaming`` bench
(:func:`repro.bench.stream_workload`: a ``confused_pairs`` stream whose
last two batches carry a cluster-mean + imbalance drift):

* the streaming replay spends at least ``MIN_SPEEDUP`` (3x) less total
  fit wall-clock than per-batch full refits on the accumulated data,
  its final ARI is within ``ARI_TOLERANCE`` (0.05) of the full-refit
  trajectory, and the drift ladder escalated at exactly the injected
  shift (so the cheap path is being defended, not just lucky);
* the same stream without the drift only ever folds in.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import stream_workload
from repro.core.anchor_model import AnchorMVSC
from repro.datasets.scenarios import stream_batches
from repro.metrics import adjusted_rand_index
from repro.streaming import StreamingMVSC

#: Minimum total-wall-clock advantage of the streaming replay over
#: per-batch full refits (3x keeps slack for machine variance without
#: letting the contract rot).
MIN_SPEEDUP = 3.0

#: Maximum final-ARI deficit the cheap path may show against per-batch
#: full refits (documented tolerance; measured well inside it).
ARI_TOLERANCE = 0.05


def _run_streaming(n_clusters, batches):
    streamer = StreamingMVSC(AnchorMVSC(n_clusters, random_state=0))
    tick = time.perf_counter()
    labels = None
    for batch in batches:
        labels = streamer.partial_fit(batch.views)
    return labels, time.perf_counter() - tick, streamer


def _run_full_refits(n_clusters, batches):
    views = None
    tick = time.perf_counter()
    labels = None
    for batch in batches:
        views = (
            [v.copy() for v in batch.views]
            if views is None
            else [np.vstack([a, v]) for a, v in zip(views, batch.views)]
        )
        labels = AnchorMVSC(n_clusters, random_state=0).fit_predict(views)
    return labels, time.perf_counter() - tick


def test_streaming_tracks_full_refits_at_fraction_of_cost(capsys):
    stream = stream_workload(quick=False)
    n_clusters = stream["scenario"].n_clusters
    drift_at = stream["drift"].at_batch
    batches = stream_batches(**stream)
    truth = np.concatenate([b.labels for b in batches])

    stream_labels, stream_seconds, streamer = _run_streaming(
        n_clusters, batches
    )
    full_labels, full_seconds = _run_full_refits(n_clusters, batches)

    ari_stream = adjusted_rand_index(truth, stream_labels)
    ari_full = adjusted_rand_index(truth, full_labels)
    with capsys.disabled():
        print(
            f"\nstreaming {full_seconds / stream_seconds:.1f}x faster than "
            f"full refits; final ARI {ari_stream:.3f} vs {ari_full:.3f}"
        )

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
    assert actions[drift_at] in ("partial_refit", "full_refit")
    assert all(
        a == "fold_in" for i, a in enumerate(actions[1:], start=1)
        if i != drift_at
    )
    assert any(e.batch_index == drift_at for e in streamer.events)


def test_stationary_stream_never_refits():
    """Without drift the ladder must stay on the cheap rung throughout."""
    stream = dict(stream_workload(quick=False), drift=None)
    batches = stream_batches(**stream)
    _, _, streamer = _run_streaming(stream["scenario"].n_clusters, batches)
    actions = [r.action for r in streamer.history]
    assert actions[1:] == ["fold_in"] * (len(batches) - 1)
    assert streamer.events == []
