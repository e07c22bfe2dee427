"""Streaming wrapper: batches in, labels out, drift ladder in between.

:class:`StreamingMVSC` owns an :class:`~repro.core.anchor_model.
AnchorMVSC` and runs the full per-batch protocol the subsystem promises:

1. absorb the batch with :meth:`~repro.core.anchor_model.AnchorMVSC.
   partial_fit` (the first batch is the initial fit);
2. hand the model's running signals (objective, view weights) to every
   drift detector;
3. execute the worst demanded action — nothing, ``partial_refit``, or
   ``full_refit`` — and tell the detectors when a refit happened so
   their baselines re-seed;
4. record a :class:`~repro.streaming.drift.BatchRecord` (and a typed
   :class:`~repro.streaming.drift.DriftEvent` per firing detector)
   and emit ``streaming.*`` metrics on the active trace.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core.anchor_model import AnchorMVSC
from repro.exceptions import ValidationError
from repro.observability.trace import metric_inc, metric_set, span
from repro.streaming.drift import (
    BatchRecord,
    DriftEvent,
    ObjectiveShiftDetector,
    ViewWeightShiftDetector,
    worst_decision,
)


class StreamingMVSC:
    """Drift-aware streaming front end over :class:`AnchorMVSC`.

    Parameters
    ----------
    model : AnchorMVSC
        The incremental model; must be unfitted (the wrapper owns the
        batch protocol from the first batch on).
    refine_iters : int, optional
        Alternations each fold-in runs after its warm start, passed to
        :meth:`~repro.core.anchor_model.AnchorMVSC.partial_fit` (which
        defaults and validates it).
    detectors : sequence, optional
        The drift detectors to run; each has a ``name``, an ``update``
        taking a :class:`~repro.streaming.drift.BatchRecord` and a
        ``notify_refit``.  Defaults to an
        :class:`~repro.streaming.drift.ObjectiveShiftDetector` and a
        :class:`~repro.streaming.drift.ViewWeightShiftDetector` with
        their default knobs; pass ``()`` to stream with drift detection
        off.

    Examples
    --------
    >>> from repro.datasets.scenarios import stream_batches
    >>> from repro.core.anchor_model import AnchorMVSC
    >>> stream = stream_batches("confused_pairs", 3)
    >>> s = StreamingMVSC(AnchorMVSC(4, random_state=0))
    >>> for batch in stream:
    ...     labels = s.partial_fit(batch.views)
    >>> len(s.history)
    3
    """

    def __init__(
        self,
        model: AnchorMVSC,
        *,
        refine_iters: int | None = None,
        detectors=None,
    ) -> None:
        if not isinstance(model, AnchorMVSC):
            raise ValidationError(
                f"model must be an AnchorMVSC, got {type(model).__name__}"
            )
        self.model = model
        self.refine_iters = refine_iters
        self.detectors = (
            (ObjectiveShiftDetector(), ViewWeightShiftDetector())
            if detectors is None
            else tuple(detectors)
        )
        self.history: list = []
        self.events: list = []
        self._batch = 0

    # -- streaming protocol ------------------------------------------------

    @property
    def labels_(self) -> np.ndarray:
        return self.model.labels_

    @property
    def n_seen_(self) -> int:
        return self.model.n_seen_

    def partial_fit(self, views) -> np.ndarray:
        """Absorb one batch and run the drift ladder.

        Returns the labels of *every* sample seen so far (the fold-in
        may move old rows).  The per-batch outcome — action executed,
        wall-clock, firing detectors — is appended to :attr:`history`.
        """
        index = self._batch
        first = self.model._stream is None
        tick = time.perf_counter()
        with span("streaming.batch", batch=index, first=first):
            labels = self.model.partial_fit(
                views, refine_iters=self.refine_iters
            )
            n_total = int(self.model.n_seen_)
            n_new = n_total if first else n_total - int(self.history[-1].n_total)
            stats = BatchRecord(
                batch_index=index,
                n_new=n_new,
                n_total=n_total,
                objective=float(self.model.objective_),
                batch_cost=float(self.model.batch_cost_),
                view_weights=tuple(
                    float(x) for x in self.model.view_weights_
                ),
            )
            # The initial fit's stats never reach the detectors: its
            # anchor-coverage cost is *in-sample* (anchors were selected
            # on exactly those rows) and would seed every baseline
            # biased low against genuinely held-out batches.
            decisions = (
                [] if first else [(d, d.update(stats)) for d in self.detectors]
            )
            worst = worst_decision([dec for _, dec in decisions])
            action = "fit" if first else worst.action
            if worst.action == "partial_refit":
                labels = self.model.partial_refit()
            elif worst.action == "full_refit":
                labels = self.model.refit()
            if action in ("partial_refit", "full_refit"):
                for detector in self.detectors:
                    detector.notify_refit()
        seconds = time.perf_counter() - tick

        batch_events = tuple(
            DriftEvent(
                batch_index=index,
                detector=detector.name,
                kind=getattr(detector, "kind", detector.name),
                severity=decision.severity,
                action=action,
                demanded=decision.action,
                reason=decision.reason,
            )
            for detector, decision in decisions
            if decision.action != "fold_in"
        )
        for event in batch_events:
            metric_inc(f"streaming.drift.{event.kind}")
        metric_inc(f"streaming.action.{action}")
        # Numerical-health probe, refreshed per batch: the anchor
        # coverage of the newest batch (the drift signal).  The view
        # weights' entropy is the alternation's own gauge, so after a
        # refit it describes the refit's weights, not the fold-in's.
        metric_set("health.anchor_coverage", stats.batch_cost)
        record = replace(
            stats, action=action, seconds=seconds, events=batch_events
        )
        self.history.append(record)
        self.events.extend(batch_events)
        self._batch += 1
        return labels
