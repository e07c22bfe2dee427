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
4. record a :class:`BatchRecord` (and a typed
   :class:`~repro.streaming.drift.DriftEvent` per firing detector)
   and emit ``streaming.*`` metrics on the active trace.

The wrapper is config-driven: :meth:`StreamingMVSC.from_config` builds
one from a :class:`~repro.core.config.UMSCConfig` (the same object the
batch solvers consume) plus a :class:`~repro.core.config.
StreamingConfig`, so existing experiment configs gain streaming without
a parallel configuration universe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.anchor_model import AnchorMVSC
from repro.core.config import StreamingConfig, UMSCConfig
from repro.exceptions import ValidationError
from repro.observability.health import weight_entropy
from repro.observability.trace import metric_inc, metric_set, span
from repro.streaming.drift import (
    BatchStats,
    DriftEvent,
    ObjectiveShiftDetector,
    ViewWeightShiftDetector,
    worst_decision,
)


@dataclass(frozen=True)
class BatchRecord:
    """What happened to one batch: action taken, cost, running state."""

    batch_index: int
    n_new: int
    n_total: int
    action: str
    seconds: float
    objective: float
    batch_cost: float
    view_weights: tuple
    events: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-ready representation (CLI / report embedding)."""
        return {
            "batch_index": self.batch_index,
            "n_new": self.n_new,
            "n_total": self.n_total,
            "action": self.action,
            "seconds": self.seconds,
            "objective": self.objective,
            "batch_cost": self.batch_cost,
            "view_weights": list(self.view_weights),
            "events": [e.to_dict() for e in self.events],
        }


def default_detectors(config: StreamingConfig) -> tuple:
    """The standard detector pair wired from a :class:`StreamingConfig`.

    Thresholds at or below zero disable the corresponding detector.
    """
    detectors = []
    if config.objective_threshold > 0:
        detectors.append(
            ObjectiveShiftDetector(
                threshold=config.objective_threshold,
                hysteresis=config.hysteresis,
                cooldown=config.cooldown,
                window=config.window,
            )
        )
    if config.weight_threshold > 0:
        detectors.append(
            ViewWeightShiftDetector(
                threshold=config.weight_threshold,
                hysteresis=config.hysteresis,
                cooldown=config.cooldown,
            )
        )
    return tuple(detectors)


class StreamingMVSC:
    """Drift-aware streaming front end over :class:`AnchorMVSC`.

    Parameters
    ----------
    model : AnchorMVSC
        The incremental model; must be unfitted (the wrapper owns the
        batch protocol from the first batch on).
    config : StreamingConfig, optional
        Fold-in and drift knobs (defaults are the class defaults).
    detectors : sequence of DriftDetector, optional
        Overrides the standard pair built from ``config``; pass ``()``
        to stream with drift detection off.

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
        config: StreamingConfig | None = None,
        detectors=None,
    ) -> None:
        if not isinstance(model, AnchorMVSC):
            raise ValidationError(
                f"model must be an AnchorMVSC, got {type(model).__name__}"
            )
        self.model = model
        self.config = StreamingConfig() if config is None else config
        self.detectors = (
            default_detectors(self.config)
            if detectors is None
            else tuple(detectors)
        )
        self.history: list = []
        self.events: list = []
        self._batch = 0

    @classmethod
    def from_config(
        cls,
        config: UMSCConfig,
        *,
        streaming: StreamingConfig | None = None,
        detectors=None,
        n_anchors: int = 0,
        n_anchor_neighbors: int = 5,
        n_restarts: int = 10,
        random_state=None,
        callbacks=(),
    ) -> "StreamingMVSC":
        """Build a streaming model from a batch-solver config.

        The shared hyperparameters (``n_clusters``, ``gamma``,
        ``weighting``, ``max_iter``) transfer from the
        :class:`UMSCConfig`; anchor-specific knobs are keyword arguments
        because the dense config has no analogue.  Backend and worker
        count come from the run context the stream runs under.
        """
        if not isinstance(config, UMSCConfig):
            raise ValidationError(
                f"config must be a UMSCConfig, got {type(config).__name__}"
            )
        model = AnchorMVSC(
            config.n_clusters,
            n_anchors=n_anchors,
            n_anchor_neighbors=n_anchor_neighbors,
            gamma=config.gamma,
            weighting=config.weighting,
            max_iter=config.max_iter,
            n_restarts=n_restarts,
            random_state=random_state,
            callbacks=callbacks,
        )
        return cls(model, config=streaming, detectors=detectors)

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
                views, refine_iters=self.config.refine_iters
            )
            n_total = int(self.model.n_seen_)
            n_new = n_total if first else n_total - int(self.history[-1].n_total)
            stats = BatchStats(
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
        # Numerical-health probes, refreshed per batch: the anchor
        # coverage of the newest batch (the drift signal) and the
        # current view-weight concentration.
        metric_set("health.anchor_coverage", stats.batch_cost)
        metric_set(
            "health.weight_entropy", weight_entropy(stats.view_weights)
        )
        record = BatchRecord(
            batch_index=index,
            n_new=n_new,
            n_total=n_total,
            action=action,
            seconds=seconds,
            objective=stats.objective,
            batch_cost=stats.batch_cost,
            view_weights=stats.view_weights,
            events=batch_events,
        )
        self.history.append(record)
        self.events.extend(batch_events)
        self._batch += 1
        return labels
