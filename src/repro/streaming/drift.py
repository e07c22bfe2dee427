"""Drift detection for streaming multi-view clustering.

A streaming model folding batches in cheaply needs to know when cheap
stops being safe.  The detectors here watch the two running signals the
anchor model maintains for free — the batch's mean nearest-anchor
cost and the learned view weights — and climb a three-rung action
ladder (:data:`STREAM_ACTIONS`):

* ``fold_in`` — keep absorbing batches incrementally;
* ``partial_refit`` — re-run the full alternation on the accumulated
  factors (anchors and assignments reused);
* ``full_refit`` — cold refit on everything seen (anchors re-selected).

Each detector consumes one :class:`BatchRecord` per batch through
``update``, returns a :class:`DriftDecision`, and accepts a
``notify_refit`` call when the model actually refits, so baselines
re-seed at the post-refit regime instead of chasing a stale one.  Each
detector defines and validates its own knobs; its ``threshold`` must be
positive (to run without a detector, leave it out of
``StreamingMVSC(detectors=...)``).

Both implementations guard against chattering the same way: a firing
detector *latches* (no re-fire until its severity falls below
``hysteresis * threshold``) and honours a ``cooldown`` of quiet batches,
so one sustained shift produces one refit, not one per batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError

#: Drift-ladder actions a streaming model can take between batches.
STREAM_ACTIONS = ("fold_in", "partial_refit", "full_refit")

#: Ladder position of each action (higher = more expensive).
_ACTION_RANK = {action: i for i, action in enumerate(STREAM_ACTIONS)}


@dataclass(frozen=True)
class BatchRecord:
    """One batch: the running state detectors consume, and its outcome.

    The streaming wrapper builds the record once the model has absorbed
    the batch, hands it to every detector, then completes ``action``,
    ``seconds`` and ``events`` once the ladder has run.

    Attributes
    ----------
    batch_index : int
        0-based batch counter (the initial fit is batch 0).
    n_new : int
        Rows in this batch.
    n_total : int
        Rows accumulated including this batch.
    objective : float
        The model's weighted view-disagreement objective after
        absorbing the batch (see ``AnchorMVSC.objective_``).  Grows
        with the accumulated ``n`` even on a stationary stream.
    batch_cost : float
        Mean nearest-anchor squared distance of this batch against the
        frozen anchors (``AnchorMVSC.batch_cost_``) — the scale-free
        drift signal.
    view_weights : tuple of float
        Learned view weights after absorbing the batch.
    action : str
        The action executed: ``"fit"`` for the first batch, else one of
        :data:`STREAM_ACTIONS`.
    seconds : float
        Wall-clock seconds of the whole batch, refit included.
    events : tuple of DriftEvent
        The detectors that fired on this batch.
    """

    batch_index: int
    n_new: int
    n_total: int
    objective: float
    batch_cost: float
    view_weights: tuple
    action: str = "fold_in"
    seconds: float = 0.0
    events: tuple = ()

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


@dataclass(frozen=True)
class DriftDecision:
    """One detector's verdict for one batch."""

    action: str
    severity: float = 0.0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in STREAM_ACTIONS:
            raise ValidationError(
                f"action must be one of {STREAM_ACTIONS}, got {self.action!r}"
            )

    @property
    def rank(self) -> int:
        """Ladder position (0 = fold_in ... 2 = full_refit)."""
        return _ACTION_RANK[self.action]


@dataclass(frozen=True)
class DriftEvent:
    """A detector firing, as recorded by the streaming wrapper.

    ``action`` is the action the wrapper *executed* for the batch (the
    max-severity demand across detectors), which may exceed what this
    detector alone asked for; ``demanded`` preserves the detector's own
    verdict.
    """

    batch_index: int
    detector: str
    kind: str
    severity: float
    action: str
    demanded: str
    reason: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (CLI / report embedding)."""
        return {
            "batch_index": self.batch_index,
            "detector": self.detector,
            "kind": self.kind,
            "severity": self.severity,
            "action": self.action,
            "demanded": self.demanded,
            "reason": self.reason,
            "details": dict(self.details),
        }


class _HysteresisLadder:
    """Shared latch/cooldown state machine of the concrete detectors.

    Subclasses provide :meth:`_severity` (and baseline bookkeeping via
    :meth:`_observe_quiet` / :meth:`_reset`); this class turns a
    severity into a ladder decision with latch-and-cooldown semantics.
    """

    name = "drift"
    kind = "drift"

    def __init__(self, threshold: float, hysteresis: float, cooldown: int):
        if threshold <= 0:
            raise ValidationError(f"threshold must be > 0, got {threshold}")
        if hysteresis < 0 or hysteresis > 1:
            raise ValidationError(
                f"hysteresis must be in [0, 1], got {hysteresis}"
            )
        if cooldown < 0:
            raise ValidationError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = float(threshold)
        self.hysteresis = float(hysteresis)
        self.cooldown = int(cooldown)
        self._alarmed = False
        self._cooldown_left = 0

    def update(self, stats: BatchRecord) -> DriftDecision:
        """Consume one batch's record; return the demanded ladder action."""
        severity = self._severity(stats)
        if severity is None:
            return DriftDecision("fold_in", 0.0, "baseline seeding")
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return DriftDecision(
                "fold_in",
                severity,
                f"cooldown ({self._cooldown_left + 1} batches left)",
            )
        if self._alarmed:
            if severity < self.threshold * self.hysteresis:
                self._alarmed = False
                self._observe_quiet(stats)
                return DriftDecision("fold_in", severity, "alarm cleared")
            return DriftDecision(
                "fold_in", severity, "alarm latched (hysteresis)"
            )
        if severity > 2.0 * self.threshold:
            self._alarmed = True
            self._cooldown_left = self.cooldown
            return DriftDecision(
                "full_refit",
                severity,
                f"severity {severity:.3f} > 2x threshold {self.threshold:g}",
            )
        if severity > self.threshold:
            self._alarmed = True
            self._cooldown_left = self.cooldown
            return DriftDecision(
                "partial_refit",
                severity,
                f"severity {severity:.3f} > threshold {self.threshold:g}",
            )
        self._observe_quiet(stats)
        return DriftDecision("fold_in", severity, "stationary")

    def notify_refit(self) -> None:
        """Re-arm and re-seed: the post-refit regime is the new normal."""
        self._alarmed = False
        self._cooldown_left = 0
        self._reset()

    # -- subclass hooks ----------------------------------------------------

    def _severity(self, stats: BatchRecord) -> float | None:
        """Severity of this batch vs the baseline; ``None`` while seeding."""
        raise NotImplementedError

    def _observe_quiet(self, stats: BatchRecord) -> None:
        """Fold a quiet batch into the baseline."""

    def _reset(self) -> None:
        """Drop the baseline (re-seeds on the next update)."""


class ObjectiveShiftDetector(_HysteresisLadder):
    """Fires when the per-batch objective leaves its trailing baseline.

    Watches ``batch_cost`` — the batch's mean nearest-anchor squared
    distance, which is flat on a stationary stream and jumps at a
    distribution shift.  (The cumulative alternation objective grows
    with ``n``, so it is reported but not watched.)

    The baseline is the mean signal of the last ``window`` *quiet*
    batches (alarmed/cooldown batches are excluded, so an active shift
    cannot poison the reference).  Severity is the relative deviation
    ``|value - baseline| / max(|baseline|, eps)``; ``partial_refit``
    above ``threshold``, ``full_refit`` above twice that.
    """

    name = "objective_shift"
    kind = "objective_shift"

    def __init__(
        self,
        *,
        threshold: float = 0.25,
        hysteresis: float = 0.5,
        cooldown: int = 2,
        window: int = 8,
    ) -> None:
        super().__init__(threshold, hysteresis, cooldown)
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._baseline: deque = deque(maxlen=self.window)

    def _severity(self, stats: BatchRecord) -> float | None:
        cost = float(stats.batch_cost)
        if not self._baseline:
            self._baseline.append(cost)
            return None
        base = float(np.mean(self._baseline))
        return abs(cost - base) / max(abs(base), 1e-12)

    def _observe_quiet(self, stats: BatchRecord) -> None:
        self._baseline.append(float(stats.batch_cost))

    def _reset(self) -> None:
        self._baseline.clear()


class ViewWeightShiftDetector(_HysteresisLadder):
    """Fires when the learned view weights drift from their reference.

    The reference is the normalized weight vector at the first batch
    after (re)seeding; severity is the total-variation distance
    ``0.5 * ||w - w_ref||_1`` of the normalized weights (in [0, 1]).  A
    weight shift means the *relative reliability of the views* changed —
    exactly the failure mode cheap fold-in cannot repair, because it
    keeps extending an embedding fused under the old weighting.
    """

    name = "view_weight_shift"
    kind = "view_weight_shift"

    def __init__(
        self,
        *,
        threshold: float = 0.15,
        hysteresis: float = 0.5,
        cooldown: int = 2,
    ) -> None:
        super().__init__(threshold, hysteresis, cooldown)
        self._reference: np.ndarray | None = None

    @staticmethod
    def _normalize(weights) -> np.ndarray:
        w = np.asarray(weights, dtype=np.float64)
        total = w.sum()
        return w / total if total > 0 else np.full_like(w, 1.0 / max(w.size, 1))

    def _severity(self, stats: BatchRecord) -> float | None:
        w = self._normalize(stats.view_weights)
        if self._reference is None or self._reference.shape != w.shape:
            self._reference = w
            return None
        return 0.5 * float(np.abs(w - self._reference).sum())

    def _reset(self) -> None:
        self._reference = None


def worst_decision(decisions) -> DriftDecision:
    """The max-severity demand across detectors (ladder rank, then severity)."""
    best = DriftDecision("fold_in", 0.0, "no detectors")
    for decision in decisions:
        if (decision.rank, decision.severity) > (best.rank, best.severity):
            best = decision
    return best
