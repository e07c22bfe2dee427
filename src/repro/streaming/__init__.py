"""Streaming multi-view clustering: incremental fits plus drift control.

The package layers three pieces over the anchor model's fold-in
machinery (see :mod:`repro.core.anchor_model`):

* :mod:`repro.streaming.drift` — the per-batch :class:`BatchRecord`
  and the objective-shift and view-weight-shift detectors (latch +
  cooldown, so a sustained shift fires once);
* :mod:`repro.streaming.model` — :class:`StreamingMVSC`, the per-batch
  protocol (fold in, consult detectors, escalate to a refit, record
  typed events);
* the batch schedules themselves come from
  :func:`repro.datasets.scenarios.stream_batches`.

See ``docs/streaming.md`` for the end-to-end guide.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BatchRecord": "drift",
    "DriftDecision": "drift",
    "DriftEvent": "drift",
    "ObjectiveShiftDetector": "drift",
    "StreamingMVSC": "model",
    "ViewWeightShiftDetector": "drift",
    "worst_decision": "drift",
})
