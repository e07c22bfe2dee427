"""Model serving: fitted-model artifacts, batch inference, micro-batching.

The serving layer turns a fitted multi-view clustering into a deployable
unit:

* :class:`~repro.serving.artifact.ModelArtifact` — versioned on-disk
  snapshot (npz arrays + JSON manifest) with schema validation and a
  content hash; ``save``/``load`` round-trips are bit-identical.
* :class:`~repro.serving.predictor.Predictor` — inductive batch
  inference over an artifact via the multi-view kernel vote
  (:func:`~repro.serving.predictor.kernel_vote_scores`, the single
  implementation shared with
  :func:`repro.core.out_of_sample.propagate_labels`).
* :class:`~repro.serving.service.PredictionService` — thread-based
  micro-batching request queue with backpressure, graceful shutdown,
  and a service-owned runtime-telemetry registry (request latency
  histograms, queue-depth gauge); :func:`~repro.serving.service.replay`
  drives it with closed-loop client threads.
* :class:`~repro.serving.telemetry.TelemetryServer` — opt-in localhost
  HTTP thread exposing ``/metrics`` (Prometheus text), ``/healthz``
  (draining-aware), and ``/stats`` (JSON) for a running service.

This package never imports :mod:`repro.core`; the dependency points the
other way (models gain ``save``/``load`` by building artifacts here).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ModelArtifact": "artifact",
    "Predictor": "predictor",
    "PredictionService": "service",
    "ServiceStats": "service",
    "TelemetryServer": "telemetry",
    "kernel_vote_scores": "predictor",
    "library_versions": "artifact",
    "replay": "service",
})
