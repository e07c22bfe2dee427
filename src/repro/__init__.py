"""repro — unified one-stage multi-view spectral clustering.

A from-scratch reproduction of Zhong & Pun, *A Unified Framework for
Multi-view Spectral Clustering* (ICDE 2020): the
:class:`~repro.core.model.UnifiedMVSC` model learns the discrete cluster
indicator matrix jointly with a shared spectral embedding, an orthogonal
rotation, and auto-tuned view weights — no K-means stage anywhere — plus
every substrate the evaluation needs: graph construction, eigensolvers,
K-means (for the two-stage baselines), ten comparison algorithms, metrics,
benchmark-shaped datasets, and an experiment harness.

Quickstart
----------
>>> from repro import UnifiedMVSC, load_benchmark
>>> ds = load_benchmark("msrcv1")
>>> result = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views)
>>> labels = result.labels  # final clustering, read directly off Y
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "UnifiedMVSC": "core.model",
    "UMSCResult": "core.result",
    "TwoStageMVSC": "core.two_stage",
    "AnchorMVSC": "core.anchor_model",
    "SparseMVSC": "core.sparse_model",
    "IncompleteMVSC": "core.incomplete",
    "propagate_labels": "core.out_of_sample",
    "available_benchmarks": "datasets.benchmarks",
    "load_benchmark": "datasets.benchmarks",
    "MultiViewDataset": "datasets.container",
    "make_multiview_blobs": "datasets.synth",
    "run_experiment": "evaluation.runner",
    "evaluate_clustering": "metrics.report",
    "ReproError": "exceptions",
    "ValidationError": "exceptions",
    "NumericalError": "exceptions",
    "RecoveryExhaustedError": "exceptions",
    "DatasetError": "exceptions",
    "ArtifactError": "exceptions",
    "ServiceOverloadedError": "exceptions",
    "ServiceClosedError": "exceptions",
    "ConvergenceWarning": "exceptions",
    "MonotonicityWarning": "exceptions",
    "ClampWarning": "exceptions",
    "ModelArtifact": "serving.artifact",
    "Predictor": "serving.predictor",
    "PredictionService": "serving.service",
    "FitCallback": "observability.events",
    "FitDiagnostics": "observability.events",
    "IterationEvent": "observability.events",
    "JsonlSink": "observability.sinks",
    "LoggingSink": "observability.sinks",
    "Trace": "observability.trace",
    "TraceRecorder": "observability.sinks",
    "current_trace": "observability.trace",
    "span": "observability.trace",
    "use_trace": "observability.trace",
    "ComputationCache": "pipeline.cache",
    "current_cache": "pipeline.cache",
    "use_cache": "pipeline.cache",
    "use_jobs": "pipeline.parallel",
    "ArrayBackend": "backends.base",
    "available_backends": "backends",
    "current_backend": "backends",
    "get_backend": "backends",
    "use_backend": "backends",
    "FailurePolicy": "robust.policy",
    "FaultSpec": "robust.faults",
    "RecoveryEvent": "robust.policy",
    "inject_faults": "robust.faults",
    "registered_fault_sites": "robust.faults",
    "use_policy": "robust.policy",
    "StreamingMVSC": "streaming.model",
    "DriftEvent": "streaming.drift",
    "ObjectiveShiftDetector": "streaming.drift",
    "ViewWeightShiftDetector": "streaming.drift",
})
__all__.append("__version__")
