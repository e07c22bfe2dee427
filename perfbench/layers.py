"""Per-layer attribution for the traced pass.

The program is not modified: each layer's public entry points are
replaced, for the duration of one pass, by wrappers that time the call.
Callers bind names with ``from ... import``, so a module function is
replaced in every loaded ``repro.*`` module that holds the same object;
methods are replaced on their class (or, for the active array backend
and the drift detectors, on the instance).  :meth:`LayerTracer.restore`
puts every original back.

A wrapped call's *self time* is its duration minus the time spent in
wrapped calls nested inside it on the same thread; each thread keeps its
own stack, so the serving worker's calls are attributed to the worker.
None of this touches ``repro.observability``: enabling a trace there
would change what the solvers compute (UMSC adds an eigensolve for its
eigengap probe).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class LayerTracer:
    """Wrap layer entry points and accumulate self time, calls and counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Sum of top-level wrapped durations per thread name.
        self.top_s: dict[str, float] = defaultdict(float)
        #: Duration of the latest call of each metric (any thread).
        self.last_s: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self._originals: dict = {}  # function wrapper -> original

    # -- timing --------------------------------------------------------------

    def wrap(self, metric: str, fn, on_result=None):
        """Return ``fn`` timed under ``metric``.

        ``on_result(tracer, args, kwargs, result)`` runs after a
        successful call, outside the timed interval, to record counts.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_s[metric] += elapsed - frame[0]
                    self.calls[metric] += 1
                    self.last_s[metric] = elapsed
                    if not stack:
                        self.top_s[threading.current_thread().name] += elapsed
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr: str, metric: str, on_result=None):
        """Replace ``module.attr`` in every loaded ``repro`` module."""
        original = getattr(module, attr)
        wrapper = self.wrap(metric, original, on_result)
        self._originals[wrapper] = original
        self._rebind({original: wrapper})

    def patch_method(self, owner, attr: str, metric: str, on_result=None):
        """Replace ``owner.attr`` on a class or on a single instance."""
        own = owner.__dict__ if isinstance(owner, type) else vars(owner)
        original = own.get(attr)
        setattr(owner, attr, self.wrap(metric, getattr(owner, attr), on_result))
        if original is None:
            self._undo.append((delattr, owner, attr))
        else:
            self._undo.append((setattr, owner, attr, original))

    def restore(self) -> None:
        """Put every patched binding back, newest first.

        Module bindings are found again by identity, so a module imported
        while the wrappers were installed is cleaned up too.
        """
        while self._undo:
            op, *args = self._undo.pop()
            op(*args)
        self._rebind(self._originals)
        self._originals.clear()

    @staticmethod
    def _rebind(replacements: dict) -> None:
        """Swap every ``repro.*`` module binding that is a key, by identity."""
        by_id = {id(old): new for old, new in replacements.items()}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in by_id:
                    setattr(mod, key, by_id[id(value)])


class IterationCounter:
    """Public ``FitCallback`` counting outer iterations per solver."""

    def __init__(self) -> None:
        self.iterations: dict[str, int] = defaultdict(int)

    def on_iteration(self, event) -> None:
        self.iterations[event.solver] += 1


def _rows(name: str):
    """``on_result`` that counts the rows of the first argument."""

    def record(tracer, args, kwargs, result):
        tracer.count(name, np.shape(args[0])[0])

    return record


def _predict_rows(tracer, args, kwargs, result):
    tracer.count("serving.predict.rows", np.shape(result)[0])


def _gpi_iters(tracer, args, kwargs, result):
    tracer.count("linalg.gpi.inner_iters", result.n_iter)


def _coord_descent(tracer, args, kwargs, result):
    m, labels = args[0], args[1]
    tracer.count("core.discrete.coord_descent.rows", np.shape(m)[0])
    tracer.count(
        "core.discrete.coord_descent.moves",
        int(np.count_nonzero(np.asarray(result) != np.asarray(labels))),
    )


#: Backend kernels timed on the active backend instance.
BACKEND_KERNELS = (
    "pairwise_sq_euclidean",
    "knn_select",
    "anchor_can_weights",
    "kernel_vote_scores",
)


#: ``(module, function, metric, on_result)`` for every wrapped function.
#: Modules are named, not imported as attributes: ``repro.graph``
#: re-exports the ``laplacian`` function under its submodule's name.
FUNCTIONS = (
    ("repro.graph.affinity", "build_view_affinity", "graph.affinity", None),
    ("repro.graph.laplacian", "laplacian", "graph.laplacian", None),
    ("repro.core.graph_builder", "build_laplacians", "graph.laplacian", None),
    ("repro.graph.sparse", "sparse_knn_affinity", "graph.sparse", None),
    ("repro.graph.sparse", "sparse_laplacian", "graph.sparse", None),
    ("repro.graph.anchor", "select_anchors", "graph.anchor.select", None),
    (
        "repro.graph.anchor",
        "anchor_assignment",
        "graph.anchor.assign",
        _rows("graph.anchor.assign.rows"),
    ),
    (
        "repro.graph.anchor",
        "anchor_affinity_factor",
        "graph.anchor.factor",
        _rows("graph.anchor.factor.rows"),
    ),
    ("repro.linalg.eigen", "eigsh_smallest", "linalg.eigsh", None),
    ("repro.linalg.gpi", "gpi_stiefel", "linalg.gpi", _gpi_iters),
    ("repro.linalg.procrustes", "nearest_orthogonal", "linalg.procrustes", None),
    (
        "repro.core.discrete",
        "rotation_initialize",
        "core.discrete.rotation_init",
        None,
    ),
    (
        "repro.core.discrete",
        "indicator_coordinate_descent",
        "core.discrete.coord_descent",
        _coord_descent,
    ),
    ("repro.core.objective", "umsc_objective", "core.objective", None),
    ("repro.core.objective", "spectral_costs", "core.objective", None),
)


def install(tracer: LayerTracer) -> None:
    """Wrap the public entry point of every measured layer."""
    from repro.backends import current_backend
    from repro.core.anchor_model import AnchorMVSC
    from repro.core.model import UnifiedMVSC
    from repro.core.sparse_model import SparseMVSC
    from repro.serving.predictor import Predictor
    from repro.serving.service import PredictionService
    from repro.streaming.model import StreamingMVSC

    for module, attr, metric, on_result in FUNCTIONS:
        tracer.patch_function(
            importlib.import_module(module), attr, metric, on_result
        )

    methods = [
        (UnifiedMVSC, "fit", "core.model", None),
        (SparseMVSC, "fit_predict", "core.sparse_model", None),
        (AnchorMVSC, "fit_predict", "core.anchor_model", None),
        (AnchorMVSC, "partial_fit", "core.anchor_model", None),
        (AnchorMVSC, "partial_refit", "core.anchor_model", None),
        (AnchorMVSC, "refit", "core.anchor_model", None),
        (StreamingMVSC, "partial_fit", "streaming.partial_fit", None),
        (PredictionService, "submit", "serving.submit", None),
        (Predictor, "predict", "serving.predict", _predict_rows),
    ]
    for owner, attr, metric, on_result in methods:
        tracer.patch_method(owner, attr, metric, on_result)

    backend = current_backend()
    for kernel in BACKEND_KERNELS:
        tracer.patch_method(backend, kernel, f"backends.{kernel}")


def install_detectors(tracer: LayerTracer, streaming_model) -> None:
    """Time each drift detector's ``update`` on one streaming model."""
    for detector in streaming_model.detectors:
        tracer.patch_method(detector, "update", "streaming.drift")


#: Layers reported with ``<layer>.self_s``.
SELF_TIMED = (
    "graph.affinity",
    "graph.laplacian",
    "graph.sparse",
    "graph.anchor.select",
    "graph.anchor.assign",
    "graph.anchor.factor",
    *(f"backends.{kernel}" for kernel in BACKEND_KERNELS),
    "linalg.eigsh",
    "linalg.gpi",
    "linalg.procrustes",
    "core.discrete.rotation_init",
    "core.discrete.coord_descent",
    "core.objective",
    "core.model",
    "core.sparse_model",
    "core.anchor_model",
    "streaming.partial_fit",
    "streaming.drift",
    "serving.submit",
    "serving.predict",
)

#: Layers also reported with ``<layer>.calls``.
CALL_COUNTED = (
    "linalg.eigsh",
    "linalg.gpi",
    "linalg.procrustes",
    "core.discrete.rotation_init",
    "core.discrete.coord_descent",
    "serving.submit",
    "serving.predict",
)

#: Work counts recorded by the ``on_result`` hooks.
COUNTS = (
    "graph.anchor.assign.rows",
    "graph.anchor.factor.rows",
    "linalg.gpi.inner_iters",
    "core.discrete.coord_descent.rows",
    "core.discrete.coord_descent.moves",
    "serving.predict.rows",
)

#: Solver class behind each ``<layer>.iterations`` metric.
ITERATED = {
    "core.model": "UnifiedMVSC",
    "core.sparse_model": "SparseMVSC",
    "core.anchor_model": "AnchorMVSC",
}


def per_layer_metrics(
    tracer: LayerTracer,
    counter: IterationCounter,
    *,
    traced_wall: float,
    trace_overhead: float,
    recoveries: int,
    extras: dict,
) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    A layer the workload never reached reports 0.  The main thread's
    wrapped self times plus ``bench.unwrapped_s`` add up to
    ``bench.traced_wall_s``; time wrapped on other threads (the serving
    worker) is ``bench.worker_wrapped_s``.
    """
    metrics = {
        f"{layer}.self_s": (tracer.self_s.get(layer, 0.0), "s")
        for layer in SELF_TIMED
    }
    for layer in CALL_COUNTED:
        metrics[f"{layer}.calls"] = (float(tracer.calls.get(layer, 0)), "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0.0), "count")
    rows = tracer.counts.get("core.discrete.coord_descent.rows", 0.0)
    moves = tracer.counts.get("core.discrete.coord_descent.moves", 0.0)
    metrics["core.discrete.move_ratio"] = (moves / rows if rows else 0.0, "ratio")
    for layer, solver in ITERATED.items():
        iterations = float(counter.iterations.get(solver, 0))
        metrics[f"{layer}.iterations"] = (iterations, "count")
    calls = tracer.calls.get("serving.predict", 0)
    predicted = tracer.counts.get("serving.predict.rows", 0.0)
    metrics["serving.batch_mean"] = (predicted / calls if calls else 0.0, "rows")
    metrics["robust.recoveries"] = (float(recoveries), "count")
    main = threading.main_thread().name
    metrics["bench.trace_overhead"] = (trace_overhead, "ratio")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    main_wrapped = tracer.top_s.get(main, 0.0)
    worker_wrapped = sum(tracer.top_s.values(), 0.0) - main_wrapped
    metrics["bench.unwrapped_s"] = (traced_wall - main_wrapped, "s")
    metrics["bench.worker_wrapped_s"] = (worker_wrapped, "s")
    metrics.update(extras)
    return metrics
