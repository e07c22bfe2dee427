"""The run context follows work into worker threads.

A result must not depend on how it was scheduled: ``use_jobs(4)`` must
give the same labels, the same spans, the same armed faults and the same
failure-policy outcome as ``use_jobs(1)``.  And because the open span is
a field of the run context rather than a per-trace stack, spans opened
on one thread never nest under a span another thread has open.  The run
context is also the only place execution settings are chosen: no model,
predictor or harness function takes its own backend, job count, cache or
block size.
"""

from __future__ import annotations

import contextvars
import inspect
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.context import current_context
from repro.core.model import UnifiedMVSC
from repro.datasets.synth import make_multiview_blobs
from repro.exceptions import RecoveryExhaustedError
from repro.observability import Trace, TraceRecorder, span, use_trace
from repro.pipeline.parallel import parallel_map, use_jobs
from repro.robust.faults import FaultSpec, inject_faults
from repro.robust.policy import FailurePolicy, collect_recoveries, use_policy

JOB_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def four_views():
    return make_multiview_blobs(
        80, 3, view_dims=(6, 8, 7, 5), random_state=3
    )


def _fit(ds, n_jobs, *, faults=()):
    """Fit under a trace (and optionally a fault plan) at one job count."""
    with use_trace(Trace(f"jobs={n_jobs}")) as trace, \
            inject_faults(*faults) as plan, \
            collect_recoveries() as recoveries, use_jobs(n_jobs):
        result = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views)
    return result, trace, plan, recoveries


def _span_names(trace) -> Counter:
    return Counter(s.name for s in trace.spans)


def _recovery_keys(recoveries) -> Counter:
    return Counter((e.site, e.strategy, e.succeeded) for e in recoveries)


class TestSchedulingParity:
    def test_labels_and_span_names_match(self, four_views):
        runs = {jobs: _fit(four_views, jobs) for jobs in JOB_COUNTS}
        serial, parallel = runs[1], runs[4]
        np.testing.assert_array_equal(serial[0].labels, parallel[0].labels)
        names = _span_names(serial[1])
        assert names["view_affinity"] == len(four_views.views)
        assert _span_names(parallel[1]) == names

    def test_worker_spans_nest_under_the_calling_span(self, four_views):
        _, trace, _, _ = _fit(four_views, 4)
        views = [s for s in trace.spans if s.name == "view_affinity"]
        assert all(s.thread != threading.get_ident() for s in views)
        parents = {s.parent_id for s in views}
        assert len(parents) == 1 and None not in parents
        assert parents <= {s.span_id for s in trace.spans}

    @pytest.mark.faults
    def test_armed_fault_fires_and_recovers_in_workers(self, four_views):
        fault = FaultSpec("graph.affinity", mode="raise")
        runs = {
            jobs: _fit(four_views, jobs, faults=(fault,))
            for jobs in JOB_COUNTS
        }
        for _, _, plan, recoveries in runs.values():
            assert len(plan.triggered) == 1
            assert _recovery_keys(recoveries) == Counter(
                {("graph.affinity", "retry", True): 1}
            )
        np.testing.assert_array_equal(runs[1][0].labels, runs[4][0].labels)
        assert _span_names(runs[1][1]) == _span_names(runs[4][1])
        assert (
            _recovery_keys(runs[1][0].diagnostics.recoveries)
            == _recovery_keys(runs[4][0].diagnostics.recoveries)
        )

    @pytest.mark.faults
    def test_failure_policy_reaches_workers(self, four_views):
        persistent = FaultSpec("graph.affinity", mode="raise", times=None)
        errors = {}
        for jobs in JOB_COUNTS:
            with use_policy(FailurePolicy(max_retries=0)):
                with pytest.raises(RecoveryExhaustedError) as info:
                    _fit(four_views, jobs, faults=(persistent,))
            errors[jobs] = info.value
        assert errors[1].site == errors[4].site == "graph.affinity"
        assert errors[1].attempts == errors[4].attempts
        assert errors[1].context == errors[4].context


class TestSpanNesting:
    def test_nested_trace_starts_its_own_tree(self):
        with use_trace(Trace("outer")) as outer:
            with span("a"):
                with use_trace(Trace("inner")) as inner:
                    with span("b"):
                        pass
        (b,) = inner.spans
        assert (b.depth, b.parent, b.parent_id) == (0, None, None)
        assert [s.name for s in outer.spans] == ["a"]


class TestCrossThreadSpans:
    def test_worker_spans_never_nest_under_another_threads_span(self):
        trace = Trace("threads")
        worker_started = threading.Event()
        main_span_open = threading.Event()

        def worker():
            worker_started.set()
            main_span_open.wait(timeout=5)
            for i in range(3):
                with span(f"worker.{i}"):
                    pass

        with use_trace(trace):
            # The serving worker's pattern: a thread running under a
            # copy of the context taken before any span opened.
            context = contextvars.copy_context()
            thread = threading.Thread(target=lambda: context.run(worker))
            thread.start()
            worker_started.wait(timeout=5)
            with span("client.outer"):
                main_span_open.set()
                thread.join(timeout=5)
            assert not thread.is_alive()
            assert current_context().span is None
        by_name = {s.name: s for s in trace.spans}
        for i in range(3):
            record = by_name[f"worker.{i}"]
            assert (record.depth, record.parent, record.parent_id) == (
                0, None, None,
            )
        outer = by_name["client.outer"]
        assert (outer.depth, outer.parent) == (0, None)
        assert outer.thread == threading.get_ident()
        assert len(trace.spans) == 4

    def test_concurrent_spans_all_recorded_under_their_own_parents(self):
        n_tasks, n_leaves = 8, 200  # more worker threads than cores
        recorder = TraceRecorder()
        trace = Trace("stress", sinks=[recorder])

        def task(i):
            with span("task", i=i):
                for _ in range(n_leaves):
                    with span("leaf"):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_trace(trace), use_jobs(n_tasks):
                parallel_map(task, range(n_tasks))
        finally:
            sys.setswitchinterval(interval)
        assert len(trace.spans) == n_tasks * (n_leaves + 1)
        assert len(recorder.spans) == len(trace.spans)
        tasks = {s.span_id: s for s in trace.spans if s.name == "task"}
        assert all(s.depth == 0 and s.parent is None for s in tasks.values())
        leaves = [s for s in trace.spans if s.name == "leaf"]
        assert Counter(s.parent_id for s in leaves) == Counter(
            {span_id: n_leaves for span_id in tasks}
        )
        assert all(
            s.depth == 1 and tasks[s.parent_id].thread == s.thread
            for s in leaves
        )


def _execution_knob_callables():
    from repro.core.config import UMSCConfig
    from repro.core.graph_builder import (
        build_laplacians,
        build_multiview_affinities,
    )
    from repro.core.anchor_model import AnchorMVSC
    from repro.core.sparse_model import SparseMVSC
    from repro.core.tuning import tune_umsc
    from repro.evaluation.runner import run_experiment
    from repro.evaluation.sweeps import grid_sweep
    from repro.pipeline.cache import memoized_parallel
    from repro.serving.predictor import Predictor
    from repro.streaming import StreamingMVSC

    return {
        "UnifiedMVSC": UnifiedMVSC,
        "UMSCConfig": UMSCConfig,
        "SparseMVSC": SparseMVSC,
        "AnchorMVSC": AnchorMVSC,
        "Predictor": Predictor,
        "Predictor.load": Predictor.load,
        "UnifiedMVSC.load": UnifiedMVSC.load,
        "SparseMVSC.load": SparseMVSC.load,
        "AnchorMVSC.load": AnchorMVSC.load,
        "run_experiment": run_experiment,
        "grid_sweep": grid_sweep,
        "tune_umsc": tune_umsc,
        "StreamingMVSC.from_config": StreamingMVSC.from_config,
        "build_multiview_affinities": build_multiview_affinities,
        "build_laplacians": build_laplacians,
        "memoized_parallel": memoized_parallel,
        "parallel_map": parallel_map,
    }


@pytest.mark.parametrize("name", sorted(_execution_knob_callables()))
def test_execution_settings_come_only_from_the_run_context(name):
    fn = _execution_knob_callables()[name]
    params = set(inspect.signature(fn).parameters)
    assert not params & {"backend", "n_jobs", "cache", "block"}, name
