"""Overhead budget of the disarmed robustness harness.

Every numerical kernel now routes through :func:`repro.robust.policy.
run_with_policy` and :func:`repro.robust.faults.maybe_inject`.  With no
fault plan armed and the default policy, that machinery must be nearly
free: the design budget is **< 2% wall-clock overhead** on a full
``UnifiedMVSC.fit`` of the medium dataset.

The bench measures it directly: it times the real fit against a bypassed
variant where every call site's ``run_with_policy`` / ``maybe_inject``
binding is replaced by a raw passthrough (the pre-harness code shape),
interleaving the two variants and taking the per-variant minimum so OS
noise cancels instead of accumulating.
"""

from __future__ import annotations

import time

import numpy as np

import repro.cluster.kmeans as kmeans_mod
import repro.core.discrete as discrete_mod
import repro.core.graph_builder as graph_builder_mod
import repro.core.model as model_mod
import repro.linalg.eigen as eigen_mod
import repro.linalg.gpi as gpi_mod
import repro.linalg.procrustes as procrustes_mod
from repro.core.model import UnifiedMVSC
from repro.datasets import make_multiview_blobs

#: Interleaved repetitions per variant; min-of-N is the statistic.
N_REPS = 5

#: Relative budget plus a small absolute allowance for timer jitter.
REL_BUDGET = 1.02
ABS_SLACK_SECONDS = 0.05

#: (module, attribute) pairs whose policy/injection bindings get bypassed.
_POLICY_SITES = [
    (eigen_mod, "run_with_policy"),
    (procrustes_mod, "run_with_policy"),
    (kmeans_mod, "run_with_policy"),
    (graph_builder_mod, "run_with_policy"),
    (model_mod, "run_with_policy"),
]
_INJECT_SITES = [
    (gpi_mod, "maybe_inject"),
    (discrete_mod, "maybe_inject"),
    (model_mod, "maybe_inject"),
]


def _bypass_run_with_policy(
    site, primary, *, fallbacks=(), validate=None, context=None
):
    """The pre-harness shape: call the kernel, nothing else."""
    return primary(0.0)


def _bypass_maybe_inject(site, value=None):
    """The pre-harness shape: return the value, nothing else."""
    return value


class _bypass_harness:
    """Temporarily replace every call site's harness bindings."""

    def __enter__(self):
        self._saved = []
        for mod, name in _POLICY_SITES:
            self._saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, _bypass_run_with_policy)
        for mod, name in _INJECT_SITES:
            self._saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, _bypass_maybe_inject)
        return self

    def __exit__(self, *exc):
        for mod, name, original in self._saved:
            setattr(mod, name, original)
        return False


def _medium_dataset():
    return make_multiview_blobs(
        160,
        4,
        view_dims=(20, 30, 15),
        view_noise=(0.2, 0.4, 0.6),
        separation=4.5,
        random_state=11,
    )


def _time_fit(views, n_clusters) -> float:
    start = time.perf_counter()
    UnifiedMVSC(n_clusters, random_state=0).fit(views)
    return time.perf_counter() - start


def measure_overhead() -> dict:
    """Min-of-N fit seconds with the harness in place vs bypassed."""
    ds = _medium_dataset()
    # Warm both paths (LAPACK thread pools, allocator, imports).
    _time_fit(ds.views, ds.n_clusters)
    with _bypass_harness():
        _time_fit(ds.views, ds.n_clusters)
    harness, bypass = [], []
    for _ in range(N_REPS):
        harness.append(_time_fit(ds.views, ds.n_clusters))
        with _bypass_harness():
            bypass.append(_time_fit(ds.views, ds.n_clusters))
    return {
        "harness_s": min(harness),
        "bypass_s": min(bypass),
        "overhead": min(harness) / min(bypass) - 1.0,
    }


def test_noop_harness_overhead_under_two_percent():
    """Disarmed harness must stay within the <2% fit-time budget."""
    stats = measure_overhead()
    budget = stats["bypass_s"] * REL_BUDGET + ABS_SLACK_SECONDS
    assert stats["harness_s"] <= budget, (
        f"disarmed harness overhead {stats['overhead']:+.1%} "
        f"(harness {stats['harness_s']:.3f}s vs bypass "
        f"{stats['bypass_s']:.3f}s) exceeds the 2% budget"
    )


def test_bypassed_fit_is_equivalent():
    """The bypass used for timing preserves fit output exactly, so the
    comparison above times identical numerical work."""
    ds = _medium_dataset()
    real = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views)
    with _bypass_harness():
        bypassed = UnifiedMVSC(ds.n_clusters, random_state=0).fit(ds.views)
    np.testing.assert_array_equal(real.labels, bypassed.labels)
    np.testing.assert_array_equal(real.embedding, bypassed.embedding)


if __name__ == "__main__":
    stats = measure_overhead()
    print(
        f"harness {stats['harness_s']:.4f}s  bypass {stats['bypass_s']:.4f}s"
        f"  overhead {stats['overhead']:+.2%}"
    )
