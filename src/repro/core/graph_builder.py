"""Per-view graph construction for multi-view algorithms.

Centralizes the recipe every algorithm in this repo (the unified framework
and all baselines) uses to turn raw views into affinities and Laplacians,
so method comparisons differ only in the *algorithm*, never in the graph.

Because the recipe is a pure function of (view bytes, affinity kind, k,
normalization), both builders memoize through the ambient
:mod:`repro.pipeline` cache when one is active, and the per-view loop can
run on a thread pool (views are independent); either way the output is
bit-identical to the serial, uncached path.
"""

from __future__ import annotations

import numpy as np

from repro.graph.affinity import build_view_affinity
from repro.graph.laplacian import laplacian
from repro.observability.trace import hot_span
from repro.pipeline.cache import memoized_parallel
from repro.robust.faults import register_fault_site
from repro.robust.policy import matrix_context, run_with_policy
from repro.utils.validation import check_views

_SITE_AFFINITY = register_fault_site(
    "graph.affinity", "one per-view affinity construction (build_view_affinity)"
)


def _looks_text_like(x: np.ndarray) -> bool:
    """Heuristic for sparse non-negative bag-of-words-style views."""
    if np.any(x < 0):
        return False
    nonzero_fraction = np.count_nonzero(x) / x.size
    return nonzero_fraction < 0.5


def resolve_view_kind(x: np.ndarray, kind: str) -> str:
    """Resolve the ``auto`` affinity kind for one view."""
    if kind != "auto":
        return kind
    return "cosine" if _looks_text_like(x) else "self_tuning"


def build_multiview_affinities(
    views,
    *,
    kind: str = "auto",
    n_neighbors: int = 10,
) -> list[np.ndarray]:
    """One symmetric non-negative affinity per view.

    Parameters
    ----------
    views : sequence of ndarray (n, d_v)
        Raw per-view features.
    kind : str
        Affinity kind; ``auto`` picks cosine for sparse non-negative views
        (text) and self-tuning Gaussian otherwise.
    n_neighbors : int
        k-NN sparsification / local scaling parameter.

    The per-view builds run on the run context's worker count
    (:func:`repro.pipeline.parallel.use_jobs`; serial unless installed).

    Returns
    -------
    list of ndarray (n, n)
    """
    views = check_views(views, "views")
    tasks = [(i, x, resolve_view_kind(x, kind)) for i, x in enumerate(views)]

    def compute(task):
        # One view's affinity under the failure policy (retry-only site).
        i, x, view_kind = task
        with hot_span("view_affinity", view=i, kind=view_kind, n=x.shape[0]):
            return run_with_policy(
                _SITE_AFFINITY,
                lambda perturb: build_view_affinity(
                    x, kind=view_kind, k=n_neighbors
                ),
                context=lambda: matrix_context(x, "view"),
            )

    return memoized_parallel(
        tasks,
        compute,
        namespace="affinity",
        key_arrays=lambda task: (task[1],),
        key_params=lambda task: {"kind": task[2], "k": int(n_neighbors)},
    )


def build_laplacians(affinities) -> list[np.ndarray]:
    """One symmetric normalized Laplacian per affinity (cached and
    parallel like the affinity builder)."""
    return memoized_parallel(
        affinities,
        laplacian,
        namespace="laplacian",
        key_arrays=lambda w: (w,),
        # ``normalization`` stays in the key so on-disk entries written
        # by earlier releases keep their addresses.
        key_params={"normalization": "symmetric"},
    )
