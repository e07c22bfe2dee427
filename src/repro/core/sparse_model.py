"""Sparse-graph variant of the unified framework.

:class:`SparseMVSC` keeps the exact k-NN neighborhood structure (unlike
the anchor variant's low-rank approximation) but stores every graph as
CSR and solves the embedding with Lanczos, so memory is ``O(nk)`` per view
instead of ``O(n^2)``.  The F→R→Y→w iteration itself is
:func:`repro.core.alternation.alternate`, the same driver the dense and
anchor models run; this module supplies only the CSR representation.

The lam-coupling is dropped (as in :class:`~repro.core.anchor_model.
AnchorMVSC`): re-solving the coupled Stiefel problem per iteration would
need dense shifted operators, defeating the sparsity.  This sits at the
spectral-rotation end of the framework.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend, use_backend
from repro.core.alternation import SITE_FIT, alternate, fit_start
from repro.core.config import check_solver_params
from repro.core.objective import spectral_costs
from repro.core.persistence import ServableModelMixin
from repro.core.weights import fusion_multipliers, weighted_sum
from repro.exceptions import ValidationError
from repro.graph.sparse import sparse_knn_affinity, sparse_laplacian
from repro.linalg.eigen import eigsh_smallest
from repro.observability.trace import span
from repro.pipeline.cache import memoized_parallel
from repro.robust.faults import maybe_inject
from repro.robust.policy import failure_guard
from repro.utils.rng import check_random_state
from repro.utils.validation import check_views


class SparseMVSC(ServableModelMixin):
    """Sparse-graph multi-view spectral clustering (exact neighborhoods).

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    n_neighbors : int
        k-NN graph size per view.
    gamma : float
        Weight-smoothing exponent for ``exponential`` weighting.
    weighting : {"exponential", "parameter_free", "uniform"}
        View-weighting regime.
    max_iter : int
        Outer alternations.
    n_restarts : int
        Rotation-initialization restarts.
    block : int
        Query block size for graph construction (memory knob).
    n_jobs : int or None
        Worker threads for per-view graph construction; ``None`` defers
        to the ambient :func:`repro.pipeline.parallel.use_jobs` default
        (serial).  Results are identical for any value.
    backend : str or None
        Compute backend for the hot kernels during :meth:`fit_predict`
        (see :mod:`repro.backends`); ``None`` defers to the ambient
        backend.
    random_state : int, Generator, or None
    callbacks : sequence of FitCallback, optional
        Listeners receiving one :class:`~repro.observability.events.
        IterationEvent` per outer iteration (see
        :mod:`repro.observability`).
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_neighbors: int = 10,
        gamma: float = 2.0,
        weighting: str = "exponential",
        max_iter: int = 10,
        n_restarts: int = 10,
        block: int = 512,
        n_jobs: int | None = None,
        backend: str | None = None,
        random_state=None,
        callbacks=(),
    ) -> None:
        check_solver_params(
            n_clusters,
            max_iter=max_iter,
            weighting=weighting,
            gamma=gamma,
            n_restarts=n_restarts,
            block=block,
            n_neighbors=n_neighbors,
        )
        self.n_clusters = int(n_clusters)
        self.n_neighbors = int(n_neighbors)
        self.gamma = float(gamma)
        self.weighting = weighting
        self.max_iter = int(max_iter)
        self.n_restarts = int(n_restarts)
        self.block = int(block)
        self.n_jobs = n_jobs
        self.backend = None if backend is None else get_backend(backend).name
        self.random_state = random_state
        self.callbacks = tuple(callbacks)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_clusters={self.n_clusters}, "
            f"n_neighbors={self.n_neighbors}, gamma={self.gamma}, "
            f"weighting={self.weighting!r}, max_iter={self.max_iter}, "
            f"n_restarts={self.n_restarts}, block={self.block})"
        )

    def _serving_config(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "n_neighbors": self.n_neighbors,
            "gamma": self.gamma,
            "weighting": self.weighting,
            "max_iter": self.max_iter,
            "n_restarts": self.n_restarts,
            "block": self.block,
        }

    def fit_predict(self, views) -> np.ndarray:
        """Cluster raw multi-view features with sparse graphs throughout.

        Runs under the unified failure guard: only
        :class:`~repro.exceptions.ReproError` subclasses can escape.
        """
        with use_backend(self.backend), failure_guard(SITE_FIT):
            maybe_inject(SITE_FIT)
            return self._fit_predict(views)

    def _fit_predict(self, views) -> np.ndarray:
        """Body of :meth:`fit_predict`, run under the failure guard."""
        views = check_views(views)
        n = views[0].shape[0]
        c = self.n_clusters
        if c > n:
            raise ValidationError(f"n_clusters={c} exceeds n_samples={n}")
        rng = check_random_state(self.random_state)

        fit_start(type(self).__name__, self.callbacks, n, len(views), c)
        with span("graph_build", n_views=len(views), k=self.n_neighbors):
            affinities = memoized_parallel(
                views,
                lambda x: sparse_knn_affinity(
                    x, k=self.n_neighbors, block=self.block
                ),
                namespace="sparse_affinity",
                key_arrays=lambda x: (x,),
                key_params={
                    "k": int(self.n_neighbors),
                    "block": int(self.block),
                },
                n_jobs=self.n_jobs,
            )
            laplacians = memoized_parallel(
                affinities,
                sparse_laplacian,
                namespace="sparse_laplacian",
                key_arrays=lambda w: (w,),
                n_jobs=self.n_jobs,
            )
        n_views = len(affinities)
        run = alternate(
            _SparseGraphs(affinities, laplacians, self),
            solver=type(self).__name__,
            w=np.full(n_views, 1.0 / n_views),
            max_iter=self.max_iter,
            callbacks=self.callbacks,
            rng=rng,
            n_restarts=self.n_restarts,
        )
        self._remember_fit(views, run.labels, run.weights, c, self.n_neighbors)
        return run.labels


class _SparseGraphs:
    """CSR graphs: SparseMVSC's :func:`alternate` input.

    The F-step is a Lanczos solve on the fused Laplacian; view costs are
    the per-view spectral costs.
    """

    def __init__(self, affinities, laplacians, model: SparseMVSC):
        self.affinities = affinities
        self.laplacians = laplacians
        self.n_clusters = model.n_clusters
        self.weighting, self.gamma = model.weighting, model.gamma

    def embed(self, w, f, g, r) -> tuple[np.ndarray, None]:
        multipliers = fusion_multipliers(
            w, mode=self.weighting, gamma=self.gamma
        )
        fused = weighted_sum(self.affinities, multipliers)
        fused_lap = sparse_laplacian(fused.tocsr())
        return eigsh_smallest(fused_lap, self.n_clusters)[1], None

    def view_costs(self, f: np.ndarray) -> np.ndarray:
        return spectral_costs(self.laplacians, f)
