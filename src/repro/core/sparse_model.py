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
spectral-rotation end of the framework: the loop records the objective
``J`` at ``lam = 1`` but stops when the view weights settle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.core.alternation import SITE_FIT, alternate, fit_start
from repro.core.config import check_solver_params
from repro.core.objective import quadratic_trace, spectral_costs
from repro.core.persistence import ServableModelMixin
from repro.core.weights import fusion_multipliers, weighted_sum
from repro.exceptions import ValidationError
from repro.graph.sparse import (
    QUERY_BLOCK,
    _stored_degrees,
    _symmetric_laplacian,
    _union_pattern,
    sparse_knn_affinity,
    sparse_laplacian,
)
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
        random_state=None,
        callbacks=(),
    ) -> None:
        check_solver_params(
            n_clusters,
            max_iter=max_iter,
            weighting=weighting,
            gamma=gamma,
            n_restarts=n_restarts,
            n_neighbors=n_neighbors,
        )
        self.n_clusters = int(n_clusters)
        self.n_neighbors = int(n_neighbors)
        self.gamma = float(gamma)
        self.weighting = weighting
        self.max_iter = int(max_iter)
        self.n_restarts = int(n_restarts)
        self.random_state = random_state
        self.callbacks = tuple(callbacks)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_clusters={self.n_clusters}, "
            f"n_neighbors={self.n_neighbors}, gamma={self.gamma}, "
            f"weighting={self.weighting!r}, max_iter={self.max_iter}, "
            f"n_restarts={self.n_restarts})"
        )

    def _serving_config(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "n_neighbors": self.n_neighbors,
            "gamma": self.gamma,
            "weighting": self.weighting,
            "max_iter": self.max_iter,
            "n_restarts": self.n_restarts,
        }

    def fit_predict(self, views) -> np.ndarray:
        """Cluster raw multi-view features with sparse graphs throughout.

        Runs under the unified failure guard: only
        :class:`~repro.exceptions.ReproError` subclasses can escape.
        """
        with failure_guard(SITE_FIT):
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
                lambda x: sparse_knn_affinity(x, k=self.n_neighbors),
                namespace="sparse_affinity",
                key_arrays=lambda x: (x,),
                # ``block`` stays in the key so on-disk entries written
                # by earlier releases keep their addresses.
                key_params={"k": int(self.n_neighbors), "block": QUERY_BLOCK},
            )
            laplacians = memoized_parallel(
                affinities,
                sparse_laplacian,
                namespace="sparse_laplacian",
                key_arrays=lambda w: (w,),
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
    the per-view spectral costs.  The affinities' union pattern and each
    view's data on it are built once, so an F-step forms the fused
    Laplacian with a few dense passes over its ``nnz`` entries and no
    scipy sparse algebra.  Every entry is bit-identical to scipy's
    ``diags`` / ``@`` formulation of the same Laplacian (DESIGN.md,
    "Validation boundary").  It is cached per ``w``, like UMSC's operator.
    """

    lam = 1.0
    stopping = "weights"

    def __init__(self, affinities, laplacians, model: SparseMVSC):
        self.laplacians = laplacians
        self.pattern, self.view_data = _union_pattern(affinities)
        self.n_clusters = model.n_clusters
        self.weighting, self.gamma = model.weighting, model.gamma
        self._w: np.ndarray | None = None
        self._operator: scipy.sparse.csr_matrix | None = None

    def operator(self, w: np.ndarray) -> scipy.sparse.csr_matrix:
        """The fused Laplacian ``L(sum_v m_v W_v)`` on the stored pattern.

        Each entry sums the views in order, as scipy's sum would; an
        entry that every contributing view zeroes stays stored.
        """
        if not np.array_equal(w, self._w):
            multipliers = fusion_multipliers(
                w, mode=self.weighting, gamma=self.gamma
            )
            fused = weighted_sum(self.view_data, multipliers)
            degrees = _stored_degrees(self.pattern, fused)
            self._w = np.array(w, dtype=np.float64)
            self._operator = _symmetric_laplacian(self.pattern, fused, degrees)
        return self._operator

    def embed(self, w, f, g, r) -> tuple[np.ndarray, None]:
        return eigsh_smallest(self.operator(w), self.n_clusters)[1], None

    def view_costs(self, f: np.ndarray) -> np.ndarray:
        return spectral_costs(self.laplacians, f)

    def trace(self, w, f) -> float:
        return quadratic_trace(self.operator(w), f)
