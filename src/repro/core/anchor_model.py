"""Scalable variant of the unified framework via anchor graphs.

:class:`AnchorMVSC` replaces the dense per-view graphs with anchor graphs
(:mod:`repro.graph.anchor`), so the whole pipeline runs in
``O(n m^2 + n c^2)`` per iteration instead of ``O(n^2 c)`` — the extension
the paper's big-data motivation calls for.

The weighted fused anchor affinity keeps the factored form: with per-view
factors ``B_v`` (``W_v = B_v B_v^T``) and weights ``w``,

``W(w) = sum_v w_v B_v B_v^T = B(w) B(w)^T``,
``B(w) = [sqrt(w_1) B_1 | ... | sqrt(w_V) B_V]``

so the fused embedding is the SVD of a concatenated ``(n, V m)`` factor.
With the stacked assignment ``Z = [Z_1 | ... | Z_V]`` that factor is
``Z diag(d)``, ``d = concat_v(sqrt(w_v) mass_v^{-1/2})``, so its Gram is
``D C D`` with ``C = Z^T Z`` and ``D = diag(d)``: the model keeps ``Z``
as CSR plus ``C`` and the column masses, and every warm F-step solves
the top ``c + 1`` pairs of that ``(V m, V m)`` Gram, refining the
previous F-step's basis when it has one
(:func:`~repro.graph.anchor.gram_top_eigenpairs`, which applies ``D C D``
to a block without forming it).
Rotation, discrete assignment, and view weighting run in the same
driver as :class:`~repro.core.model.UnifiedMVSC`
(:func:`repro.core.alternation.alternate`); the lam-coupling is
dropped (the factored eigensolver cannot absorb the linear term cheaply),
making this the spectral-rotation end of the framework at scale: the
loop records ``J`` at ``lam = 1`` but stops when the view weights settle.

Streaming
---------
The factored form is what makes *incremental* fitting cheap: appending a
batch of ``b`` rows only appends rows to ``Z`` (one ``(b, m)`` anchor
assignment per view against the *frozen* anchors) and adds the batch's
share to ``C`` and the masses, after which the fused embedding is again
a small Gram eigenproblem, warm-started from the previous solve's basis
and solved by Chebyshev-filtered GEMMs of ``C`` by ``(Vm, 2c)`` blocks
— a fold-in costs ``O(b (Vm)^2 + (Vm)^2 c + n_seen V k c)``, with the
``(Vm)^3`` dense solve only when the filtered answer fails its check.
The ``n_seen`` term is the sparse ``F = Z W`` per solve and the Y-step;
the w-step reads ``Z^T F`` as ``C W`` in anchor space.  No eigensolve
ever sees an ``n x n`` matrix, none forms a scaled ``(Vm, Vm)`` one, and
no anchor is re-selected.
:meth:`AnchorMVSC.partial_fit` implements this fold-in: assign new rows to
the stored anchors, warm-start the F/Y refinement from the previous
labels (rotation fitted on the *old* rows only, so new rows cannot drag
the alignment), and run a couple of cheap alternations.  When drift makes
the fold-in stale, :meth:`partial_refit` re-runs the full alternation on
the accumulated statistics (anchors and ``Z`` reused), and :meth:`refit`
replays a cold fit on the accumulated views (anchors re-selected).  The
fold-in runs under the ``streaming.partial_fit`` fault site with a
full-refit fallback; both refit flavours run under ``streaming.refit``.
State is committed only after a fold-in/refit fully succeeds, so a failed
attempt never corrupts the running state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.backends import current_backend
from repro.core.alternation import SITE_FIT, alternate, fit_start
from repro.core.config import check_solver_params
from repro.core.discrete import _scaled_indicator, indicator_coordinate_descent
from repro.core.persistence import (
    DEFAULT_SERVING_NEIGHBORS,
    ServableModelMixin,
)
from repro.core.weights import fusion_multipliers
from repro.exceptions import ValidationError
from repro.graph.anchor import (
    WarmStart,
    anchor_affinity_factor,
    anchor_assignment,
    gram_top_eigenpairs,
    select_anchors,
    top_left_singular,
)
from repro.graph.distance import pairwise_sq_euclidean
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.trace import (
    current_trace,
    hot_span,
    metric_inc,
    metric_set,
    span,
)
from repro.pipeline.cache import memoized_parallel
from repro.robust.faults import maybe_inject, register_fault_site
from repro.robust.policy import failure_guard, run_with_policy
from repro.utils.rng import check_random_state
from repro.utils.validation import check_views

_SITE_PARTIAL = register_fault_site(
    "streaming.partial_fit",
    "AnchorMVSC.partial_fit fold-in (retried, then full-refit fallback)",
)
_SITE_REFIT = register_fault_site(
    "streaming.refit",
    "streaming partial/full refit on the accumulated stream",
)

#: Cheap-fold-in refinement alternations when ``refine_iters`` is omitted.
DEFAULT_REFINE_ITERS = 2


def _anchor_coverage(distances) -> float:
    """Mean nearest-anchor squared distance, averaged over views.

    ``distances`` yields each view's sample-to-anchor squared distances.

    The streaming drift signal: for a stationary stream this statistic
    is flat across batches (each batch is a fresh draw from the
    distribution the anchors were selected on), while a distribution
    shift moves new rows away from every frozen anchor and the
    statistic jumps *at the shifted batch* — unlike the cumulative
    alternation objective, which grows with ``n`` regardless.
    """
    costs = [float(d2.min(axis=1).mean()) for d2 in distances]
    coverage = float(np.mean(costs))
    # Numerical-health probe: published wherever the statistic is
    # computed (cold fits, fold-ins, streaming batches), so the gauge
    # always reflects the latest batch.
    metric_set("health.anchor_coverage", coverage)
    return coverage


@dataclass(frozen=True)
class _RowBlocks:
    """The stream's raw rows: per view, the row blocks as they arrived.

    :meth:`append` shares every earlier block, so a fold-in copies no
    row; :meth:`joined` stacks one matrix per view where a full one is
    needed (a refit, an artifact).  Iterating yields the joined views.
    """

    blocks: tuple  # per view, a tuple of (rows, d_v) arrays

    @classmethod
    def of(cls, views) -> _RowBlocks:
        return cls(tuple((x,) for x in views))

    def append(self, views) -> _RowBlocks:
        return _RowBlocks(
            tuple(old + (x,) for old, x in zip(self.blocks, views))
        )

    def joined(self) -> list:
        return [
            blocks[0] if len(blocks) == 1 else np.vstack(blocks)
            for blocks in self.blocks
        ]

    def __iter__(self):
        return iter(self.joined())


@dataclass(frozen=True)
class _StreamFit:
    """Result of one (re)fit attempt, committed only on success."""

    labels: np.ndarray
    weights: np.ndarray
    stats: _AnchorStats
    warm: WarmStart | None
    objective: float
    batch_cost: float
    n_iter: int


class AnchorMVSC(ServableModelMixin):
    """Anchor-graph (linear-time) multi-view spectral clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters.
    n_anchors : int
        Anchors per view ``m``; the effective graph rank.  Defaults to
        ``min(n, max(10 c, 100))`` at fit time when set to 0.
    n_anchor_neighbors : int
        Anchors each sample connects to.
    gamma : float
        Weight-smoothing exponent for the ``exponential`` regime.
    weighting : {"exponential", "parameter_free", "uniform"}
        View-weighting regime.
    max_iter : int
        Outer (embedding / rotation / assignment / weights) alternations.
    n_restarts : int
        Rotation-initialization restarts.
    random_state : int, Generator, or None
    callbacks : sequence of FitCallback, optional
        Listeners receiving one :class:`~repro.observability.events.
        IterationEvent` per outer iteration (see
        :mod:`repro.observability`).

    Attributes
    ----------
    labels_ : ndarray of shape (n_seen,)
        Labels for every sample seen so far (set by any fit flavour).
    view_weights_ : ndarray of shape (n_views,)
        Learned view weights (running state across partial fits).
    anchors_ : tuple of ndarray
        Per-view anchor sets frozen at the last cold fit; reused by
        :meth:`partial_fit` and :meth:`partial_refit`.
    objective_ : float
        Weighted view-disagreement ``sum_v mult_v (c - ||B_v^T F||^2)``
        at the last alternation.  Grows with ``n`` (the embedding is
        orthonormal over more rows), so it is reported, not used as the
        drift signal.
    batch_cost_ : float
        Mean nearest-anchor squared distance of the *latest* batch
        (whole training set after a cold fit) — flat on a stationary
        stream, jumps at a distribution shift; the scalar the
        objective-shift drift detector watches.
    n_seen_ : int
        Total samples accumulated across the initial fit and all
        partial fits.

    Examples
    --------
    >>> from repro.datasets import make_multiview_blobs
    >>> ds = make_multiview_blobs(400, 4, view_dims=(10, 12), random_state=0)
    >>> labels = AnchorMVSC(4, random_state=0).fit_predict(ds.views)
    >>> labels.shape
    (400,)
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_anchors: int = 0,
        n_anchor_neighbors: int = 5,
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
            n_anchor_neighbors=n_anchor_neighbors,
        )
        if n_anchors < 0:
            raise ValidationError(f"n_anchors must be >= 0, got {n_anchors}")
        self.n_clusters = int(n_clusters)
        self.n_anchors = int(n_anchors)
        self.n_anchor_neighbors = int(n_anchor_neighbors)
        self.gamma = float(gamma)
        self.weighting = weighting
        self.max_iter = int(max_iter)
        self.n_restarts = int(n_restarts)
        self.random_state = random_state
        self.callbacks = tuple(callbacks)
        self._stream: dict | None = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_clusters={self.n_clusters}, "
            f"n_anchors={self.n_anchors}, "
            f"n_anchor_neighbors={self.n_anchor_neighbors}, "
            f"gamma={self.gamma}, weighting={self.weighting!r}, "
            f"max_iter={self.max_iter}, n_restarts={self.n_restarts})"
        )

    def _serving_config(self) -> dict:
        seed = self.random_state
        return {
            "n_clusters": self.n_clusters,
            "n_anchors": self.n_anchors,
            "n_anchor_neighbors": self.n_anchor_neighbors,
            "gamma": self.gamma,
            "weighting": self.weighting,
            "max_iter": self.max_iter,
            "n_restarts": self.n_restarts,
            "anchor_seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
        }

    def fit_predict(self, views) -> np.ndarray:
        """Cluster raw multi-view features at anchor-graph cost.

        Runs under the unified failure guard: only
        :class:`~repro.exceptions.ReproError` subclasses can escape.
        """
        with failure_guard(SITE_FIT):
            maybe_inject(SITE_FIT)
            return self._fit_predict(views)

    def _fit_predict(self, views) -> np.ndarray:
        """Body of :meth:`fit_predict`, run under the failure guard."""
        views = check_views(views)
        result = self._full_fit(views)
        self._commit(_RowBlocks.of(views), result)
        return result.labels

    def _full_fit(self, views) -> _StreamFit:
        """Cold fit on ``views``: select anchors, assign, alternate."""
        n = views[0].shape[0]
        c = self.n_clusters
        if c > n:
            raise ValidationError(f"n_clusters={c} exceeds n_samples={n}")
        rng = check_random_state(self.random_state)
        m = self.n_anchors or min(n, max(10 * c, 100))
        m = min(m, n)
        if len(views) * m < c:
            raise ValidationError(
                f"n_anchors={m} per view gives {len(views) * m} anchor "
                f"columns over {len(views)} views, fewer than "
                f"n_clusters={c}; raise n_anchors"
            )

        fit_start(
            type(self).__name__, self.callbacks, n, len(views), c, n_anchors=m
        )
        with span("graph_build", n_views=len(views), n_anchors=m):
            # Anchor selection consumes the shared rng, so it runs
            # serially; the assignment step is a pure function of
            # (view, anchors) and is cached and parallelized.  Only the
            # statistics of Z are kept: partial_fit adds a batch's share
            # to them and renormalizes, which cannot be done from B
            # alone.  The dense factors serve the first F-step only.
            anchor_sets = [
                select_anchors(x, m, random_state=rng) for x in views
            ]
            assignments = memoized_parallel(
                list(zip(views, anchor_sets)),
                lambda pair: anchor_assignment(
                    pair[0], pair[1], k=self.n_anchor_neighbors
                ),
                namespace="anchor_assignment",
                key_arrays=lambda pair: pair,
                key_params={"k": int(self.n_anchor_neighbors)},
            )
            rep = _AnchorFactors(
                _AnchorStats.of(anchor_sets, assignments),
                self,
                cold=[anchor_affinity_factor(z) for z in assignments],
            )

        return self._alternate(
            rep,
            np.full(len(views), 1.0 / len(views)),
            (
                pairwise_sq_euclidean(x, a)
                for x, a in zip(views, anchor_sets)
            ),
            max_iter=self.max_iter,
            rng=rng,
        )

    def _alternate(
        self, rep, w, batch_distances, *, max_iter, labels=None, rng=None
    ) -> _StreamFit:
        """One fit attempt; ``labels=None`` is a cold fit.

        ``batch_cost`` is the anchor coverage of the batch, from its
        per-view sample-to-anchor ``batch_distances`` (an iterable read
        after the alternation; ``None`` keeps the last cost);
        ``objective`` is the weighted view disagreement under the last
        F-step's multipliers.
        """
        run = alternate(
            rep,
            solver=type(self).__name__,
            w=w,
            max_iter=max_iter,
            callbacks=self.callbacks,
            labels=labels,
            rng=rng,
            n_restarts=self.n_restarts,
            fit_end=labels is None,
        )
        if batch_distances is None:
            batch_cost = self.batch_cost_
        else:
            batch_cost = _anchor_coverage(batch_distances)
        return _StreamFit(
            labels=run.labels,
            weights=run.weights,
            stats=rep.stats,
            warm=rep.warm,
            objective=float(np.dot(rep.multipliers, run.costs)),
            batch_cost=batch_cost,
            n_iter=run.n_iter,
        )

    # -- streaming ---------------------------------------------------------

    def _commit(self, rows: _RowBlocks, fit: _StreamFit) -> None:
        """Publish a successful fit as the running streaming state."""
        self._stream = {
            "views": rows,
            "stats": fit.stats,
            "warm": fit.warm,
            "labels": fit.labels,
            "weights": fit.weights,
        }
        self.labels_ = fit.labels
        self.view_weights_ = fit.weights
        self.anchors_ = fit.stats.anchors
        self.objective_ = fit.objective
        self.batch_cost_ = fit.batch_cost
        self.n_seen_ = int(fit.labels.shape[0])
        self.n_iter_ = fit.n_iter
        extras = {
            f"anchors_view_{i}": a for i, a in enumerate(fit.stats.anchors)
        }
        self._remember_fit(
            rows,
            fit.labels,
            fit.weights,
            self.n_clusters,
            DEFAULT_SERVING_NEIGHBORS,
            extras=extras,
        )

    def _check_stream_batch(self, views_new):
        """Validate an incoming batch against the running state."""
        state = self._stream
        assert state is not None
        views_new = check_views(views_new)
        dims = [blocks[0].shape[1] for blocks in state["views"].blocks]
        if len(views_new) != len(dims):
            raise ValidationError(
                f"partial_fit batch has {len(views_new)} views; the fitted "
                f"stream has {len(dims)}"
            )
        for i, (x_new, d_old) in enumerate(zip(views_new, dims)):
            if x_new.shape[1] != d_old:
                raise ValidationError(
                    f"view {i} of the batch has {x_new.shape[1]} features; "
                    f"the fitted stream has {d_old}"
                )
        return views_new

    def partial_fit(self, views, *, refine_iters: int | None = None) -> np.ndarray:
        """Fold a new batch of rows into the fitted model incrementally.

        The first call (unfitted model) is exactly :meth:`fit_predict`.
        Subsequent calls assign the new rows to the *frozen* per-view
        anchors, renormalize the accumulated ``Z_v``, warm-start the
        rotation from the previous labels (fitted on the old rows only),
        and run ``refine_iters`` cheap alternations — no anchor
        re-selection and no cold eigensolve.  View weights carry over as
        running state.

        Runs under the ``streaming.partial_fit`` fault site: a failing
        fold-in is retried and then falls back to a full refit on the
        accumulated views.  State is committed only on success, so a
        failed attempt leaves the model at its previous fit.

        The model keeps the batch arrays it is given as row blocks, as
        :meth:`fit_predict` keeps its views: no row seen so far is
        copied, and one matrix per view is joined only for a refit or
        :meth:`to_artifact`.  Pass arrays that are not modified later.

        Parameters
        ----------
        views : sequence of ndarray
            One ``(batch, d_v)`` matrix per view, feature dimensions
            matching the initial fit.
        refine_iters : int, optional
            Alternations after the warm start (default
            :data:`DEFAULT_REFINE_ITERS`).

        Returns
        -------
        ndarray of shape (n_seen,)
            Labels for *all* samples seen so far (old rows may move
            during refinement).
        """
        if self._stream is None:
            return self.fit_predict(views)
        iters = DEFAULT_REFINE_ITERS if refine_iters is None else int(refine_iters)
        if iters < 1:
            raise ValidationError(f"refine_iters must be >= 1, got {iters}")
        with failure_guard(_SITE_PARTIAL):
            views_new = self._check_stream_batch(views)
            union = self._stream["views"].append(views_new)
            metric_inc("streaming.partial_fit.calls")
            result = run_with_policy(
                _SITE_PARTIAL,
                lambda perturb: self._fold_in(views_new, iters),
                fallbacks=(
                    ("refit", lambda: self._fallback_refit(union)),
                ),
            )
            self._commit(union, result)
            return result.labels

    def _fold_in(self, views_new, refine_iters: int) -> _StreamFit:
        """Pure fold-in attempt: extend Z, warm-start F/Y, refine."""
        state = self._stream
        assert state is not None
        c = self.n_clusters
        batch = views_new[0].shape[0]
        backend = current_backend()
        with span(
            "streaming.fold_in",
            batch=batch,
            n_seen=int(state["labels"].shape[0]),
            backend=backend.name,
        ):
            stats = state["stats"]
            # One distance pass per view feeds both Z and the batch cost.
            distances = [
                pairwise_sq_euclidean(x_new, anchors)
                for x_new, anchors in zip(views_new, stats.anchors)
            ]
            rep = _AnchorFactors(
                stats.extend(
                    [
                        anchor_assignment(
                            x_new,
                            anchors,
                            k=self.n_anchor_neighbors,
                            distances=d2,
                        )
                        for x_new, anchors, d2 in zip(
                            views_new, stats.anchors, distances
                        )
                    ]
                ),
                self,
                warm=state["warm"],
            )

            # Warm start: embed under the carried-over weights, align the
            # rotation on the old rows only (new rows have no labels yet),
            # then extend the labels by nearest cluster and refine.
            w = np.asarray(state["weights"], dtype=np.float64).copy()
            f, _ = rep.embed(w, None, None, None)
            labels_old = state["labels"]
            n_old = labels_old.shape[0]
            # The model's own labels, checked when they were produced.
            rot = nearest_orthogonal(
                f[:n_old].T @ _scaled_indicator(labels_old, c)
            )
            scores = f @ rot
            start = np.concatenate(
                [labels_old, np.argmax(scores[n_old:], axis=1)]
            )
            labels = indicator_coordinate_descent(scores, start, c)
        return self._alternate(
            rep, w, distances, labels=labels, max_iter=refine_iters
        )

    def _fallback_refit(self, union: _RowBlocks) -> _StreamFit:
        metric_inc("streaming.partial_fit.refit_fallback")
        return self._full_fit(union.joined())

    def partial_refit(self) -> np.ndarray:
        """Full alternation on the accumulated stream, anchors reused.

        The middle rung of the drift ladder: the stored anchors and
        ``Z_v`` are kept (no graph rebuild), but the F/Y/w alternation
        runs for the full ``max_iter`` budget warm-started from the
        current labels.  Runs under the ``streaming.refit`` fault site.
        """
        state = self._require_stream("partial_refit")
        with failure_guard(_SITE_REFIT):
            metric_inc("streaming.partial_refit.calls")
            result = run_with_policy(
                _SITE_REFIT, lambda perturb: self._partial_refit_body()
            )
            self._commit(state["views"], result)
            return result.labels

    def _partial_refit_body(self) -> _StreamFit:
        state = self._stream
        assert state is not None
        c = self.n_clusters
        backend = current_backend()
        with span(
            "streaming.partial_refit",
            n_seen=int(state["labels"].shape[0]),
            backend=backend.name,
        ):
            rep = _AnchorFactors(state["stats"], self, warm=state["warm"])
            w = np.asarray(state["weights"], dtype=np.float64).copy()
            return self._alternate(
                rep, w, None, labels=state["labels"], max_iter=self.max_iter
            )

    def refit(self) -> np.ndarray:
        """Cold refit on the accumulated stream (anchors re-selected).

        The last rung of the drift ladder: equivalent to a fresh
        :meth:`fit_predict` on every sample seen so far (the random
        state is replayed, so an integer seed gives a reproducible
        refit).  Runs under the ``streaming.refit`` fault site.
        """
        state = self._require_stream("refit")
        with failure_guard(_SITE_REFIT):
            metric_inc("streaming.refit.calls")
            views = state["views"].joined()
            backend = current_backend()
            with span(
                "streaming.refit",
                n_seen=int(state["labels"].shape[0]),
                backend=backend.name,
            ):
                result = run_with_policy(
                    _SITE_REFIT, lambda perturb: self._full_fit(views)
                )
            self._commit(_RowBlocks.of(views), result)
            return result.labels

    def _require_stream(self, method: str) -> dict:
        if self._stream is None:
            raise ValidationError(
                f"{type(self).__name__}.{method}() requires a fitted model: "
                f"call fit_predict() or partial_fit() first"
            )
        return self._stream


#: Stacked assignment entries per row chunk of the statistics build,
#: and column pairs per ``np.add.at`` call of its Gram accumulation.
_ENTRY_CHUNK = 1 << 18
_PAIR_CHUNK = 1 << 16
_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class _AnchorStats:
    """Sufficient statistics of the stacked anchor assignment ``Z``.

    ``z`` holds ``Z = [Z_1 | ... | Z_V]`` as CSR (at most ``k`` nonzeros
    per row per view), ``gram`` is ``C = Z^T Z`` and ``mass`` the column
    sums ``Z^T 1`` (the diagonals of every ``Lambda_v``).  :meth:`extend`
    adds a batch's share to each, so a fold-in recomputes nothing over
    the rows already seen.  Both methods build the bits of the scipy
    formulation (``sp.hstack`` of the views' CSR blocks,
    ``(z.T @ z).toarray()``, ``z.sum(axis=0)``, ``sp.vstack`` of the
    old and new rows) without calling it; see
    :func:`_assignment_statistics`.
    """

    anchors: tuple
    z: sp.csr_array
    gram: np.ndarray
    mass: np.ndarray

    @classmethod
    def of(cls, anchors, assignments) -> _AnchorStats:
        """The statistics of the per-view dense ``assignments``."""
        with hot_span("anchor.stats", rows=assignments[0].shape[0]):
            data, indices, indptr, gram, mass = _assignment_statistics(
                assignments
            )
            z = sp.csr_array(
                (data, indices, indptr),
                shape=(indptr.size - 1, gram.shape[0]),
            )
        return cls(tuple(anchors), z, gram, mass)

    def extend(self, assignments) -> _AnchorStats:
        """The statistics after appending one batch's per-view rows.

        The batch's Gram and masses are summed from zero on their own,
        then added to the stored ones; its CSR arrays are appended to
        the stored ``Z``'s with the index dtype ``sp.vstack`` picks.
        """
        z = self.z
        with hot_span("anchor.stats", rows=assignments[0].shape[0]):
            data, indices, indptr, gram, mass = _assignment_statistics(
                assignments
            )
            dtype = _index_dtype(
                (z.indptr, indptr), max(z.nnz + data.size, z.shape[1])
            )
            tail = indptr[1:].astype(dtype)
            tail += z.indptr[-1]
            grown = sp.csr_array(
                (
                    np.concatenate([z.data, data]),
                    np.concatenate([z.indices, indices], dtype=dtype),
                    np.concatenate([z.indptr, tail], dtype=dtype),
                ),
                shape=(z.shape[0] + tail.size, z.shape[1]),
            )
            np.add(self.gram, gram, out=gram)
            np.add(self.mass, mass, out=mass)
        return _AnchorStats(self.anchors, grown, gram, mass)


def _index_dtype(indptrs, maxval: int):
    """scipy's CSR stacking index dtype: int32 unless one of ``indptrs``
    is already wider or ``maxval`` does not fit."""
    if maxval > _INT32_MAX or not all(
        np.can_cast(p.dtype, np.int32) for p in indptrs
    ):
        return np.int64
    return np.int32


def _assignment_statistics(assignments):
    """CSR ``(data, indices, indptr)``, ``Z^T Z`` and ``Z^T 1`` of the
    stacked ``Z = [Z_1 | ... | Z_V]`` of the per-view dense rows.

    ``Z`` keeps the row-major ``np.nonzero`` order of the stacked rows,
    the order ``sp.hstack`` of per-view CSR blocks stores.  The masses
    are an ``np.bincount`` in that order, which adds each column's
    weights row by row from zero, as ``z.sum(axis=0)`` does.  The Gram
    is :func:`_add_row_pairs` over row chunks of at most
    :data:`_ENTRY_CHUNK` stacked entries.
    """
    views = [np.asarray(a, np.float64) for a in assignments]
    n = views[0].shape[0]
    size = sum(a.shape[1] for a in views)
    gram = np.zeros((size, size))
    data, indices, counts = [], [], []
    step = max(1, _ENTRY_CHUNK // size)
    for lo in range(0, n, step):
        stacked = np.hstack([a[lo:lo + step] for a in views])
        rows, cols = np.nonzero(stacked)
        per_row = np.bincount(rows, minlength=stacked.shape[0])
        values = stacked[rows, cols]
        _add_row_pairs(gram, rows, cols, values, per_row)
        data.append(values)
        indices.append(cols)
        counts.append(per_row)
    data = np.concatenate(data)
    indices = np.concatenate(indices)
    mass = np.bincount(indices, weights=data, minlength=size)
    dtype = _index_dtype((), max(size, data.size))
    indptr = np.zeros(n + 1, dtype)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return data, indices.astype(dtype), indptr, gram, mass


def _add_row_pairs(gram, rows, cols, values, per_row) -> None:
    """Add ``Z^T Z`` of a row chunk, given as row-major nonzeros, to
    ``gram`` with the additions of scipy's sparse product.

    ``z.T @ z`` forms each entry as a running sum from zero over the
    rows that hold both columns, rows ascending.  An unbuffered
    ``np.add.at`` over each row's column pairs, rows in order, makes the
    same additions in the same order, so the bits agree; summing chunks
    apart and adding them would re-associate.  Each row's nonzeros are
    padded to the widest row's count with zero weights on column 0;
    ``Z`` is nonnegative, so the padding adds ``+0.0`` to sums that are
    never ``-0.0``.  Each ``np.add.at`` takes at most
    :data:`_PAIR_CHUNK` pairs, or one row's (with ``k`` near ``m`` rows
    are dense).
    """
    width = int(per_row.max(initial=0))
    if width == 0:
        return
    size = gram.shape[0]
    slot = np.arange(rows.size) - (np.cumsum(per_row) - per_row)[rows]
    col = np.zeros((per_row.size, width), np.intp)
    val = np.zeros((per_row.size, width))
    col[rows, slot] = cols
    val[rows, slot] = values
    cells = gram.reshape(-1)
    step = max(1, _PAIR_CHUNK // (width * width))
    for lo in range(0, per_row.size, step):
        c, v = col[lo:lo + step], val[lo:lo + step]
        np.add.at(
            cells,
            (c[:, :, None] * size + c[:, None, :]).ravel(),
            (v[:, :, None] * v[:, None, :]).ravel(),
        )


class _AnchorFactors:
    """Anchor factors ``B_v = Z_v Lambda_v^{-1/2}``: AnchorMVSC's
    :func:`alternate` input, held as :class:`_AnchorStats`.

    With ``d = concat_v(sqrt(mult_v) mass_v^{-1/2})`` the stacked factor
    is ``B(w) = Z diag(d)``, so the F-step solves only the top ``c + 1``
    eigenpairs ``(s, V)`` of its ``(Vm, Vm)`` Gram ``D C D`` and sets
    ``F = Z W``, ``W = (d * V) diag(s)^{-1/2}``; view ``v`` costs
    ``c - ||mass_v^{-1/2} * Z_v^T F||^2 = c - ||B_v^T F||^2``, reading
    ``Z^T F`` as ``C W`` after a Gram solve.  No step
    forms an ``(n, Vm)`` dense matrix.  Rows of ``Z_v`` sum to 1, so the
    fused graph has unit degrees and ``J``'s trace term is
    ``c - sum_v m_v ||B_v^T F||^2``, from the same per-``F`` norms.

    A cold fit also passes its dense per-view factors as ``cold``: its
    first F-step stacks them and takes a full ``eigh`` instead, because
    below its row-subsample threshold
    :func:`~repro.core.discrete.rotation_initialize` chooses among
    restarts by ulp-level objective differences, so that step must keep
    the cold fit's exact arithmetic (a subset solver also flips
    eigenvector signs).  Every later F-step sees labels, and the R- and
    Y-steps depend only on the span of ``F``.  The last embedding
    is kept per ``w``, so the first alternation F-step after a fold-in's
    warm start reuses it instead of re-solving.  ``warm`` is the last
    Gram solve's :class:`~repro.graph.anchor.WarmStart`: each solve
    refines it and leaves the next, and the stream state carries it
    between fold-ins; a fit that re-selects anchors starts without one.
    """

    lam = 1.0
    stopping = "weights"

    def __init__(
        self,
        stats: _AnchorStats,
        model: AnchorMVSC,
        *,
        cold=None,
        warm: WarmStart | None = None,
    ):
        self.stats = stats
        self.warm = warm
        self.n_clusters = model.n_clusters
        self.weighting, self.gamma = model.weighting, model.gamma
        self.multipliers: np.ndarray | None = None
        # (w, F, W): the last embedding, with F = Z W when it came from
        # the Gram solve (W is None after the cold first F-step).
        self._embedded: (
            tuple[np.ndarray, np.ndarray, np.ndarray | None] | None
        ) = None
        self._norms: tuple[np.ndarray, np.ndarray] | None = None
        self._cold = cold
        self._view_of = np.repeat(
            np.arange(len(stats.anchors)), [a.shape[0] for a in stats.anchors]
        )
        self._inv_sqrt = np.where(
            stats.mass > 0, 1.0 / np.sqrt(np.maximum(stats.mass, 1e-300)), 0.0
        )

    def embed(self, w, f, g, r) -> tuple[np.ndarray, None]:
        if self._embedded is not None and np.array_equal(self._embedded[0], w):
            return self._embedded[1], None
        c = self.n_clusters
        self.multipliers = fusion_multipliers(
            w, mode=self.weighting, gamma=self.gamma
        )
        if self._cold is not None:
            stacked = np.hstack(
                [np.sqrt(mv) * b for mv, b in zip(self.multipliers, self._cold)]
            )
            self._cold = None
            f, spectrum = top_left_singular(stacked, c)
            factor = None
        else:
            d = np.sqrt(self.multipliers)[self._view_of] * self._inv_sqrt
            spectrum, vectors, self.warm = gram_top_eigenpairs(
                self.stats.gram, d, c, self.warm
            )
            root = np.sqrt(np.maximum(spectrum[:c], 1e-300))
            scaled = d[:, None] * vectors
            f = (self.stats.z @ scaled) / root
            factor = scaled / root
        if current_trace() is not None and spectrum.size > c:
            # Numerical-health probe: the Gram spectral gap behind the
            # anchor embedding (sigma_c^2 - sigma_{c+1}^2), free since
            # both solves already produce the (c+1)-th pair.
            metric_set("health.eigengap", float(spectrum[c - 1] - spectrum[c]))
        self._embedded = (np.array(w, dtype=np.float64), f, factor)
        return f, None

    def _view_norms(self, f: np.ndarray) -> np.ndarray:
        """``||B_v^T F||^2`` per view, kept for the last ``F``.

        For an ``F = Z W`` from the Gram solve, ``Z^T F`` is ``C W``: an
        ``O((Vm)^2 c)`` product in place of a scan of every row seen.
        """
        if self._norms is None or self._norms[0] is not f:
            _, last, factor = self._embedded or (None, None, None)
            if last is f and factor is not None:
                proj = self.stats.gram @ factor
            else:
                proj = self.stats.z.T @ f
            proj *= self._inv_sqrt[:, None]
            norms = np.bincount(
                self._view_of,
                weights=np.sum(proj**2, axis=1),
                minlength=len(self.stats.anchors),
            )
            self._norms = (f, norms)
        return self._norms[1]

    def view_costs(self, f: np.ndarray) -> np.ndarray:
        return np.maximum(f.shape[1] - self._view_norms(f), 0.0)

    def trace(self, w, f) -> float:
        m = fusion_multipliers(w, mode=self.weighting, gamma=self.gamma)
        return f.shape[1] - float(np.dot(m, self._view_norms(f)))
