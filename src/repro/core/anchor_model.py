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
Rotation, discrete assignment, and view weighting run in the same
driver as :class:`~repro.core.model.UnifiedMVSC`
(:func:`repro.core.alternation.alternate`); the lam-coupling is
dropped (the factored eigensolver cannot absorb the linear term cheaply),
making this the spectral-rotation end of the framework at scale.

Streaming
---------
The factored form is what makes *incremental* fitting cheap: appending a
batch of rows only appends rows to each ``Z_v`` (one ``(b, m)`` anchor
assignment per view against the *frozen* anchors), after which the fused
embedding is again an ``O(n (Vm)^2)`` Gram eigendecomposition — no
eigensolve ever sees an ``n x n`` matrix, and no anchor is re-selected.
:meth:`AnchorMVSC.partial_fit` implements this fold-in: assign new rows to
the stored anchors, warm-start the F/Y refinement from the previous
labels (rotation fitted on the *old* rows only, so new rows cannot drag
the alignment), and run a couple of cheap alternations.  When drift makes
the fold-in stale, :meth:`partial_refit` re-runs the full alternation on
the accumulated factors (anchors and ``Z`` reused), and :meth:`refit`
replays a cold fit on the accumulated views (anchors re-selected).  The
fold-in runs under the ``streaming.partial_fit`` fault site with a
full-refit fallback; both refit flavours run under ``streaming.refit``.
State is committed only after a fold-in/refit fully succeeds, so a failed
attempt never corrupts the running state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import current_backend, get_backend, use_backend
from repro.core.alternation import SITE_FIT, alternate, fit_start
from repro.core.config import check_solver_params
from repro.core.discrete import indicator_coordinate_descent, scaled_indicator
from repro.core.objective import disagreement_costs
from repro.core.persistence import (
    DEFAULT_SERVING_NEIGHBORS,
    ServableModelMixin,
)
from repro.core.weights import fusion_multipliers
from repro.exceptions import ValidationError
from repro.graph.anchor import (
    anchor_affinity_factor,
    anchor_assignment,
    select_anchors,
)
from repro.graph.distance import pairwise_sq_euclidean
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.trace import (
    current_trace,
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


def _top_left_singular(b: np.ndarray, c: int) -> np.ndarray:
    """Top-``c`` left singular vectors of ``b`` via its small Gram matrix."""
    gram = b.T @ b
    values, vectors = np.linalg.eigh(gram)
    order = np.argsort(values)[::-1][:c]
    if current_trace() is not None and values.size > c:
        # Numerical-health probe: the Gram spectral gap behind the
        # anchor embedding (sigma_c^2 - sigma_{c+1}^2), free here since
        # eigh already produced the full small spectrum.
        ranked = np.sort(values)[::-1]
        metric_set("health.eigengap", float(ranked[c - 1] - ranked[c]))
    vals = np.maximum(values[order], 1e-300)
    return (b @ vectors[:, order]) / np.sqrt(vals)[None, :]


def _anchor_coverage(views, anchor_sets) -> float:
    """Mean nearest-anchor squared distance, averaged over views.

    The streaming drift signal: for a stationary stream this statistic
    is flat across batches (each batch is a fresh draw from the
    distribution the anchors were selected on), while a distribution
    shift moves new rows away from every frozen anchor and the
    statistic jumps *at the shifted batch* — unlike the cumulative
    alternation objective, which grows with ``n`` regardless.
    """
    costs = [
        float(pairwise_sq_euclidean(x, a).min(axis=1).mean())
        for x, a in zip(views, anchor_sets)
    ]
    coverage = float(np.mean(costs))
    # Numerical-health probe: published wherever the statistic is
    # computed (cold fits, fold-ins, streaming batches), so the gauge
    # always reflects the latest batch.
    metric_set("health.anchor_coverage", coverage)
    return coverage


@dataclass(frozen=True)
class _StreamFit:
    """Result of one (re)fit attempt, committed only on success."""

    labels: np.ndarray
    weights: np.ndarray
    anchors: list
    assignments: list
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
    n_jobs : int or None
        Worker threads for per-view anchor-graph construction; ``None``
        defers to the ambient :func:`repro.pipeline.parallel.use_jobs`
        default (serial).  Anchor *selection* stays serial (it consumes
        the shared random generator), so results are identical for any
        value.
    backend : str or None
        Compute backend for the hot kernels during :meth:`fit_predict`
        (see :mod:`repro.backends`); ``None`` defers to the ambient
        backend.
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
        self.n_jobs = n_jobs
        self.backend = None if backend is None else get_backend(backend).name
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
        with use_backend(self.backend), failure_guard(SITE_FIT):
            maybe_inject(SITE_FIT)
            return self._fit_predict(views)

    def _fit_predict(self, views) -> np.ndarray:
        """Body of :meth:`fit_predict`, run under the failure guard."""
        views = check_views(views)
        result = self._full_fit(views)
        self._commit(views, result)
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

        fit_start(
            type(self).__name__, self.callbacks, n, len(views), c, n_anchors=m
        )
        with span("graph_build", n_views=len(views), n_anchors=m):
            # Anchor selection consumes the shared rng, so it runs
            # serially; the assignment step is a pure function of
            # (view, anchors) and is cached and parallelized.  The
            # assignments (not the factors) are kept: partial_fit
            # appends rows to Z and renormalizes, which cannot be done
            # from B alone.
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
                n_jobs=self.n_jobs,
            )
            rep = _AnchorFactors(anchor_sets, assignments, self)

        n_views = len(rep.factors)
        return self._alternate(
            rep,
            np.full(n_views, 1.0 / n_views),
            views,
            max_iter=self.max_iter,
            rng=rng,
        )

    def _alternate(
        self, rep, w, batch_views, *, max_iter, labels=None, rng=None
    ) -> _StreamFit:
        """One fit attempt; ``labels=None`` is a cold fit.

        ``batch_cost`` is the anchor coverage of ``batch_views`` (kept
        when ``None``); ``objective`` is the weighted view disagreement
        under the last F-step's multipliers.
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
        if batch_views is None:
            batch_cost = self.batch_cost_
        else:
            batch_cost = _anchor_coverage(batch_views, rep.anchors)
        return _StreamFit(
            labels=run.labels,
            weights=run.weights,
            anchors=rep.anchors,
            assignments=rep.assignments,
            objective=float(np.dot(rep.multipliers, run.costs)),
            batch_cost=batch_cost,
            n_iter=run.n_iter,
        )

    # -- streaming ---------------------------------------------------------

    def _commit(self, views, fit: _StreamFit) -> None:
        """Publish a successful fit as the running streaming state."""
        views = [np.asarray(v) for v in views]
        self._stream = {
            "views": views,
            "anchors": fit.anchors,
            "z": fit.assignments,
            "labels": fit.labels,
            "weights": fit.weights,
        }
        self.labels_ = fit.labels
        self.view_weights_ = fit.weights
        self.anchors_ = tuple(fit.anchors)
        self.objective_ = fit.objective
        self.batch_cost_ = fit.batch_cost
        self.n_seen_ = int(fit.labels.shape[0])
        self.n_iter_ = fit.n_iter
        extras = {
            f"anchors_view_{i}": a for i, a in enumerate(fit.anchors)
        }
        self._remember_fit(
            views,
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
        if len(views_new) != len(state["views"]):
            raise ValidationError(
                f"partial_fit batch has {len(views_new)} views; the fitted "
                f"stream has {len(state['views'])}"
            )
        for i, (x_new, x_old) in enumerate(zip(views_new, state["views"])):
            if x_new.shape[1] != x_old.shape[1]:
                raise ValidationError(
                    f"view {i} of the batch has {x_new.shape[1]} features; "
                    f"the fitted stream has {x_old.shape[1]}"
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
        with use_backend(self.backend), failure_guard(_SITE_PARTIAL):
            views_new = self._check_stream_batch(views)
            union = [
                np.vstack([x_old, x_new])
                for x_old, x_new in zip(self._stream["views"], views_new)
            ]
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
            z_full = [
                np.vstack(
                    [
                        z_old,
                        anchor_assignment(
                            x_new, anchors, k=self.n_anchor_neighbors
                        ),
                    ]
                )
                for z_old, x_new, anchors in zip(
                    state["z"], views_new, state["anchors"]
                )
            ]
            rep = _AnchorFactors(state["anchors"], z_full, self)

            # Warm start: embed under the carried-over weights, align the
            # rotation on the old rows only (new rows have no labels yet),
            # then extend the labels by nearest cluster and refine.
            w = np.asarray(state["weights"], dtype=np.float64).copy()
            f, _ = rep.embed(w, None, None, None)
            labels_old = state["labels"]
            n_old = labels_old.shape[0]
            rot = nearest_orthogonal(
                f[:n_old].T @ scaled_indicator(labels_old, c)
            )
            scores = f @ rot
            start = np.concatenate(
                [labels_old, np.argmax(scores[n_old:], axis=1)]
            )
            labels = indicator_coordinate_descent(scores, start, c)
        return self._alternate(
            rep, w, views_new, labels=labels, max_iter=refine_iters
        )

    def _fallback_refit(self, union) -> _StreamFit:
        metric_inc("streaming.partial_fit.refit_fallback")
        return self._full_fit(union)

    def partial_refit(self) -> np.ndarray:
        """Full alternation on the accumulated stream, anchors reused.

        The middle rung of the drift ladder: the stored anchors and
        ``Z_v`` are kept (no graph rebuild), but the F/Y/w alternation
        runs for the full ``max_iter`` budget warm-started from the
        current labels.  Runs under the ``streaming.refit`` fault site.
        """
        state = self._require_stream("partial_refit")
        with use_backend(self.backend), failure_guard(_SITE_REFIT):
            metric_inc("streaming.partial_refit.calls")
            views = state["views"]
            result = run_with_policy(
                _SITE_REFIT, lambda perturb: self._partial_refit_body()
            )
            self._commit(views, result)
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
            rep = _AnchorFactors(state["anchors"], state["z"], self)
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
        with use_backend(self.backend), failure_guard(_SITE_REFIT):
            metric_inc("streaming.refit.calls")
            views = state["views"]
            backend = current_backend()
            with span(
                "streaming.refit",
                n_seen=int(state["labels"].shape[0]),
                backend=backend.name,
            ):
                result = run_with_policy(
                    _SITE_REFIT, lambda perturb: self._full_fit(views)
                )
            self._commit(views, result)
            return result.labels

    def _require_stream(self, method: str) -> dict:
        if self._stream is None:
            raise ValidationError(
                f"{type(self).__name__}.{method}() requires a fitted model: "
                f"call fit_predict() or partial_fit() first"
            )
        return self._stream


class _AnchorFactors:
    """Anchor factors ``B_v``: AnchorMVSC's :func:`alternate` input.

    The F-step embeds ``B(w) B(w)^T`` via the stacked factor's Gram and
    records its ``multipliers``; view ``v`` costs ``c - ||B_v^T F||^2``.
    """

    def __init__(self, anchors, assignments, model: AnchorMVSC):
        self.anchors = list(anchors)
        self.assignments = list(assignments)
        self.factors = [anchor_affinity_factor(z) for z in self.assignments]
        self.n_clusters = model.n_clusters
        self.weighting, self.gamma = model.weighting, model.gamma
        self.multipliers: np.ndarray | None = None

    def embed(self, w, f, g, r) -> tuple[np.ndarray, None]:
        self.multipliers = fusion_multipliers(
            w, mode=self.weighting, gamma=self.gamma
        )
        stacked = np.hstack(
            [np.sqrt(mv) * b for mv, b in zip(self.multipliers, self.factors)]
        )
        return _top_left_singular(stacked, self.n_clusters), None

    def view_costs(self, f: np.ndarray) -> np.ndarray:
        return disagreement_costs(self.factors, f)
