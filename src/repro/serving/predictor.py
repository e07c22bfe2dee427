"""Inductive batch inference over a fitted-model artifact.

:class:`Predictor` turns a :class:`~repro.serving.artifact.ModelArtifact`
into the serving-side classifier: each view of the training set becomes a
kNN index (the training matrix plus its precomputed squared row norms, so
per-query distances cost one GEMM), and unseen samples are labeled by the
same multi-view kernel vote the transductive helper
:func:`repro.core.out_of_sample.propagate_labels` defines —

``score(x_new, j) = sum_v w_v sum_{i in kNN_v(x_new)} K_v(x_new, x_i) [y_i = j]``

with the self-tuning bandwidth (each query's k-th neighbor distance).
:func:`kernel_vote_scores` is the *single* implementation of that vote in
the library; ``propagate_labels`` delegates here, so transductive and
serving paths can never drift apart.

``predict`` is chunked (``batch_size`` queries at a time) so the
``(batch, n_train)`` distance matrix — not ``(m, n_train)`` — bounds
memory on large query sets, and per-view score computation optionally
fans out over :func:`repro.pipeline.parallel.parallel_map` worker
threads (the run context's job count, :func:`~repro.pipeline.parallel.
use_jobs`).  Every per-query quantity (neighborhood, bandwidth, vote)
depends only on that query's row, so the job count is bit-neutral and
chunking preserves labels; *scores* can move in the last float bits
across different ``batch_size`` values because BLAS selects different
GEMM kernels for different operand shapes.

Validation happens once per input, at the boundary that received it: the
training views when the index is built, a query batch in
:meth:`Predictor.predict`.  Inside, the predictor resolves the run
context's backend once per call and hands the checked arrays straight
to its ``pairwise_sq_euclidean`` and ``kernel_vote_scores`` kernels;
nothing re-checks them.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.backends import current_backend
from repro.exceptions import ClampWarning, ValidationError
from repro.observability.trace import hot_span, metric_inc, span
from repro.pipeline.parallel import parallel_map
from repro.robust.faults import register_fault_site
from repro.robust.policy import failure_guard, matrix_context, run_with_policy
from repro.serving.artifact import ModelArtifact
from repro.utils.validation import check_labels, check_matrix

_SITE_PREDICT = register_fault_site(
    "serving.predict",
    "batched kernel-vote score computation (Predictor.predict path)",
)


def kernel_vote_scores(
    d2: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    k: int,
) -> np.ndarray:
    """Per-cluster kernel-vote scores from one view's query distances.

    The library's single implementation of the out-of-sample vote: take
    each query's ``k`` nearest training samples, weight them with the
    self-tuning kernel ``exp(-d2 / d2_k)`` (bandwidth = that query's
    k-th neighbor distance), and scatter-add the kernel weights into the
    neighbors' cluster columns — the one-hot matmul
    ``kernel @ one_hot(neighbor_labels)`` realized without materializing
    the one-hot tensor.

    Parameters
    ----------
    d2 : ndarray of shape (n_queries, n_train)
        Finite squared distances from each query to every training
        sample.
    labels : ndarray of int, shape (n_train,)
        Training-sample cluster labels in ``[0, n_clusters)``.
    n_clusters : int
        Number of score columns, ``>= 1``.
    k : int
        Neighbors consulted per query, ``>= 1``; values beyond
        ``n_train`` are clamped (callers surface that clamp, see
        :class:`~repro.exceptions.ClampWarning`).

    Returns
    -------
    ndarray of shape (n_queries, n_clusters)
        Non-negative float64 vote scores (accumulation stays float64
        under every backend).  The arithmetic is the active
        :class:`~repro.backends.ArrayBackend`'s ``kernel_vote_scores``
        kernel.

    Raises
    ------
    ValidationError
        If any argument violates the shapes and ranges above.
    """
    d2 = check_matrix(d2, "d2", dtype=None)
    n_clusters, k = int(n_clusters), int(k)
    if n_clusters < 1:
        raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    labels = check_labels(labels, "labels", n=d2.shape[1])
    if np.any(labels < 0) or np.any(labels >= n_clusters):
        raise ValidationError(
            f"labels must lie in [0, {n_clusters}), got "
            f"range [{labels.min()}, {labels.max()}]"
        )
    return current_backend().kernel_vote_scores(d2, labels, n_clusters, k)


class _ViewIndex:
    """One view's kNN reference set with precomputed squared norms.

    The squared-Euclidean expansion ``||x - t||^2 = ||x||^2 + ||t||^2 -
    2 x.t`` spends one pass over the training matrix on ``||t||^2``;
    this index pays that once at construction, so a query batch costs
    one GEMM plus its own norms.  Distances are bit-identical to
    :func:`repro.graph.distance.pairwise_sq_euclidean` without the
    cache.

    The training matrix is checked once, here; :meth:`sq_distances`
    takes rows its caller has already checked and calls the backend
    kernel directly.
    """

    __slots__ = ("train", "sq_norms")

    def __init__(self, train: np.ndarray) -> None:
        self.train = check_matrix(train, "train")
        self.sq_norms = np.einsum("ij,ij->i", self.train, self.train)

    def sq_distances(self, backend, queries: np.ndarray) -> np.ndarray:
        """Squared distances from each checked query row to every
        training row, on ``backend``'s kernel."""
        return backend.pairwise_sq_euclidean(
            queries, self.train, y_sq_norms=self.sq_norms
        )


class Predictor:
    """Batched inductive classifier over a fitted-model artifact.

    Parameters
    ----------
    artifact : ModelArtifact
        The fitted model (training views, labels, view weights,
        ``n_clusters``, ``n_neighbors``).
    batch_size : int
        Query-chunk size of :meth:`predict` /
        :meth:`predict_scores`; bounds peak memory at
        ``batch_size * n_train`` floats per view.  Chunking preserves
        labels (scores may differ in the last float bits across chunk
        shapes — BLAS kernel selection).

    Nothing changes a predictor after construction, so the worker
    threads of a :class:`~repro.serving.service.PredictionService`
    share one.  Each call runs on the run context's backend
    (:func:`~repro.backends.current_backend`, resolved once per call)
    and job count (:func:`~repro.pipeline.parallel.use_jobs`; results
    are bit-identical for any value, votes accumulate in view order).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.serving import ModelArtifact, Predictor
    >>> art = ModelArtifact(
    ...     model_class="UnifiedMVSC",
    ...     train_views=[np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 9])],
    ...     train_labels=np.repeat([0, 1], 5),
    ...     view_weights=np.array([1.0]),
    ...     n_clusters=2,
    ... )
    >>> Predictor(art).predict([np.array([[0.1, 0.1], [8.9, 9.2]])]).tolist()
    [0, 1]
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        batch_size: int = 4096,
    ) -> None:
        if not isinstance(artifact, ModelArtifact):
            raise ValidationError(
                f"artifact must be a ModelArtifact, got "
                f"{type(artifact).__name__}"
            )
        if int(batch_size) < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.artifact = artifact
        self.batch_size = int(batch_size)
        n_train = artifact.n_samples
        if artifact.n_neighbors > n_train:
            warnings.warn(
                f"n_neighbors={artifact.n_neighbors} exceeds the "
                f"training-set size {n_train}; clamping the vote "
                f"neighborhood to all {n_train} training samples",
                ClampWarning,
                stacklevel=2,
            )
        self._k = min(artifact.n_neighbors, n_train)
        self._weights = artifact.view_weights / artifact.view_weights.sum()
        with span(
            "serving.index_build",
            n_views=artifact.n_views,
            n_train=n_train,
        ):
            self._indexes = [_ViewIndex(v) for v in artifact.train_views]

    def __repr__(self) -> str:
        a = self.artifact
        return (
            f"{type(self).__name__}(model={a.model_class!r}, "
            f"n_train={a.n_samples}, n_views={a.n_views}, "
            f"n_clusters={a.n_clusters}, n_neighbors={a.n_neighbors}, "
            f"batch_size={self.batch_size})"
        )

    @classmethod
    def load(
        cls,
        directory,
        *,
        batch_size: int = 4096,
    ) -> "Predictor":
        """Load an artifact directory and build the predictor over it."""
        return cls(ModelArtifact.load(directory), batch_size=batch_size)

    # -- public API --------------------------------------------------------

    def predict(self, views) -> np.ndarray:
        """Assign a cluster label to each unseen sample.

        Parameters
        ----------
        views : sequence of ndarray (m, d_v)
            The same views the model was fitted on (same order, same
            per-view feature dimensions).

        Returns
        -------
        ndarray of int64, shape (m,)
            Cluster assignments, identical to
            :func:`~repro.core.out_of_sample.propagate_labels` on the
            same inputs (both run this implementation).
        """
        scores = self.predict_scores(views)
        return np.argmax(scores, axis=1).astype(np.int64)

    def predict_scores(self, views) -> np.ndarray:
        """Soft per-cluster scores of each unseen sample.

        Returns
        -------
        ndarray of shape (m, n_clusters)
            View-weighted kernel-vote scores; ``argmax`` over columns is
            :meth:`predict`.
        """
        views = self._check_query_views(views)
        m = views[0].shape[0]
        batch_size = self.batch_size
        backend = current_backend()
        with hot_span(
            "serving.predict",
            n_samples=m,
            batch_size=batch_size,
            backend=backend.name,
        ), failure_guard(_SITE_PREDICT):
            chunks = []
            for start in range(0, m, batch_size):
                chunk = [v[start : start + batch_size] for v in views]
                chunks.append(self._scores_batch(chunk, backend))
            scores = (
                chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            )
        metric_inc("serving.requests", m)
        return scores

    # -- internals ---------------------------------------------------------

    def _check_query_views(self, views) -> list:
        """Validate query views against the artifact's view schema."""
        if isinstance(views, np.ndarray) and views.ndim == 2:
            views = [views]
        try:
            seq = list(views)
        except TypeError as exc:
            raise ValidationError(
                "views must be a sequence of 2-D arrays"
            ) from exc
        if len(seq) != self.artifact.n_views:
            raise ValidationError(
                f"model has {self.artifact.n_views} views but the query "
                f"has {len(seq)} views"
            )
        mats = [check_matrix(v, f"views[{i}]") for i, v in enumerate(seq)]
        n = mats[0].shape[0]
        for v, (mat, d) in enumerate(zip(mats, self.artifact.view_dims)):
            if mat.shape[1] != d:
                raise ValidationError(
                    f"view {v}: train dim {d} != new dim {mat.shape[1]}"
                )
            if mat.shape[0] != n:
                raise ValidationError(
                    f"all views must have the same number of rows; "
                    f"views[0] has {n} but views[{v}] has {mat.shape[0]}"
                )
        return mats

    def _scores_batch(self, chunk: list, backend) -> np.ndarray:
        """Weighted multi-view vote scores of one checked query chunk.

        Runs under the ``serving.predict`` failure policy: a transient
        failure (or an injected fault) gets the policy's retries, and a
        parallel-path failure falls back to the serial map before the
        policy gives up.
        """
        a = self.artifact

        def vote(v: int) -> np.ndarray:
            d2 = self._indexes[v].sq_distances(backend, chunk[v])
            return self._weights[v] * backend.kernel_vote_scores(
                d2, a.train_labels, a.n_clusters, self._k
            )

        def accumulate(per_view: list) -> np.ndarray:
            total = np.zeros((chunk[0].shape[0], a.n_clusters))
            for scores in per_view:
                total += scores
            return total

        def primary(perturb: float) -> np.ndarray:
            return accumulate(
                parallel_map(vote, range(a.n_views))
            )

        def serial() -> np.ndarray:
            return accumulate([vote(v) for v in range(a.n_views)])

        return run_with_policy(
            _SITE_PREDICT,
            primary,
            fallbacks=(("serial", serial),),
            context=lambda: matrix_context(chunk[0], "views[0]"),
        )
