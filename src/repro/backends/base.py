"""The :class:`ArrayBackend` class: the hot kernels behind one object.

An :class:`ArrayBackend` bundles the library's *hot kernels* — pairwise
distances, kNN selection, the affinity exponentials, the anchor-graph
weights and the scatter-add kernel vote — behind one object, so
:mod:`repro.graph.distance`, :mod:`repro.graph.affinity`,
:mod:`repro.graph.knn`, :mod:`repro.graph.anchor` and
:mod:`repro.serving.predictor` can dispatch without their callers
changing.  The eigensolvers and GPI are not backend methods: they cast
their operands with :meth:`ArrayBackend.prepare` and call scipy/numpy
themselves (:mod:`repro.linalg.eigen`, :mod:`repro.linalg.gpi`), so a
serving process, which runs only the kernel vote, never loads
:mod:`scipy.linalg`.

Contracts
---------
* A backend is an instance, not a subclass: the kernels are written
  once, in the dtype-generic numpy of this class, and the ``numpy`` and
  ``float32`` registry entries (:mod:`repro.backends`) differ only in
  their constructor arguments.
* The float64 instance *is* the reference implementation, bit-identical
  to the pre-backend code (``tolerance = 0.0`` is a tested guarantee,
  not an aspiration); any other instance must stay within its
  documented ``tolerance`` of it and must yield identical clusterings
  (label ARI 1.0) on the seed datasets.
* Kernel methods receive **pre-validated** arrays — the public functions
  in the graph/linalg/serving layers keep ownership of argument checking
  (exactly once per public call) and of the failure policy; backends own
  only the numerics.
* ``cache_token()`` feeds the computation-cache key, so a result
  computed under one numerical contract can never satisfy a lookup made
  under another (a float32 affinity never answers a float64 probe).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.simplex import simplex_projection_rowwise


class ArrayBackend:
    """A compute backend for the hot kernels, fixed by its dtypes.

    Instances are plain objects (no ``__slots__``), so a tracer or a
    test can wrap a kernel by assigning to the instance attribute.

    Parameters
    ----------
    name : str
        Registry name (``"numpy"``, ``"float32"``).
    compute_dtype : dtype-like
        The dtype the kernels compute in (and, for the distance/affinity
        kernels, return).
    validation_dtype : dtype-like or None
        What :func:`repro.utils.validation.check_matrix` should coerce
        inputs to at the public entry points: ``np.float64`` for the
        reference backend (the historical behavior), ``None`` for
        reduced-precision backends (preserve float32/float64 inputs
        as-is, so a float32 input is never silently doubled in memory;
        :meth:`prepare` then casts to ``compute_dtype``).
    tolerance : float
        Documented maximum relative deviation of this backend's kernels
        from the reference backend.  ``0.0`` means bit-exact.
    description : str
        One-line summary shown by ``repro backends list``.
    """

    def __init__(
        self,
        name: str,
        compute_dtype,
        validation_dtype,
        tolerance: float,
        description: str,
    ) -> None:
        self.name = name
        self.compute_dtype = np.dtype(compute_dtype)
        self.validation_dtype = (
            None if validation_dtype is None else np.dtype(validation_dtype)
        )
        self.tolerance = tolerance
        self.description = description

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"dtype={self.compute_dtype.name}, tolerance={self.tolerance!r})"
        )

    def cache_token(self) -> str:
        """Identity string hashed into every computation-cache key.

        Two backends share a token only if their kernels are
        bit-identical.
        """
        return f"{self.name}:{self.compute_dtype.str}"

    def prepare(self, x) -> np.ndarray:
        """Cast one validated array to the backend's compute dtype.

        A no-op (no copy) when the dtype already matches, which keeps
        the reference backend bit-exact and free.
        """
        return np.asarray(x, dtype=self.compute_dtype)

    # -- distance kernels --------------------------------------------------

    def pairwise_sq_euclidean(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        *,
        y_sq_norms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Raw squared-Euclidean kernel (see the public wrapper in
        :func:`repro.graph.distance.pairwise_sq_euclidean` for argument
        semantics; inputs here are already validated).

        ``y_sq_norms`` is a precomputed ``einsum("ij,ij->i", y, y)`` of
        shape ``(m,)``, letting a serving-time index amortize the
        reference-set norms across queries (see
        :mod:`repro.serving.predictor`); results are bit-identical to
        passing nothing.  Only valid together with ``y``.
        """
        x = self.prepare(x)
        symmetric = y is None
        y = x if symmetric else self.prepare(y)
        xx = np.einsum("ij,ij->i", x, x)
        if symmetric:
            yy = xx
        elif y_sq_norms is not None:
            yy = np.asarray(y_sq_norms, dtype=self.compute_dtype)
        else:
            yy = np.einsum("ij,ij->i", y, y)
        # In place, sparing an n x m temporary; doubling is exact, so the
        # roundings equal those of ``xx + yy - 2.0 * (x @ y.T)``.
        d = xx[:, None] + yy[None, :]
        g = x @ y.T
        g *= 2.0
        d -= g
        np.maximum(d, 0.0, out=d)
        if symmetric:
            np.fill_diagonal(d, 0.0)
            d = (d + d.T) / 2.0
        return d

    def pairwise_cosine_distances(
        self, x: np.ndarray, y: np.ndarray | None = None
    ) -> np.ndarray:
        """Raw cosine-distance kernel (zero rows maximally distant; see
        :func:`repro.graph.distance.pairwise_cosine_distances`)."""
        x = self.prepare(x)
        symmetric = y is None
        y = x if symmetric else self.prepare(y)
        xn = np.linalg.norm(x, axis=1)
        yn = xn if symmetric else np.linalg.norm(y, axis=1)
        safe_xn = np.where(xn > 0, xn, 1.0)
        safe_yn = np.where(yn > 0, yn, 1.0)
        sim = (x / safe_xn[:, None]) @ (y / safe_yn[:, None]).T
        sim[xn == 0, :] = 0.0
        sim[:, yn == 0] = 0.0
        d = 1.0 - sim
        np.clip(d, 0.0, 2.0, out=d)
        if symmetric:
            np.fill_diagonal(d, 0.0)
            dead = np.flatnonzero(xn == 0)
            d[dead, dead] = 1.0
            d = (d + d.T) / 2.0
        return d

    # -- kNN / affinity kernels --------------------------------------------

    def knn_select(
        self, distances: np.ndarray, k: int, *, include_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw top-k neighbor selection over a validated square distance
        matrix; returns ``(indices, dists)`` sorted by increasing
        distance (see :func:`repro.graph.knn.kneighbors`)."""
        work = self.prepare(distances).copy()
        n = work.shape[0]
        if not include_self:
            np.fill_diagonal(work, np.inf)
        # argpartition then sort within the top-k slice: O(n^2 + n k log k).
        part = np.argpartition(work, k - 1, axis=1)[:, :k]
        row = np.arange(n)[:, None]
        order = np.argsort(work[row, part], axis=1, kind="stable")
        idx = part[row, order]
        return idx, work[row, idx]

    def gaussian_kernel(self, d2: np.ndarray, sigma: float) -> np.ndarray:
        """Global-bandwidth RBF map ``exp(-d2 / (2 sigma^2))``."""
        return np.exp(-d2 / (2.0 * sigma * sigma))

    def self_tuning_kernel(
        self, d2: np.ndarray, sigma: np.ndarray
    ) -> np.ndarray:
        """Locally scaled map ``exp(-d2_ij / (sigma_i sigma_j))``."""
        return np.exp(-d2 / np.outer(sigma, sigma))

    # -- anchor-graph kernels ----------------------------------------------

    def anchor_can_weights(self, d2: np.ndarray, k: int) -> np.ndarray:
        """Row-stochastic CAN weights from sample-to-anchor distances.

        The body of :func:`repro.graph.anchor.anchor_assignment` after
        the distance computation: connect each sample to its ``k``
        nearest anchors with the CAN closed-form weights (exact simplex
        rows).  ``d2`` is a validated ``(n, m)`` squared-distance
        matrix; ``k == m`` degenerates to a projected full-row weight.
        """
        d2 = self.prepare(d2)
        n, m = d2.shape
        if k == m:
            return simplex_projection_rowwise(
                -d2 / max(float(d2.mean()), 1e-12)
            )
        order = np.argsort(d2, axis=1)
        rows = np.arange(n)[:, None]
        nearest = order[:, : k + 1]
        d_sorted = d2[rows, nearest]
        d_k = d_sorted[:, k]
        d_topk = d_sorted[:, :k]
        denom = k * d_k - np.sum(d_topk, axis=1)
        eps = np.finfo(self.compute_dtype).eps
        denom = np.where(denom > eps, denom, eps)
        vals = (d_k[:, None] - d_topk) / denom[:, None]
        vals = simplex_projection_rowwise(vals)
        z = np.zeros((n, m), dtype=vals.dtype)
        z[rows, nearest[:, :k]] = vals
        return z

    def anchor_affinity_factor(self, z: np.ndarray) -> np.ndarray:
        """Column-mass normalization ``B = Z Lambda^{-1/2}`` of a
        validated assignment matrix (see
        :func:`repro.graph.anchor.anchor_affinity_factor`)."""
        z = self.prepare(z)
        col_mass = z.sum(axis=0)
        inv_sqrt = np.where(
            col_mass > 0,
            1.0 / np.sqrt(np.maximum(col_mass, 1e-300)),
            0.0,
        )
        return z * inv_sqrt[None, :]

    def kernel_vote_scores(
        self,
        d2: np.ndarray,
        labels: np.ndarray,
        n_clusters: int,
        k: int,
    ) -> np.ndarray:
        """Raw scatter-add kernel vote (see the public wrapper
        :func:`repro.serving.predictor.kernel_vote_scores`).  Scores
        always accumulate in float64 regardless of ``compute_dtype``
        (votes are sums of many small terms)."""
        n_queries, n_train = d2.shape
        k = max(1, min(k, n_train))
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(n_queries)[:, None]
        local = d2[rows, idx]
        # Self-tuning bandwidth: each query's k-th neighbor distance.
        sigma2 = np.maximum(local.max(axis=1, keepdims=True), 1e-12)
        kernel = np.exp(-local / sigma2)
        scores = np.zeros((n_queries, n_clusters))
        np.add.at(scores, (rows, labels[idx]), kernel)
        return scores
