"""K-means clustering built from scratch.

Lloyd's algorithm with k-means++ seeding and multiple restarts.  This is the
discretization stage that two-stage multi-view spectral clustering relies on
— and that the paper's unified framework removes — so it is implemented in
full rather than imported, and is reused by every two-stage baseline in
:mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.distance import pairwise_sq_euclidean
from repro.robust.faults import register_fault_site
from repro.robust.policy import matrix_context, run_with_policy
from repro.utils.rng import check_random_state
from repro.utils.validation import check_matrix

#: Relative inertia change below which a Lloyd run stops.
_TOL = 1e-7

_SITE_INIT = register_fault_site(
    "kmeans.init", "k-means++ center seeding (one restart)"
)


def _spread_centers(x: np.ndarray, n_clusters: int) -> np.ndarray:
    """Deterministic seeding fallback: evenly spaced rows of ``x``."""
    idx = np.round(np.linspace(0, x.shape[0] - 1, n_clusters)).astype(int)
    return x[idx].copy()


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one K-means fit.

    Attributes
    ----------
    labels : ndarray of int64, shape (n,)
        Cluster assignment in ``0..k-1``; every cluster non-empty.
    centers : ndarray of shape (k, d)
        Final centroids.
    inertia : float
        Sum of squared distances to assigned centroids (the K-means
        objective).
    n_iter : int
        Lloyd iterations of the winning restart.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int


def kmeans_plus_plus_init(
    x: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).

    Picks the first center uniformly, then each subsequent center with
    probability proportional to the squared distance to the nearest chosen
    center.

    Returns
    -------
    ndarray of shape (n_clusters, d)
    """
    x = check_matrix(x, "x")
    n = x.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValidationError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    centers = np.empty((n_clusters, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    closest = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = float(np.sum(closest))
        if total <= 0:
            # All remaining points coincide with a chosen center: fall back
            # to uniform choice among all points.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centers[i] = x[idx]
        np.minimum(closest, np.sum((x - centers[i]) ** 2, axis=1), out=closest)
    return centers


def _reseed_empty(
    labels: np.ndarray, point_cost: np.ndarray, k: int
) -> np.ndarray:
    """Fill every empty cluster in place; returns the cluster sizes.

    Empty clusters are taken in ascending order.  Each receives the point
    farthest from its centroid among clusters with at least two members,
    so a repair never empties another cluster; the moved point's cost
    becomes 0.  Needs ``k <= len(labels)``, which leaves a donor while
    any cluster is empty.
    """
    counts = np.bincount(labels, minlength=k)
    # A repair empties no cluster, so the empty set is known up front.
    for c in np.flatnonzero(counts == 0):
        donors = counts[labels] >= 2
        victim = int(np.argmax(np.where(donors, point_cost, -np.inf)))
        counts[labels[victim]] -= 1
        counts[c] = 1
        labels[victim] = c
        point_cost[victim] = 0.0
    return counts


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One Lloyd run from given initial centers.

    Empty clusters are re-seeded by :func:`_reseed_empty`, which keeps all
    ``k`` clusters alive.
    """
    n, _ = x.shape
    k = centers.shape[0]
    centers = centers.copy()
    labels = np.zeros(n, dtype=np.int64)
    prev_labels = None
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = pairwise_sq_euclidean(x, centers)
        labels = np.argmin(d2, axis=1).astype(np.int64)
        point_cost = d2[np.arange(n), labels]
        counts = _reseed_empty(labels, point_cost, k)
        new_centers = np.zeros_like(centers)
        np.add.at(new_centers, labels, x)
        new_centers /= counts[:, None]
        new_inertia = float(np.sum(point_cost))
        centers = new_centers
        stable = prev_labels is not None and np.array_equal(labels, prev_labels)
        small_gain = abs(inertia - new_inertia) <= _TOL * max(abs(new_inertia), 1.0)
        inertia = new_inertia
        if stable or small_gain:
            break
        prev_labels = labels
    return labels, centers, inertia, n_iter


class KMeans:
    """K-means estimator with k-means++ seeding and restarts.

    Parameters
    ----------
    n_clusters : int
        Number of clusters ``k``.
    n_init : int
        Restarts; the run with the lowest inertia wins.  The literature's
        convention for spectral discretization is 20.
    max_iter : int
        Lloyd iteration cap per restart.
    random_state : int, Generator, or None
        Seeding for reproducibility.

    Examples
    --------
    >>> import numpy as np
    >>> x = np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 10])
    >>> result = KMeans(n_clusters=2, random_state=0).fit(x)
    >>> sorted(np.bincount(result.labels).tolist())
    [5, 5]
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_init: int = 20,
        max_iter: int = 300,
        random_state=None,
    ) -> None:
        if n_clusters < 1:
            raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValidationError(f"n_init must be >= 1, got {n_init}")
        if max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.random_state = random_state

    def fit(self, x: np.ndarray) -> KMeansResult:
        """Cluster the rows of ``x``; returns the best restart."""
        x = check_matrix(x, "x")
        if self.n_clusters > x.shape[0]:
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds n_samples={x.shape[0]}"
            )
        rng = check_random_state(self.random_state)
        best: KMeansResult | None = None
        for _ in range(self.n_init):
            centers0 = run_with_policy(
                _SITE_INIT,
                lambda perturb: kmeans_plus_plus_init(x, self.n_clusters, rng),
                fallbacks=(("spread", lambda: _spread_centers(x, self.n_clusters)),),
                context=lambda: matrix_context(x, "x"),
            )
            labels, centers, inertia, n_iter = _lloyd(x, centers0, self.max_iter)
            if best is None or inertia < best.inertia:
                best = KMeansResult(labels, centers, inertia, n_iter)
        assert best is not None
        return best

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        """Convenience: :meth:`fit` and return only the labels."""
        return self.fit(x).labels
