"""Synthetic multi-view data generation.

The generator follows the standard latent-cluster model of the multi-view
literature's simulation studies:

1. draw a *latent* representation per sample — a cluster center plus
   isotropic within-cluster scatter (:func:`make_latent_clusters`);
2. render each view by pushing the latent representation through a
   view-specific random map with view-specific noise and an optional
   *cluster confusion* step that collapses selected cluster pairs in that
   view only (:func:`view_from_latent`).

The confusion step is what makes multi-view fusion genuinely necessary:
each single view cannot separate its confused pairs, but the pairs differ
across views, so only a method that integrates all views can recover the
full partition — exactly the regime the paper's experiments probe.

View kinds:

* ``dense``  — tanh of a random linear map plus Gaussian noise (image-
  descriptor-like features);
* ``text``   — softplus projection, multiplicative noise, hard
  sparsification to :data:`TEXT_DENSITY` (5%) nonzeros with an idf-style
  reweighting (bag-of-words tf-idf-like features);
* ``binary`` — thresholded projections (binary pattern features).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.container import MultiViewDataset
from repro.exceptions import ValidationError
from repro.utils.rng import check_random_state

#: Nonzero fraction of a ``text`` view's rows and distractor columns.
TEXT_DENSITY = 0.05


def make_latent_clusters(
    n_samples: int,
    n_clusters: int,
    *,
    latent_dim: int = 16,
    separation: float = 4.0,
    within_scatter: float = 1.0,
    balance: float = 1.0,
    cluster_sizes=None,
    manifold: float = 0.0,
    random_state=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw latent cluster structure.

    Parameters
    ----------
    n_samples : int
        Total samples.
    n_clusters : int
        Number of clusters; each gets at least one sample.
    latent_dim : int
        Latent dimensionality.
    separation : float
        Distance scale of cluster centers (centers are random Gaussian
        vectors scaled to norm ~``separation``).
    within_scatter : float
        Isotropic within-cluster standard deviation.
    balance : float
        1.0 gives equal-size clusters; smaller values skew sizes via a
        Dirichlet draw with concentration ``10 * balance``.  A draw whose
        rounded size would leave a cluster empty (likely at small
        ``n_samples`` with small ``balance``) raises
        :class:`~repro.exceptions.ValidationError` instead of silently
        redistributing samples.
    cluster_sizes : sequence of int, optional
        Explicit per-cluster sample counts (all ``>= 1``, summing to
        ``n_samples``).  Overrides ``balance``; this is the deterministic
        hook the scenario factory's imbalance knob uses.
    manifold : float
        Filament length.  0 gives isotropic Gaussian clusters (convex,
        K-means-friendly); positive values stretch each cluster along a
        random curved 1-D filament of this half-length, producing the
        elongated non-convex shapes real image/text clusters exhibit —
        neighborhood graphs follow the filament, centroid methods split
        it.
    random_state : int, Generator, or None

    Returns
    -------
    (z, labels, centers)
        ``z`` latent matrix ``(n, latent_dim)``; ``labels`` in
        ``0..n_clusters-1``; ``centers`` ``(n_clusters, latent_dim)``.
    """
    if n_clusters < 1 or n_samples < n_clusters:
        raise ValidationError(
            f"need n_samples >= n_clusters >= 1, got {n_samples}, {n_clusters}"
        )
    if separation < 0 or within_scatter < 0:
        raise ValidationError("separation and within_scatter must be non-negative")
    if balance <= 0 or balance > 1:
        raise ValidationError(f"balance must be in (0, 1], got {balance}")
    rng = check_random_state(random_state)

    if cluster_sizes is not None:
        sizes = np.asarray(cluster_sizes, dtype=np.int64)
        if sizes.shape != (n_clusters,):
            raise ValidationError(
                f"cluster_sizes must have shape ({n_clusters},), "
                f"got {sizes.shape}"
            )
        if sizes.min() < 1:
            offender = int(np.argmin(sizes))
            raise ValidationError(
                f"cluster_sizes[{offender}] = {int(sizes[offender])} would "
                f"leave cluster {offender} empty; every cluster needs >= 1 "
                "sample"
            )
        if sizes.sum() != n_samples:
            raise ValidationError(
                f"cluster_sizes sums to {int(sizes.sum())}, "
                f"expected n_samples = {n_samples}"
            )
    elif balance >= 1.0:
        sizes = np.full(n_clusters, n_samples // n_clusters)
        sizes[: n_samples % n_clusters] += 1
    else:
        probs = rng.dirichlet(np.full(n_clusters, 10.0 * balance))
        sizes = np.round(probs * n_samples).astype(int)
        if sizes.min() < 1:
            offender = int(np.argmin(sizes))
            raise ValidationError(
                f"balance={balance} left cluster {offender} with "
                f"{int(sizes[offender])} samples (rounded from "
                f"{probs[offender] * n_samples:.2f} of n_samples="
                f"{n_samples}); increase n_samples or balance, or pass "
                "explicit cluster_sizes"
            )
        # Fix rounding drift while keeping every cluster non-empty: the
        # decrement always targets the current largest cluster, which has
        # >= 2 samples whenever the total still exceeds n_samples.
        while sizes.sum() > n_samples:
            sizes[np.argmax(sizes)] -= 1
        while sizes.sum() < n_samples:
            sizes[np.argmin(sizes)] += 1

    centers = rng.normal(size=(n_clusters, latent_dim))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = centers / np.where(norms > 0, norms, 1.0) * separation

    if manifold < 0:
        raise ValidationError(f"manifold must be non-negative, got {manifold}")

    labels = np.repeat(np.arange(n_clusters), sizes)
    rng.shuffle(labels)
    z = centers[labels] + rng.normal(scale=within_scatter, size=(n_samples, latent_dim))
    if manifold > 0 and latent_dim >= 2:
        # Stretch each cluster along a random curved filament: points move
        # by t along a direction d1 and by a sine bend along d2.
        for cluster in range(n_clusters):
            mask = labels == cluster
            count = int(np.sum(mask))
            if count == 0:
                continue
            basis = rng.normal(size=(latent_dim, 2))
            q, _ = np.linalg.qr(basis)
            d1, d2 = q[:, 0], q[:, 1]
            t = rng.uniform(-manifold, manifold, size=count)
            bend = 0.5 * manifold * np.sin(np.pi * t / manifold)
            z[mask] += np.outer(t, d1) + np.outer(bend, d2)
    return z, labels.astype(np.int64), centers


def _confuse_clusters(
    z_view: np.ndarray,
    labels: np.ndarray,
    centers_view: np.ndarray,
    confused_pairs,
) -> np.ndarray:
    """Collapse each confused cluster pair onto the pair's midpoint.

    Points of both clusters are re-centered on the shared midpoint (their
    within-cluster scatter is preserved), so the pair becomes inseparable
    *in this view* while other views retain the distinction.
    """
    out = z_view.copy()
    for a, b in confused_pairs:
        mid = (centers_view[a] + centers_view[b]) / 2.0
        for c in (a, b):
            mask = labels == c
            out[mask] += mid - centers_view[c]
    return out


def view_from_latent(
    z: np.ndarray,
    dim: int,
    *,
    kind: str = "dense",
    noise: float = 0.3,
    labels: np.ndarray | None = None,
    centers: np.ndarray | None = None,
    confused_pairs=(),
    distractor_fraction: float = 0.0,
    outlier_fraction: float = 0.0,
    random_state=None,
) -> np.ndarray:
    """Render one view from the latent representation.

    Parameters
    ----------
    z : ndarray of shape (n, latent_dim)
        Latent samples.
    dim : int
        Output feature dimensionality of the view.
    kind : {"dense", "text", "binary"}
        Feature family (see module docstring).
    noise : float
        View-quality knob: additive Gaussian noise scale (dense/binary) or
        multiplicative log-normal scale (text).  Larger = worse view.
    labels, centers : optional
        Required when ``confused_pairs`` is non-empty.
    confused_pairs : sequence of (int, int)
        Cluster pairs collapsed in this view only.
    distractor_fraction : float
        Fraction of the output dimensions that carry pure noise instead of
        signal, mimicking the uninformative components of real descriptors.
    outlier_fraction : float
        Fraction of samples whose rendering in *this view* is corrupted by
        heavy noise (view-specific outliers, as in real measurements).
    random_state : int, Generator, or None

    Returns
    -------
    ndarray of shape (n, dim)
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValidationError("z must be 2-D")
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    if noise < 0:
        raise ValidationError(f"noise must be non-negative, got {noise}")
    if not 0 <= distractor_fraction < 1:
        raise ValidationError(
            f"distractor_fraction must be in [0, 1), got {distractor_fraction}"
        )
    if not 0 <= outlier_fraction <= 1:
        raise ValidationError(
            f"outlier_fraction must be in [0, 1], got {outlier_fraction}"
        )
    rng = check_random_state(random_state)

    if confused_pairs:
        if labels is None or centers is None:
            raise ValidationError(
                "labels and centers are required when confused_pairs is given"
            )
        z = _confuse_clusters(z, np.asarray(labels), np.asarray(centers), confused_pairs)

    n = z.shape[0]
    latent_dim = z.shape[1]
    n_distract = int(np.floor(distractor_fraction * dim))
    n_signal = dim - n_distract
    proj = rng.normal(size=(latent_dim, n_signal)) / np.sqrt(latent_dim)
    lin = z @ proj

    # View-specific outliers: corrupt the latent rendering of a few samples
    # with heavy noise before the output nonlinearity.
    if outlier_fraction > 0:
        n_out = int(np.round(outlier_fraction * n))
        if n_out > 0:
            rows = rng.choice(n, size=n_out, replace=False)
            lin[rows] += rng.normal(scale=4.0, size=(n_out, n_signal))

    if kind == "dense":
        x = np.tanh(lin) + rng.normal(scale=noise, size=lin.shape)
    elif kind == "binary":
        x = (lin + rng.normal(scale=noise, size=lin.shape) > 0).astype(np.float64)
    elif kind == "text":
        act = np.log1p(np.exp(lin))  # softplus: non-negative activations
        act *= np.exp(rng.normal(scale=noise, size=act.shape))
        # Keep each row's top ceil(TEXT_DENSITY * n_signal) activations.
        keep = max(1, int(np.ceil(TEXT_DENSITY * n_signal)))
        thresh = np.partition(act, n_signal - keep, axis=1)[:, n_signal - keep, None]
        x = np.where(act >= thresh, act, 0.0)
        # idf-style reweighting: rare "terms" count more.
        df = np.count_nonzero(x, axis=0)
        idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
        x = x * idf[None, :]
    else:
        raise ValidationError(f"unknown view kind: {kind!r}")

    if n_distract == 0:
        return x
    # Distractor dimensions: noise with the same marginal family as the
    # signal so simple variance filters cannot strip them.
    if kind == "text":
        distract = np.where(
            rng.random(size=(n, n_distract)) < TEXT_DENSITY,
            rng.exponential(scale=1.0, size=(n, n_distract)),
            0.0,
        )
    elif kind == "binary":
        distract = (rng.random(size=(n, n_distract)) < 0.5).astype(np.float64)
    else:
        distract = rng.normal(scale=max(noise, 0.5), size=(n, n_distract))
    out = np.concatenate([x, distract], axis=1)
    # Shuffle columns so distractors are interleaved like in real features.
    perm = rng.permutation(dim)
    return out[:, perm]


def make_multiview_blobs(
    n_samples: int = 300,
    n_clusters: int = 3,
    *,
    view_dims=(20, 30),
    view_kinds=None,
    view_noise=None,
    view_distractors=None,
    view_outliers=None,
    confusion_schedule=None,
    latent_dim: int = 16,
    separation: float = 4.0,
    within_scatter: float = 1.0,
    balance: float = 1.0,
    manifold: float = 0.0,
    name: str = "multiview_blobs",
    random_state=None,
) -> MultiViewDataset:
    """Generate a complete multi-view dataset.

    Parameters
    ----------
    n_samples, n_clusters : int
        Size and cluster count.
    view_dims : sequence of int
        One output dimensionality per view.
    view_kinds : sequence of str, optional
        Per-view feature family; defaults to all ``dense``.
    view_noise : sequence of float, optional
        Per-view quality; defaults to an increasing ramp (first view best)
        so views are heterogeneous, like real benchmarks.
    view_distractors : sequence of float, optional
        Per-view fraction of pure-noise dimensions; defaults to 0.3
        everywhere (real descriptors carry many uninformative components).
    view_outliers : sequence of float, optional
        Per-view fraction of corrupted samples; defaults to 0.02.
    confusion_schedule : sequence of sequence of (int, int), optional
        Per-view confused cluster pairs.  Default: view ``v`` confuses the
        pair ``(2v mod c, (2v+1) mod c)`` when ``c >= 4``, giving each view
        complementary blind spots.
    latent_dim, separation, within_scatter, balance, manifold : see
        :func:`make_latent_clusters`.
    name : str
        Dataset name.
    random_state : int, Generator, or None

    Returns
    -------
    MultiViewDataset
    """
    rng = check_random_state(random_state)
    view_dims = tuple(int(d) for d in view_dims)
    n_views = len(view_dims)
    if n_views < 1:
        raise ValidationError("need at least one view")
    if view_kinds is None:
        view_kinds = ("dense",) * n_views
    if len(view_kinds) != n_views:
        raise ValidationError("view_kinds length must match view_dims")
    if view_noise is None:
        view_noise = tuple(0.2 + 0.25 * v for v in range(n_views))
    if len(view_noise) != n_views:
        raise ValidationError("view_noise length must match view_dims")
    if view_distractors is None:
        view_distractors = (0.3,) * n_views
    if len(view_distractors) != n_views:
        raise ValidationError("view_distractors length must match view_dims")
    if view_outliers is None:
        view_outliers = (0.02,) * n_views
    if len(view_outliers) != n_views:
        raise ValidationError("view_outliers length must match view_dims")

    z, labels, centers = make_latent_clusters(
        n_samples,
        n_clusters,
        latent_dim=latent_dim,
        separation=separation,
        within_scatter=within_scatter,
        balance=balance,
        manifold=manifold,
        random_state=rng,
    )

    if confusion_schedule is None:
        if n_clusters >= 4:
            confusion_schedule = [
                [((2 * v) % n_clusters, (2 * v + 1) % n_clusters)]
                for v in range(n_views)
            ]
            # Drop degenerate self-pairs that arise when c is odd.
            confusion_schedule = [
                [(a, b) for a, b in pairs if a != b] for pairs in confusion_schedule
            ]
        else:
            confusion_schedule = [[] for _ in range(n_views)]
    if len(confusion_schedule) != n_views:
        raise ValidationError("confusion_schedule length must match view_dims")

    views = []
    for v in range(n_views):
        views.append(
            view_from_latent(
                z,
                view_dims[v],
                kind=view_kinds[v],
                noise=float(view_noise[v]),
                labels=labels,
                centers=centers,
                confused_pairs=confusion_schedule[v],
                distractor_fraction=float(view_distractors[v]),
                outlier_fraction=float(view_outliers[v]),
                random_state=rng,
            )
        )

    return MultiViewDataset(
        name=name,
        views=views,
        labels=labels,
        view_names=[f"{view_kinds[v]}_{view_dims[v]}d" for v in range(n_views)],
        description=(
            f"synthetic latent-cluster multi-view data "
            f"(latent_dim={latent_dim}, separation={separation})"
        ),
    )
