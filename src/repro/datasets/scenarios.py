"""Scenario factory: controlled multi-view benchmark generation.

The robustness claims of the unified framework (view reweighting, graph
fusion) need *measured* evidence, not a handful of fixed synthetic
shapes.  This module turns the latent-cluster generator
(:func:`~repro.datasets.synth.make_latent_clusters` /
:func:`~repro.datasets.synth.view_from_latent`) into a **scenario
factory**: a declarative :class:`Scenario` spec whose knobs each model
one failure mode a production system ingesting real multi-view records
will face —

* **cluster imbalance** (``imbalance_ratio``): deterministic geometric
  size profile with a requested largest/smallest ratio;
* **view roles** (``view_roles``): *complementary* views confuse distinct
  cluster pairs (fusion is genuinely required), *redundant* views repeat
  the first complementary view's blind spot (they add noise-averaging
  but no new information);
* **heterogeneous view kinds** (``view_kinds``): dense / tf-idf-like
  text / binary feature families mixed in one dataset;
* **per-view noise, distractors, outliers** (``view_noise``,
  ``view_distractors``, ``view_outliers``): rendering-quality knobs
  passed through to :func:`view_from_latent`;
* **feature dropout** (``feature_dropout``): a fraction of each view's
  feature entries zeroed (sensor dropout / sparsification corruption);
* **shuffle corruption** (``shuffle_fractions``): a fraction of each
  view's rows permuted among themselves, breaking cross-view sample
  alignment for those rows (record-linking errors);
* **missing samples** (``missing_rates``): per-view observation masks in
  the shape :mod:`repro.core.incomplete` consumes, with guaranteed
  every-sample-covered repair.

Two contracts make scenarios fit for regression testing:

1. **Determinism** — generation is a pure function of
   ``(scenario, seed)``; golden tests pin blake2b content hashes.
2. **Stream isolation** — every knob draws from its own child of one
   :class:`numpy.random.SeedSequence`, so *disabling* a knob (rate 0)
   yields bit-identical output for everything else.  Turning dropout on
   cannot silently change which samples go missing.

:func:`generate` materializes a :class:`ScenarioData` (dataset + masks +
content hash); the built-in registry (:func:`available_scenarios` /
:func:`get_scenario`) names the grid the scenario-matrix harness
(:mod:`repro.evaluation.scenario_matrix`) runs methods across.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datasets.container import MultiViewDataset
from repro.datasets.synth import (
    _confuse_clusters,
    make_latent_clusters,
    view_from_latent,
)
from repro.exceptions import ValidationError

#: Feature families understood by :func:`view_from_latent`.
VIEW_KINDS = ("dense", "text", "binary")

#: Information roles a view can play in the confusion schedule.
VIEW_ROLES = ("complementary", "redundant")

#: Highest per-view missing rate a scenario may request; beyond this the
#: observed subsample is too thin for the incomplete-graph machinery.
MAX_MISSING_RATE = 0.8


def _per_view(value, n_views: int, name: str, default: float) -> tuple:
    """Normalize a scalar-or-sequence knob into one float per view."""
    if value is None:
        return (float(default),) * n_views
    if np.isscalar(value):
        return (float(value),) * n_views
    out = tuple(float(v) for v in value)
    if len(out) != n_views:
        raise ValidationError(
            f"{name} must have one entry per view ({n_views}), "
            f"got {len(out)}"
        )
    return out


def _check_fractions(values, name: str, *, high: float = 1.0) -> None:
    for v, frac in enumerate(values):
        if not 0.0 <= frac <= high:
            raise ValidationError(
                f"{name}[{v}] must be in [0, {high}], got {frac}"
            )


@dataclass(frozen=True)
class Scenario:
    """Declarative spec of one controlled multi-view benchmark.

    Per-view knobs accept a scalar (broadcast to every view) or one
    value per view; ``__post_init__`` normalizes them to tuples, so a
    constructed ``Scenario`` is always fully explicit and hashable;
    :meth:`to_dict` is the form bench reports embed.

    ``confused_pairs`` explicitly fixes the per-view confusion schedule;
    when ``None`` it is derived from ``view_roles`` (see
    :meth:`confusion_schedule`).
    """

    name: str
    description: str = ""
    n_samples: int = 240
    n_clusters: int = 4
    view_dims: tuple = (20, 30, 16)
    view_kinds: tuple | None = None
    latent_dim: int = 16
    separation: float = 4.0
    within_scatter: float = 1.0
    manifold: float = 0.0
    imbalance_ratio: float = 1.0
    view_noise: tuple | float | None = None
    view_distractors: tuple | float | None = None
    view_outliers: tuple | float | None = None
    view_roles: tuple | None = None
    confused_pairs: tuple | None = None
    feature_dropout: tuple | float | None = None
    shuffle_fractions: tuple | float | None = None
    missing_rates: tuple | float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario name must be non-empty")
        if self.n_clusters < 1 or self.n_samples < self.n_clusters:
            raise ValidationError(
                f"need n_samples >= n_clusters >= 1, got "
                f"{self.n_samples}, {self.n_clusters}"
            )
        dims = tuple(int(d) for d in self.view_dims)
        if not dims:
            raise ValidationError("need at least one view")
        if min(dims) < 1:
            raise ValidationError(f"view_dims must be >= 1, got {dims}")
        object.__setattr__(self, "view_dims", dims)
        n_views = len(dims)

        kinds = self.view_kinds
        if kinds is None:
            kinds = ("dense",) * n_views
        elif isinstance(kinds, str):
            kinds = (kinds,) * n_views
        else:
            kinds = tuple(str(k) for k in kinds)
        if len(kinds) != n_views:
            raise ValidationError(
                f"view_kinds must have one entry per view ({n_views}), "
                f"got {len(kinds)}"
            )
        unknown = [k for k in kinds if k not in VIEW_KINDS]
        if unknown:
            raise ValidationError(
                f"unknown view kinds {unknown}; choose from {VIEW_KINDS}"
            )
        object.__setattr__(self, "view_kinds", kinds)

        roles = self.view_roles
        if roles is None:
            roles = ("complementary",) * n_views
        elif isinstance(roles, str):
            roles = (roles,) * n_views
        else:
            roles = tuple(str(r) for r in roles)
        if len(roles) != n_views:
            raise ValidationError(
                f"view_roles must have one entry per view ({n_views}), "
                f"got {len(roles)}"
            )
        bad = [r for r in roles if r not in VIEW_ROLES]
        if bad:
            raise ValidationError(
                f"unknown view roles {bad}; choose from {VIEW_ROLES}"
            )
        object.__setattr__(self, "view_roles", roles)

        if self.imbalance_ratio < 1.0:
            raise ValidationError(
                f"imbalance_ratio must be >= 1, got {self.imbalance_ratio}"
            )

        for field_name, default, high in (
            ("view_noise", 0.3, float("inf")),
            ("view_distractors", 0.0, 0.99),
            ("view_outliers", 0.0, 1.0),
            ("feature_dropout", 0.0, 0.95),
            ("shuffle_fractions", 0.0, 1.0),
            ("missing_rates", 0.0, MAX_MISSING_RATE),
        ):
            values = _per_view(
                getattr(self, field_name), n_views, field_name, default
            )
            if high < float("inf"):
                _check_fractions(values, field_name, high=high)
            elif min(values) < 0:
                raise ValidationError(
                    f"{field_name} entries must be non-negative, got {values}"
                )
            object.__setattr__(self, field_name, values)

        if self.confused_pairs is not None:
            schedule = []
            if len(self.confused_pairs) != n_views:
                raise ValidationError(
                    f"confused_pairs must have one entry per view "
                    f"({n_views}), got {len(self.confused_pairs)}"
                )
            for v, pairs in enumerate(self.confused_pairs):
                normalized = []
                for pair in pairs:
                    a, b = (int(pair[0]), int(pair[1]))
                    if not (
                        0 <= a < self.n_clusters and 0 <= b < self.n_clusters
                    ) or a == b:
                        raise ValidationError(
                            f"confused_pairs[{v}] contains invalid pair "
                            f"({a}, {b}) for {self.n_clusters} clusters"
                        )
                    normalized.append((a, b))
                schedule.append(tuple(normalized))
            object.__setattr__(self, "confused_pairs", tuple(schedule))

    @property
    def n_views(self) -> int:
        """Number of views the scenario renders."""
        return len(self.view_dims)

    def confusion_schedule(self) -> list:
        """Per-view confused cluster pairs.

        Explicit ``confused_pairs`` wins.  Otherwise, each
        *complementary* view ``i`` (counting complementary views only)
        confuses ``(2i mod c, (2i+1) mod c)`` — a distinct blind spot per
        view — while every *redundant* view repeats the first
        complementary pair, contributing no new separating information.
        Datasets with fewer than 4 clusters get no confusion (a single
        collapsed pair would leave no view able to separate it).
        """
        if self.confused_pairs is not None:
            return [list(pairs) for pairs in self.confused_pairs]
        c = self.n_clusters
        if c < 4:
            return [[] for _ in range(self.n_views)]

        def pair(i: int) -> list:
            a, b = (2 * i) % c, (2 * i + 1) % c
            return [] if a == b else [(a, b)]

        schedule = []
        comp_index = 0
        for role in self.view_roles:
            if role == "redundant":
                schedule.append(pair(0))
            else:
                schedule.append(pair(comp_index))
                comp_index += 1
        return schedule

    def cluster_sizes(self) -> np.ndarray:
        """Deterministic per-cluster sample counts.

        ``imbalance_ratio`` r shapes sizes along a geometric profile
        ``r**(j/(c-1))`` (largest/smallest ≈ r), apportioned to
        ``n_samples`` by largest remainder.  Ratio 1 gives the balanced
        split.  An unachievable profile (some cluster would round to
        empty) raises :class:`ValidationError`.
        """
        n, c = self.n_samples, self.n_clusters
        if c == 1:
            return np.array([n], dtype=np.int64)
        weights = self.imbalance_ratio ** (np.arange(c) / (c - 1))
        quota = weights / weights.sum() * n
        sizes = np.floor(quota).astype(np.int64)
        remainder = quota - sizes
        for j in np.argsort(-remainder)[: n - int(sizes.sum())]:
            sizes[j] += 1
        if sizes.min() < 1:
            offender = int(np.argmin(sizes))
            raise ValidationError(
                f"imbalance_ratio={self.imbalance_ratio} leaves cluster "
                f"{offender} with {int(sizes[offender])} samples at "
                f"n_samples={n}; increase n_samples or lower the ratio"
            )
        return sizes

    def with_size(self, n_samples: int) -> "Scenario":
        """Same scenario at a different sample count (quick variants)."""
        return dataclasses.replace(self, n_samples=int(n_samples))

    def knob_summary(self) -> str:
        """Compact human-readable list of the non-default knobs."""
        parts = []
        schedule = self.confusion_schedule()
        if any(schedule):
            parts.append(
                "confusion=" + "/".join(str(len(p)) for p in schedule)
            )
        if self.imbalance_ratio > 1.0:
            parts.append(f"imbalance={self.imbalance_ratio:g}")
        if any(r == "redundant" for r in self.view_roles):
            parts.append(
                "roles=" + "/".join(r[:4] for r in self.view_roles)
            )
        if len(set(self.view_kinds)) > 1:
            parts.append("kinds=" + "/".join(self.view_kinds))
        for label, values in (
            ("noise", self.view_noise),
            ("distract", self.view_distractors),
            ("outliers", self.view_outliers),
            ("dropout", self.feature_dropout),
            ("shuffle", self.shuffle_fractions),
            ("missing", self.missing_rates),
        ):
            if label == "noise":
                if max(values) > 0.5:
                    parts.append(
                        label + "=" + "/".join(f"{v:g}" for v in values)
                    )
            elif any(v > 0 for v in values):
                parts.append(label + "=" + "/".join(f"{v:g}" for v in values))
        return ", ".join(parts) if parts else "clean"

    def to_dict(self) -> dict:
        """JSON-ready representation (embedded in bench reports)."""
        payload = dataclasses.asdict(self)
        payload["view_dims"] = list(self.view_dims)
        payload["view_kinds"] = list(self.view_kinds)
        payload["view_roles"] = list(self.view_roles)
        for key in (
            "view_noise",
            "view_distractors",
            "view_outliers",
            "feature_dropout",
            "shuffle_fractions",
            "missing_rates",
        ):
            payload[key] = list(getattr(self, key))
        if self.confused_pairs is not None:
            payload["confused_pairs"] = [
                [[a, b] for a, b in pairs] for pairs in self.confused_pairs
            ]
        return payload


@dataclass
class ScenarioData:
    """One materialized scenario: dataset, observation masks, provenance.

    ``masks`` is ``None`` for complete scenarios; otherwise one boolean
    array per view (``masks[v][i]`` True iff sample ``i`` is observed in
    view ``v``) in exactly the shape
    :class:`repro.core.incomplete.IncompleteMVSC` consumes.
    """

    scenario: Scenario
    dataset: MultiViewDataset
    masks: list | None
    seed: int

    @property
    def views(self) -> list:
        return self.dataset.views

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels

    @property
    def n_clusters(self) -> int:
        return self.dataset.n_clusters

    def effective_views(self) -> list:
        """Views as a complete-data method must consume them.

        Complete scenarios return the rendered views unchanged.  For
        incomplete scenarios, each view's unobserved rows are replaced by
        the mean of its observed rows — the standard mean-imputation
        baseline — so methods without mask support see genuinely degraded
        (not secretly intact) data.  Mask-aware methods should use
        ``views`` + ``masks`` directly.
        """
        if self.masks is None:
            return list(self.views)
        out = []
        for x, mask in zip(self.views, self.masks):
            filled = x.copy()
            filled[~mask] = x[mask].mean(axis=0)
            out.append(filled)
        return out

    def content_hash(self) -> str:
        """blake2b over views, labels, and masks — the golden-pin target."""
        h = hashlib.blake2b(digest_size=16)
        for x in self.views:
            x = np.ascontiguousarray(x)
            h.update(f"{x.shape}:{x.dtype.str}".encode())
            h.update(x.tobytes())
        labels = np.ascontiguousarray(self.labels)
        h.update(f"{labels.shape}:{labels.dtype.str}".encode())
        h.update(labels.tobytes())
        if self.masks is not None:
            for mask in self.masks:
                mask = np.ascontiguousarray(mask)
                h.update(f"{mask.shape}:{mask.dtype.str}".encode())
                h.update(mask.tobytes())
        return h.hexdigest()

    def summary(self) -> str:
        """One-line description (scenario name, size, active knobs)."""
        missing = (
            ""
            if self.masks is None
            else ", missing="
            + "/".join(str(int((~m).sum())) for m in self.masks)
        )
        return (
            f"{self.scenario.name}: n={self.dataset.n_samples}, "
            f"views={self.dataset.n_views}, "
            f"clusters={self.dataset.n_clusters} "
            f"[{self.scenario.knob_summary()}]{missing}"
        )


def _apply_feature_dropout(x: np.ndarray, fraction: float, rng) -> np.ndarray:
    """Zero a Bernoulli(``fraction``) subset of the entries."""
    if fraction <= 0:
        return x
    keep = rng.random(size=x.shape) >= fraction
    return np.where(keep, x, 0.0)


def _apply_shuffle(x: np.ndarray, fraction: float, rng) -> np.ndarray:
    """Permute ``fraction`` of the rows among themselves (misalignment)."""
    n = x.shape[0]
    count = int(np.round(fraction * n))
    if count < 2:
        return x
    rows = rng.choice(n, size=count, replace=False)
    out = x.copy()
    out[rows] = x[rng.permutation(rows)]
    return out


def _draw_masks(scenario: Scenario, rng_per_view) -> list | None:
    """Per-view observation masks honouring ``missing_rates``.

    Every sample is guaranteed observed in at least one view: a sample
    unlucky enough to be dropped everywhere is deterministically
    re-observed in view ``i mod n_views`` (``i`` its index).  The repair
    only ever *re-observes* samples, so realized per-view missing counts
    never exceed the request (they fall short by the number of repaired
    samples routed to that view).
    """
    if all(rate <= 0 for rate in scenario.missing_rates):
        return None
    n, n_views = scenario.n_samples, scenario.n_views
    masks = []
    for v, rate in enumerate(scenario.missing_rates):
        mask = np.ones(n, dtype=bool)
        n_missing = int(np.round(rate * n))
        n_missing = min(n_missing, n - 2)  # keep >= 2 observed per view
        if n_missing > 0:
            mask[rng_per_view[v].choice(n, size=n_missing, replace=False)] = (
                False
            )
        masks.append(mask)
    coverage = np.zeros(n, dtype=int)
    for mask in masks:
        coverage += mask
    for i in np.flatnonzero(coverage == 0):
        masks[int(i) % n_views][i] = True
    return masks


def generate(
    scenario,
    *,
    n_samples: int | None = None,
    random_state: int | None = None,
) -> ScenarioData:
    """Materialize a scenario into a :class:`ScenarioData`.

    Parameters
    ----------
    scenario : Scenario or str
        A spec, or the name of a registered one (:func:`get_scenario`).
    n_samples : int, optional
        Resize the scenario before generation (quick variants).
    random_state : int, optional
        Seed override; defaults to ``scenario.seed``.  Generation is a
        pure function of ``(scenario, seed)`` — identical inputs give
        bit-identical outputs — and every knob draws from its own
        :class:`~numpy.random.SeedSequence` child, so zero-rate knobs
        leave everything else's stream untouched.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if not isinstance(scenario, Scenario):
        raise ValidationError(
            f"scenario must be a Scenario or a registered name, "
            f"got {type(scenario).__name__}"
        )
    if n_samples is not None:
        scenario = scenario.with_size(n_samples)
    seed = int(scenario.seed if random_state is None else random_state)

    n_views = scenario.n_views
    # Fixed stream layout: [latent] + per-view [render, dropout, shuffle,
    # missing].  Appending future knobs at the end preserves old hashes.
    children = np.random.SeedSequence(seed).spawn(1 + 4 * n_views)
    latent_rng = np.random.default_rng(children[0])
    render_rngs = [
        np.random.default_rng(children[1 + 4 * v]) for v in range(n_views)
    ]
    dropout_rngs = [
        np.random.default_rng(children[2 + 4 * v]) for v in range(n_views)
    ]
    shuffle_rngs = [
        np.random.default_rng(children[3 + 4 * v]) for v in range(n_views)
    ]
    missing_rngs = [
        np.random.default_rng(children[4 + 4 * v]) for v in range(n_views)
    ]

    z, labels, centers = make_latent_clusters(
        scenario.n_samples,
        scenario.n_clusters,
        latent_dim=scenario.latent_dim,
        separation=scenario.separation,
        within_scatter=scenario.within_scatter,
        cluster_sizes=scenario.cluster_sizes(),
        manifold=scenario.manifold,
        random_state=latent_rng,
    )

    schedule = scenario.confusion_schedule()
    views = []
    for v in range(n_views):
        x = view_from_latent(
            z,
            scenario.view_dims[v],
            kind=scenario.view_kinds[v],
            noise=scenario.view_noise[v],
            labels=labels,
            centers=centers,
            confused_pairs=schedule[v],
            distractor_fraction=scenario.view_distractors[v],
            outlier_fraction=scenario.view_outliers[v],
            random_state=render_rngs[v],
        )
        x = _apply_feature_dropout(
            x, scenario.feature_dropout[v], dropout_rngs[v]
        )
        x = _apply_shuffle(x, scenario.shuffle_fractions[v], shuffle_rngs[v])
        views.append(x)

    masks = _draw_masks(scenario, missing_rngs)
    dataset = MultiViewDataset(
        name=f"scenario:{scenario.name}",
        views=views,
        labels=labels,
        view_names=[
            f"{scenario.view_kinds[v]}_{scenario.view_dims[v]}d"
            for v in range(n_views)
        ],
        description=scenario.description
        or f"scenario factory output ({scenario.knob_summary()})",
    )
    return ScenarioData(
        scenario=scenario, dataset=dataset, masks=masks, seed=seed
    )


# ---------------------------------------------------------------------------
# Streaming: deterministic batch schedules with controlled drift
# ---------------------------------------------------------------------------

#: Salts the streaming SeedSequence so batch streams never collide with
#: the static :func:`generate` child layout for the same scenario seed.
_STREAM_SALT = 0x5EA7


@dataclass(frozen=True)
class StreamDrift:
    """Controlled mid-stream distribution shift for :func:`stream_batches`.

    From batch ``at_batch`` onward (0-indexed), every cluster center
    moves by a fixed random unit direction scaled to ``mean_shift``
    (drawn once from the drift-dedicated seed child, so the shift is
    identical across batches), and — when ``imbalance`` is set — the
    per-batch cluster-size profile switches to that imbalance ratio.
    """

    at_batch: int
    mean_shift: float = 0.0
    imbalance: float | None = None

    def __post_init__(self) -> None:
        if int(self.at_batch) < 1:
            raise ValidationError(
                f"drift.at_batch must be >= 1 (batch 0 sets the "
                f"pre-drift regime), got {self.at_batch}"
            )
        object.__setattr__(self, "at_batch", int(self.at_batch))
        if self.mean_shift < 0:
            raise ValidationError(
                f"drift.mean_shift must be non-negative, got {self.mean_shift}"
            )
        if self.imbalance is not None and self.imbalance < 1.0:
            raise ValidationError(
                f"drift.imbalance must be >= 1, got {self.imbalance}"
            )


@dataclass
class StreamBatch:
    """One batch of a scenario stream: views, labels, drift flag."""

    index: int
    views: list
    labels: np.ndarray
    drifted: bool

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[0])


def stream_batches(
    scenario,
    n_batches: int,
    *,
    drift: StreamDrift | None = None,
    random_state: int | None = None,
) -> list:
    """Deterministic batch schedule over a frozen scenario spec.

    Each batch carries ``scenario.n_samples`` fresh samples from the
    scenario's latent cluster structure.  The cluster centers and each
    view's rendering projection are drawn **once** (from their own seed
    children) and shared by every batch, so batches are draws from one
    fixed distribution — until ``drift`` kicks in, after which centers
    (and optionally the imbalance profile) shift as specified.

    Stream isolation mirrors :func:`generate`: centers, the drift
    direction, each view's rendering, each view's dropout, and each
    batch's latent draw all come from their own
    :class:`~numpy.random.SeedSequence` child.  Disabling drift (or
    changing ``at_batch``) therefore leaves the pre-drift batches
    bit-identical for the ``dense`` and ``binary`` view kinds, whose
    per-row rendering is row-local; the ``text`` kind couples rows
    through its idf reweighting, so its pre-drift batches agree in
    structure but not bit-for-bit.

    Scenarios with shuffle corruption, missing rates, or a latent
    manifold are rejected: those knobs are defined over one static
    sample set and have no meaningful per-batch analogue yet.

    Parameters
    ----------
    scenario : Scenario or str
        Spec or registered name; ``scenario.n_samples`` is the batch
        size.
    n_batches : int
        Number of batches to generate.
    drift : StreamDrift, optional
        Mid-stream shift; ``drift.at_batch`` must be < ``n_batches``.
    random_state : int, optional
        Seed override; defaults to ``scenario.seed``.  The stream is a
        pure function of ``(scenario, n_batches, drift, seed)``.

    Returns
    -------
    list of StreamBatch
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if not isinstance(scenario, Scenario):
        raise ValidationError(
            f"scenario must be a Scenario or a registered name, "
            f"got {type(scenario).__name__}"
        )
    if int(n_batches) < 1:
        raise ValidationError(f"n_batches must be >= 1, got {n_batches}")
    n_batches = int(n_batches)
    if drift is not None and not isinstance(drift, StreamDrift):
        raise ValidationError(
            f"drift must be a StreamDrift, got {type(drift).__name__}"
        )
    if drift is not None and drift.at_batch >= n_batches:
        raise ValidationError(
            f"drift.at_batch={drift.at_batch} must be < n_batches="
            f"{n_batches} (the shift must land inside the stream)"
        )
    unstreamable = []
    if any(r > 0 for r in scenario.shuffle_fractions):
        unstreamable.append("shuffle_fractions")
    if any(r > 0 for r in scenario.missing_rates):
        unstreamable.append("missing_rates")
    if scenario.manifold > 0:
        unstreamable.append("manifold")
    if unstreamable:
        raise ValidationError(
            f"scenario {scenario.name!r} is not streamable: {unstreamable} "
            f"have no per-batch analogue (they are defined over one "
            f"static sample set)"
        )
    seed = int(scenario.seed if random_state is None else random_state)

    n = scenario.n_samples
    c = scenario.n_clusters
    n_views = scenario.n_views
    latent_dim = scenario.latent_dim
    # Fixed stream layout: [centers, drift] + per-view [render, dropout]
    # + per-batch [latent].  Appending future knobs preserves old streams.
    children = np.random.SeedSequence([seed, _STREAM_SALT]).spawn(
        2 + 2 * n_views + n_batches
    )
    centers_rng = np.random.default_rng(children[0])
    render_rngs = [
        np.random.default_rng(children[2 + 2 * v]) for v in range(n_views)
    ]
    dropout_rngs = [
        np.random.default_rng(children[3 + 2 * v]) for v in range(n_views)
    ]
    batch_rngs = [
        np.random.default_rng(children[2 + 2 * n_views + b])
        for b in range(n_batches)
    ]

    # Shared cluster geometry, drawn exactly as make_latent_clusters does.
    centers = centers_rng.normal(size=(c, latent_dim))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = centers / np.where(norms > 0, norms, 1.0) * scenario.separation
    offsets = np.zeros((c, latent_dim))
    if drift is not None and drift.mean_shift > 0:
        drift_rng = np.random.default_rng(children[1])
        raw = drift_rng.normal(size=(c, latent_dim))
        raw_norms = np.linalg.norm(raw, axis=1, keepdims=True)
        offsets = raw / np.where(raw_norms > 0, raw_norms, 1.0)
        offsets = offsets * drift.mean_shift

    sizes_before = scenario.cluster_sizes()
    sizes_after = sizes_before
    if drift is not None and drift.imbalance is not None:
        sizes_after = dataclasses.replace(
            scenario, imbalance_ratio=float(drift.imbalance)
        ).cluster_sizes()

    schedule = scenario.confusion_schedule()
    all_labels = []
    latents = [[] for _ in range(n_views)]  # per view, per batch
    drifted_flags = []
    for b in range(n_batches):
        drifted = drift is not None and b >= drift.at_batch
        drifted_flags.append(drifted)
        rng_b = batch_rngs[b]
        sizes = sizes_after if drifted else sizes_before
        labels_b = np.repeat(np.arange(c), sizes)
        rng_b.shuffle(labels_b)
        eff_centers = centers + offsets if drifted else centers
        z_b = eff_centers[labels_b] + rng_b.normal(
            scale=scenario.within_scatter, size=(n, latent_dim)
        )
        all_labels.append(labels_b.astype(np.int64))
        for v in range(n_views):
            z_v = (
                _confuse_clusters(z_b, labels_b, eff_centers, schedule[v])
                if schedule[v]
                else z_b
            )
            latents[v].append(z_v)

    # Render each view once over the whole stream, so the projection (and
    # distractor/outlier machinery) is shared across batches; per-row
    # draws keep pre-drift rows bit-identical for row-local kinds.
    view_streams = []
    for v in range(n_views):
        x = view_from_latent(
            np.vstack(latents[v]),
            scenario.view_dims[v],
            kind=scenario.view_kinds[v],
            noise=scenario.view_noise[v],
            distractor_fraction=scenario.view_distractors[v],
            outlier_fraction=scenario.view_outliers[v],
            random_state=render_rngs[v],
        )
        x = _apply_feature_dropout(
            x, scenario.feature_dropout[v], dropout_rngs[v]
        )
        view_streams.append(x)

    batches = []
    for b in range(n_batches):
        lo, hi = b * n, (b + 1) * n
        batches.append(
            StreamBatch(
                index=b,
                views=[x[lo:hi] for x in view_streams],
                labels=all_labels[b],
                drifted=drifted_flags[b],
            )
        )
    return batches


# ---------------------------------------------------------------------------
# Built-in scenario registry
# ---------------------------------------------------------------------------


def _builtin_scenarios() -> dict:
    specs = [
        Scenario(
            name="clean",
            description="well-separated complete views; the sanity anchor",
            separation=5.0,
            view_noise=(0.2, 0.3, 0.25),
            confused_pairs=((), (), ()),
        ),
        Scenario(
            name="confused_pairs",
            description=(
                "each view collapses a different cluster pair; only "
                "fusion can recover the full partition"
            ),
        ),
        Scenario(
            name="redundant_views",
            description=(
                "two redundant copies of the first view's blind spot; "
                "extra views average noise but add no information"
            ),
            view_roles=("complementary", "redundant", "redundant"),
        ),
        Scenario(
            name="imbalanced",
            description="geometric cluster-size profile, largest/smallest 6x",
            imbalance_ratio=6.0,
        ),
        Scenario(
            name="noisy_view",
            description=(
                "one view rendered at 4x noise with 60% distractor "
                "dimensions; reweighting should discount it"
            ),
            view_noise=(0.2, 0.3, 1.2),
            view_distractors=(0.0, 0.0, 0.6),
        ),
        Scenario(
            name="outliers",
            description="10% of samples corrupted per view (view-specific)",
            view_outliers=(0.1, 0.1, 0.1),
        ),
        Scenario(
            name="feature_dropout",
            description="40% of feature entries zeroed in every view",
            feature_dropout=(0.4, 0.4, 0.4),
        ),
        Scenario(
            name="shuffled_view",
            description=(
                "35% of the last view's rows permuted — broken cross-"
                "view alignment (record-linking errors)"
            ),
            shuffle_fractions=(0.0, 0.0, 0.35),
        ),
        Scenario(
            name="missing_views",
            description=(
                "30/20/30% of samples unobserved per view (masks in the "
                "incomplete-clustering shape)"
            ),
            missing_rates=(0.3, 0.2, 0.3),
        ),
        Scenario(
            name="heterogeneous",
            description="dense + tf-idf-like text + binary view mix",
            view_dims=(20, 60, 24),
            view_kinds=("dense", "text", "binary"),
            view_noise=(0.3, 0.3, 0.4),
        ),
    ]
    return {spec.name: spec for spec in specs}


#: Registered scenarios, in declaration order (the default matrix grid).
SCENARIOS: dict = _builtin_scenarios()


def available_scenarios() -> list:
    """Names of the registered scenarios, in declaration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    if name not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    return SCENARIOS[name]
