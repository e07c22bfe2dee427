"""Tests for the scenario factory (:mod:`repro.datasets.scenarios`).

Three layers, mirroring the module's contracts:

* **Spec layer** — :class:`Scenario` validation, normalization, the
  confusion schedule, deterministic imbalance apportionment, and the
  JSON-ready ``to_dict`` bench reports embed;
* **Property layer** — hypothesis tests over every knob: shape
  agreement, mask consistency and coverage, imbalance ratio within
  tolerance, dropout/shuffle effect sizes, and determinism (same seed
  ⇒ bit-identical, different seed ⇒ different content);
* **Golden layer** — blake2b content hashes of two small scenarios
  pinned against the exact bytes the factory produced when these tests
  were written (the :mod:`tests.test_backends` idiom).  A hash change
  means generation is no longer bit-reproducible — a breaking change
  for every downstream regression artifact, not a refactor detail.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.scenarios import (
    MAX_MISSING_RATE,
    SCENARIOS,
    Scenario,
    available_scenarios,
    generate,
    get_scenario,
)
from repro.exceptions import ValidationError

scenario_settings = settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tiny(**overrides) -> Scenario:
    """A fast three-view scenario for knob-focused tests."""
    base = dict(
        name="tiny",
        n_samples=60,
        n_clusters=4,
        view_dims=(6, 8, 5),
        latent_dim=6,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------


class TestScenarioSpec:
    def test_scalar_knobs_broadcast_per_view(self):
        s = _tiny(feature_dropout=0.2, missing_rates=0.1, view_noise=0.5)
        assert s.feature_dropout == (0.2, 0.2, 0.2)
        assert s.missing_rates == (0.1, 0.1, 0.1)
        assert s.view_noise == (0.5, 0.5, 0.5)

    def test_wrong_length_knob_rejected(self):
        with pytest.raises(ValidationError, match="one entry per view"):
            _tiny(feature_dropout=(0.1, 0.2))

    def test_fraction_range_enforced(self):
        with pytest.raises(ValidationError, match="feature_dropout"):
            _tiny(feature_dropout=0.99)
        with pytest.raises(ValidationError, match="missing_rates"):
            _tiny(missing_rates=MAX_MISSING_RATE + 0.05)
        with pytest.raises(ValidationError, match="non-negative"):
            _tiny(view_noise=-0.1)

    def test_unknown_view_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown view kinds"):
            _tiny(view_kinds=("dense", "sparse", "dense"))

    def test_unknown_view_role_rejected(self):
        with pytest.raises(ValidationError, match="unknown view roles"):
            _tiny(view_roles=("complementary", "noisy", "redundant"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError, match="name"):
            _tiny(name="")

    def test_imbalance_below_one_rejected(self):
        with pytest.raises(ValidationError, match="imbalance_ratio"):
            _tiny(imbalance_ratio=0.5)

    def test_invalid_confused_pair_rejected(self):
        with pytest.raises(ValidationError, match="invalid pair"):
            _tiny(confused_pairs=(((0, 9),), (), ()))
        with pytest.raises(ValidationError, match="invalid pair"):
            _tiny(confused_pairs=(((1, 1),), (), ()))

    def test_confusion_schedule_complementary_vs_redundant(self):
        comp = _tiny()
        assert comp.confusion_schedule() == [[(0, 1)], [(2, 3)], [(0, 1)]]
        mixed = _tiny(view_roles=("complementary", "redundant", "redundant"))
        assert mixed.confusion_schedule() == [[(0, 1)], [(0, 1)], [(0, 1)]]

    def test_confusion_schedule_explicit_wins(self):
        s = _tiny(confused_pairs=((), ((1, 2),), ()))
        assert s.confusion_schedule() == [[], [(1, 2)], []]

    def test_confusion_disabled_below_four_clusters(self):
        s = _tiny(n_clusters=3)
        assert s.confusion_schedule() == [[], [], []]

    def test_cluster_sizes_balanced_and_ratio(self):
        assert _tiny().cluster_sizes().tolist() == [15, 15, 15, 15]
        sizes = _tiny(n_samples=240, imbalance_ratio=6.0).cluster_sizes()
        assert sizes.sum() == 240
        assert sizes.max() / sizes.min() == pytest.approx(6.0, rel=0.15)

    def test_cluster_sizes_unachievable_profile_raises(self):
        s = _tiny(n_samples=30, n_clusters=4, imbalance_ratio=200.0)
        with pytest.raises(ValidationError, match="leaves cluster"):
            s.cluster_sizes()

    def test_with_size_resizes_only_n_samples(self):
        s = _tiny(missing_rates=0.2)
        small = s.with_size(24)
        assert small.n_samples == 24
        assert small.missing_rates == s.missing_rates
        assert small.name == s.name

    def test_to_dict_is_json_ready_and_complete(self):
        fields = [f.name for f in dataclasses.fields(Scenario)]
        for name in ("clean", "missing_views", "heterogeneous"):
            payload = get_scenario(name).to_dict()
            assert list(payload) == fields
            assert json.loads(json.dumps(payload)) == payload

    def test_registry_lookup(self):
        names = available_scenarios()
        assert "confused_pairs" in names and "missing_views" in names
        assert get_scenario("clean") is SCENARIOS["clean"]
        with pytest.raises(ValidationError, match="unknown scenario"):
            get_scenario("nope")

    def test_knob_summary_distinguishes_clean_from_confused(self):
        clean = get_scenario("clean").knob_summary()
        confused = get_scenario("confused_pairs").knob_summary()
        assert clean != confused
        assert "confusion" in confused


# ---------------------------------------------------------------------------
# Generation basics
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_every_registered_scenario_generates(self):
        for name in available_scenarios():
            data = generate(name, n_samples=40)
            assert data.dataset.n_samples == 40
            assert data.dataset.name == f"scenario:{name}"
            for x, dim in zip(data.views, data.scenario.view_dims):
                assert x.shape == (40, dim)
                assert np.all(np.isfinite(x))
            assert data.summary().startswith(name)

    def test_generate_rejects_non_scenarios(self):
        with pytest.raises(ValidationError, match="Scenario"):
            generate(42)

    def test_effective_views_identity_when_complete(self):
        data = generate("clean", n_samples=40)
        assert data.masks is None
        for eff, raw in zip(data.effective_views(), data.views):
            assert eff is raw or np.array_equal(eff, raw)

    def test_effective_views_mean_impute_unobserved(self):
        data = generate("missing_views", n_samples=60)
        assert data.masks is not None
        for eff, raw, mask in zip(
            data.effective_views(), data.views, data.masks
        ):
            assert np.array_equal(eff[mask], raw[mask])
            expected = raw[mask].mean(axis=0)
            for row in eff[~mask]:
                np.testing.assert_allclose(row, expected)

    def test_disabled_knob_leaves_content_identical(self):
        """Stream isolation: rate-0 knobs consume no randomness."""
        base = generate(_tiny())
        zeroed = generate(
            _tiny(feature_dropout=0.0, shuffle_fractions=0.0)
        )
        assert base.content_hash() == zeroed.content_hash()

    def test_enabling_dropout_touches_only_that_view(self):
        base = generate(_tiny())
        dropped = generate(_tiny(feature_dropout=(0.0, 0.0, 0.3)))
        assert np.array_equal(base.views[0], dropped.views[0])
        assert np.array_equal(base.views[1], dropped.views[1])
        assert not np.array_equal(base.views[2], dropped.views[2])
        assert np.array_equal(base.labels, dropped.labels)

    def test_masks_leave_view_content_untouched(self):
        base = generate(_tiny())
        masked = generate(_tiny(missing_rates=(0.3, 0.2, 0.3)))
        for b, m in zip(base.views, masked.views):
            assert np.array_equal(b, m)
        assert masked.masks is not None


# ---------------------------------------------------------------------------
# Property layer (hypothesis)
# ---------------------------------------------------------------------------


class TestKnobProperties:
    @scenario_settings
    @given(
        n=st.integers(40, 120),
        c=st.integers(2, 5),
        d1=st.integers(3, 10),
        d2=st.integers(3, 10),
        seed=st.integers(0, 10_000),
    )
    def test_shapes_and_labels_agree(self, n, c, d1, d2, seed):
        data = generate(
            Scenario(
                name="p",
                n_samples=n,
                n_clusters=c,
                view_dims=(d1, d2),
                latent_dim=4,
                seed=seed,
            )
        )
        assert [x.shape for x in data.views] == [(n, d1), (n, d2)]
        assert data.labels.shape == (n,)
        assert set(np.unique(data.labels)) == set(range(c))

    @scenario_settings
    @given(
        rate=st.floats(0.05, MAX_MISSING_RATE),
        n=st.integers(40, 120),
        seed=st.integers(0, 10_000),
    )
    def test_mask_rates_and_coverage(self, rate, n, seed):
        data = generate(_tiny(n_samples=n, missing_rates=rate, seed=seed))
        assert data.masks is not None
        requested = min(round(rate * n), n - 2)
        coverage = np.zeros(n, dtype=int)
        for mask in data.masks:
            assert mask.shape == (n,) and mask.dtype == bool
            # Coverage repair only ever *re-observes* samples, so the
            # realized missing count never exceeds the request.
            assert 0 <= (~mask).sum() <= requested
            assert mask.sum() >= 2
            coverage += mask
        assert coverage.min() >= 1  # every sample observed somewhere
        # Repairs are rare at low rates: with at most one view affected
        # there is nothing to repair, so the request is realized exactly.
        solo = generate(
            _tiny(n_samples=n, missing_rates=(rate, 0.0, 0.0), seed=seed)
        )
        assert (~solo.masks[0]).sum() == requested

    @scenario_settings
    @given(
        ratio=st.floats(1.0, 8.0),
        c=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    def test_imbalance_ratio_within_tolerance(self, ratio, c, seed):
        s = Scenario(
            name="p",
            n_samples=80 * c,
            n_clusters=c,
            view_dims=(5, 5),
            latent_dim=4,
            imbalance_ratio=ratio,
            seed=seed,
        )
        sizes = s.cluster_sizes()
        assert sizes.sum() == s.n_samples
        assert sizes.min() >= 1
        # Apportionment shifts each quota by < 1 sample.
        assert sizes.max() / sizes.min() == pytest.approx(ratio, rel=0.1)
        counts = np.bincount(generate(s).labels, minlength=c)
        assert np.array_equal(np.sort(counts), np.sort(sizes))

    @scenario_settings
    @given(
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
    )
    def test_dropout_fraction_realized(self, fraction, seed):
        data = generate(
            _tiny(
                view_dims=(40, 8, 5), feature_dropout=(fraction, 0, 0),
                seed=seed,
            )
        )
        zeros = np.mean(data.views[0] == 0.0)
        assert zeros == pytest.approx(fraction, abs=0.08)

    @scenario_settings
    @given(
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
    )
    def test_shuffle_preserves_row_multiset(self, fraction, seed):
        base = generate(_tiny(seed=seed))
        shuffled = generate(
            _tiny(shuffle_fractions=(fraction, 0, 0), seed=seed)
        )
        a = np.sort(base.views[0].round(9), axis=0)
        b = np.sort(shuffled.views[0].round(9), axis=0)
        np.testing.assert_array_equal(a, b)  # same rows, different order
        moved = np.any(base.views[0] != shuffled.views[0], axis=1).sum()
        assert moved <= round(fraction * base.dataset.n_samples)

    @scenario_settings
    @given(
        name=st.sampled_from(sorted(SCENARIOS)),
        seed=st.integers(0, 10_000),
    )
    def test_same_seed_bit_identical_different_seed_not(self, name, seed):
        first = generate(name, n_samples=48, random_state=seed)
        second = generate(name, n_samples=48, random_state=seed)
        assert first.content_hash() == second.content_hash()
        other = generate(name, n_samples=48, random_state=seed + 1)
        assert other.content_hash() != first.content_hash()


# ---------------------------------------------------------------------------
# Golden layer
# ---------------------------------------------------------------------------

#: blake2b(views + labels + masks) of two registered scenarios at n=80,
#: captured at introduction.  These pin bit-reproducibility: any change
#: to the RNG stream layout, the latent generator, the view renderers,
#: or the knob order shows up here first.
GOLDEN_HASHES = {
    "clean": "9c117408af0dcec68c0eaf1ea99ada45",
    "missing_views": "119b4266de9f000e67e10453256b5527",
}


class TestGoldenHashes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_content_hash_pinned(self, name):
        data = generate(name, n_samples=80)
        assert data.content_hash() == GOLDEN_HASHES[name], (
            f"scenario {name!r} is no longer bit-reproducible; if the "
            "generation change is intentional, re-pin GOLDEN_HASHES and "
            "re-measure benchmarks/baseline.json"
        )
