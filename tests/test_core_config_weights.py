"""Tests for repro.core.config and repro.core.weights."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnchorMVSC, SparseMVSC, TwoStageMVSC, UnifiedMVSC
from repro.core.config import UMSCConfig
from repro.core.weights import update_view_weights, weight_exponents
from repro.exceptions import ValidationError


class TestUMSCConfig:
    def test_defaults_valid(self):
        cfg = UMSCConfig(n_clusters=3)
        assert cfg.lam == 1.0
        assert cfg.weighting == "exponential"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clusters": 0},
            {"n_clusters": 3, "lam": -1.0},
            {"n_clusters": 3, "gamma": 1.0},
            {"n_clusters": 3, "weighting": "magic"},
            {"n_clusters": 3, "graph": "bogus"},
            {"n_clusters": 3, "n_neighbors": 0},
            {"n_clusters": 3, "max_iter": 0},
            {"n_clusters": 3, "tol": 0.0},
            {"n_clusters": 3, "gpi_max_iter": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            UMSCConfig(**kwargs)

    def test_gamma_default_matches_the_solvers(self):
        from repro.core.tuning import UMSCParams

        gamma = UMSCConfig(n_clusters=3).gamma
        for owner in (UnifiedMVSC, TwoStageMVSC, SparseMVSC, AnchorMVSC, UMSCParams):
            assert inspect.signature(owner).parameters["gamma"].default == gamma

    def test_gamma_only_checked_for_exponential(self):
        cfg = UMSCConfig(n_clusters=2, weighting="uniform", gamma=0.5)
        assert cfg.gamma == 0.5

    def test_frozen(self):
        cfg = UMSCConfig(n_clusters=2)
        with pytest.raises(AttributeError):
            cfg.lam = 5.0


#: Each solver's neighbour-count parameter.
NEIGHBORS = {
    UnifiedMVSC: "n_neighbors",
    SparseMVSC: "n_neighbors",
    AnchorMVSC: "n_anchor_neighbors",
}


class TestSharedSolverChecks:
    """All three alternating solvers reject bad shared hyperparameters
    in the constructor, before any graph is built."""

    @pytest.mark.parametrize("cls", list(NEIGHBORS), ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_neighbors": 0}, "must be >= 1"),
            ({"n_restarts": 0}, "n_restarts must be >= 1"),
            ({"max_iter": 0}, "max_iter must be >= 1"),
            ({"gamma": 1.0}, "gamma must be > 1"),
            ({"weighting": "magic"}, "weighting must be one of"),
        ],
    )
    def test_rejected_eagerly(self, cls, kwargs, match):
        if "n_neighbors" in kwargs:
            kwargs = {NEIGHBORS[cls]: kwargs["n_neighbors"]}
        with pytest.raises(ValidationError, match=match):
            cls(3, **kwargs)

    @pytest.mark.parametrize("cls", list(NEIGHBORS), ids=lambda c: c.__name__)
    def test_rejects_zero_clusters(self, cls):
        with pytest.raises(ValidationError, match="n_clusters must be >= 1"):
            cls(0)

    @pytest.mark.parametrize("cls", list(NEIGHBORS), ids=lambda c: c.__name__)
    def test_gamma_free_outside_exponential_weighting(self, cls):
        cls(3, weighting="parameter_free", gamma=1.0)


class TestUpdateViewWeights:
    def test_uniform(self):
        w = update_view_weights(np.array([1.0, 5.0, 9.0]), mode="uniform")
        np.testing.assert_allclose(w, 1 / 3)

    def test_exponential_prefers_cheap_views(self):
        w = update_view_weights(
            np.array([1.0, 4.0]), mode="exponential", gamma=2.0
        )
        assert w[0] > w[1]
        # gamma=2 -> w_v proportional to 1/h_v.
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-10)

    def test_exponential_sums_to_one(self):
        w = update_view_weights(
            np.array([0.3, 1.7, 0.9, 2.2]), mode="exponential", gamma=3.0
        )
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_large_gamma_approaches_uniform(self):
        h = np.array([1.0, 3.0, 7.0])
        w = update_view_weights(h, mode="exponential", gamma=100.0)
        np.testing.assert_allclose(w, 1 / 3, atol=0.02)

    def test_parameter_free_formula(self):
        h = np.array([4.0, 16.0])
        w = update_view_weights(h, mode="parameter_free")
        np.testing.assert_allclose(w, [1 / 4, 1 / 8])

    def test_zero_cost_view_handled(self):
        w = update_view_weights(
            np.array([0.0, 1.0]), mode="exponential", gamma=2.0
        )
        assert np.isfinite(w).all()
        assert w[0] > w[1]

    def test_validation(self):
        with pytest.raises(ValidationError):
            update_view_weights(np.array([]), mode="uniform")
        with pytest.raises(ValidationError):
            update_view_weights(np.array([-1.0]), mode="uniform")
        with pytest.raises(ValidationError):
            update_view_weights(np.array([1.0]), mode="exponential", gamma=0.5)
        with pytest.raises(ValidationError):
            update_view_weights(np.array([1.0]), mode="nope")

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
        st.floats(1.1, 10.0),
    )
    def test_property_exponential_optimality(self, h, gamma):
        # The closed form must minimize sum w^gamma h over the simplex:
        # compare against random simplex points.
        h = np.array(h)
        w = update_view_weights(h, mode="exponential", gamma=gamma)
        value = np.dot(w**gamma, h)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.dirichlet(np.ones(h.size))
            assert value <= np.dot(p**gamma, h) + 1e-6 * abs(value)


class TestWeightExponents:
    def test_exponential_raises_to_gamma(self):
        w = np.array([0.5, 0.5])
        np.testing.assert_allclose(
            weight_exponents(w, mode="exponential", gamma=3.0), [0.125, 0.125]
        )

    def test_other_modes_identity(self):
        w = np.array([0.2, 0.8])
        np.testing.assert_allclose(weight_exponents(w, mode="uniform"), w)
        np.testing.assert_allclose(weight_exponents(w, mode="parameter_free"), w)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            weight_exponents(np.array([1.0]), mode="bad")
