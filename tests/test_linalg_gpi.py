"""Tests for repro.linalg.gpi (generalized power iteration)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg.gpi import gpi_stiefel
from repro.linalg.procrustes import nearest_orthogonal


def _start(b):
    """An orthonormal start: the polar factor of ``b``, or identity columns."""
    return nearest_orthogonal(b) if np.any(b) else np.eye(*b.shape)


def _random_symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


class TestGPIStiefel:
    def test_result_orthonormal(self):
        a = _random_symmetric(12)
        b = np.random.default_rng(1).normal(size=(12, 3))
        res = gpi_stiefel(a, b, _start(b))
        np.testing.assert_allclose(res.f.T @ res.f, np.eye(3), atol=1e-9)

    def test_objective_monotone(self):
        a = _random_symmetric(15, seed=2)
        b = np.random.default_rng(3).normal(size=(15, 4))
        res = gpi_stiefel(a, b, _start(b), max_iter=60)
        h = res.history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_zero_linear_term_matches_eigenvectors(self):
        # With B = 0 the minimizer spans the bottom eigenspace; the
        # objective equals the sum of the k smallest eigenvalues.
        a = _random_symmetric(10, seed=4)
        b = np.zeros((10, 3))
        res = gpi_stiefel(a, b, _start(b), max_iter=3000, tol=1e-14)
        target = np.linalg.eigvalsh(a)[:3].sum()
        assert res.objective == pytest.approx(target, abs=1e-4)

    def test_beats_random_feasible_points(self):
        a = _random_symmetric(12, seed=5)
        rng = np.random.default_rng(6)
        b = rng.normal(size=(12, 3))
        res = gpi_stiefel(a, b, _start(b), max_iter=200)

        def obj(f):
            return np.trace(f.T @ a @ f) - 2 * np.trace(f.T @ b)

        for seed in range(10):
            q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(12, 3)))
            assert res.objective <= obj(q) + 1e-8

    def test_warm_start_respected(self):
        a = _random_symmetric(8, seed=7)
        b = np.random.default_rng(8).normal(size=(8, 2))
        q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(8, 2)))
        res = gpi_stiefel(a, b, f0=q, max_iter=1)
        assert res.n_iter == 1

    def test_shape_validation(self):
        a = _random_symmetric(5)
        with pytest.raises(ValidationError, match="disagree"):
            gpi_stiefel(a, np.zeros((6, 2)), np.eye(6, 2))
        with pytest.raises(ValidationError, match="exceeds"):
            gpi_stiefel(a, np.zeros((5, 9)), np.eye(5, 9))
        with pytest.raises(ValidationError, match="f0"):
            gpi_stiefel(a, np.zeros((5, 2)), f0=np.zeros((5, 3)))

    def test_converged_flag(self):
        a = _random_symmetric(6, seed=10)
        b = np.random.default_rng(11).normal(size=(6, 2))
        res = gpi_stiefel(a, b, _start(b), max_iter=500, tol=1e-10)
        assert res.converged
        res_short = gpi_stiefel(a, b, _start(b), max_iter=1, tol=1e-16)
        assert not res_short.converged


class TestGPIIndefiniteOperator:
    def test_monotone_with_projector_subtraction(self):
        # The production operator A = L - beta * UU^T is indefinite; the
        # Gershgorin shift must still make GPI monotone.
        rng = np.random.default_rng(12)
        n, c = 25, 3
        w = np.abs(rng.normal(size=(n, n)))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        from repro.graph.laplacian import laplacian

        lap = laplacian(w)
        u, _ = np.linalg.qr(rng.normal(size=(n, c)))
        a = lap - 2.0 * (u @ u.T)
        assert np.linalg.eigvalsh(a)[0] < 0  # genuinely indefinite
        b = rng.normal(size=(n, c))
        res = gpi_stiefel(a, b, _start(b), max_iter=80)
        h = res.history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))
        np.testing.assert_allclose(res.f.T @ res.f, np.eye(c), atol=1e-9)
