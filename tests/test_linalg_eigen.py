"""Tests for repro.linalg.eigen."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import repro.linalg.eigen as eigen_mod
from repro.exceptions import NumericalError, ValidationError
from repro.linalg.eigen import eigsh_largest, eigsh_smallest, sorted_eigh
from repro.observability import Trace, use_trace


def _random_symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


class TestSortedEigh:
    def test_matches_numpy(self):
        a = _random_symmetric(12)
        values, vectors = sorted_eigh(a)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a), atol=1e-10)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_ascending(self):
        values, _ = sorted_eigh(_random_symmetric(9, seed=3))
        assert np.all(np.diff(values) >= -1e-12)


class TestEigshSmallest:
    def test_values_and_residual(self):
        a = _random_symmetric(15, seed=1)
        values, vectors = eigsh_smallest(a, 4)
        full = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(values, full[:4], atol=1e-10)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_orthonormal_vectors(self):
        _, vectors = eigsh_smallest(_random_symmetric(10, seed=2), 3)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), atol=1e-10)

    def test_k_equals_n(self):
        a = _random_symmetric(6, seed=4)
        values, _ = eigsh_smallest(a, 6)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a), atol=1e-10)

    def test_invalid_k(self):
        a = _random_symmetric(5)
        with pytest.raises(ValidationError):
            eigsh_smallest(a, 0)
        with pytest.raises(ValidationError):
            eigsh_smallest(a, 6)

    def test_sparse_input(self):
        a = _random_symmetric(20, seed=5)
        sp = scipy.sparse.csr_matrix(a)
        values, _ = eigsh_smallest(sp, 3)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[:3], atol=1e-8)


def _ring_laplacian(n):
    """A ring plus random chords: sparse, connected, symmetric."""
    from repro.graph import sparse_laplacian

    rng = np.random.default_rng(3)
    ring = np.arange(n)
    rows = np.concatenate([ring, rng.integers(0, n, 4 * n)])
    cols = np.concatenate([(ring + 1) % n, rng.integers(0, n, 4 * n)])
    w = scipy.sparse.csr_array(
        (rng.uniform(0.1, 1.0, rows.size), (rows, cols)), shape=(n, n)
    )
    return sparse_laplacian(w + w.T)


class TestLanczosReproducible:
    """ARPACK starts from a fixed vector, not from OS entropy."""

    #: Above the dense cutoff, so the sparse Lanczos path runs.
    N = 5000

    @pytest.mark.parametrize("backend", ["numpy", "float32"])
    def test_two_solves_agree_bit_for_bit(self, backend):
        from repro.backends import use_backend

        assert self.N > eigen_mod._DENSE_CUTOFF
        lap = _ring_laplacian(self.N)
        with use_backend(backend):
            first = eigsh_smallest(lap, 4)
            second = eigsh_smallest(lap, 4)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    @pytest.mark.parametrize(
        "backend, operand, solved",
        [
            ("numpy", np.float64, np.float64),
            ("float32", np.float64, np.float32),
            # A float32 operand is cast up to the backend's dtype.
            ("numpy", np.float32, np.float64),
        ],
    )
    def test_operand_cast_to_the_backend_dtype(
        self, monkeypatch, backend, operand, solved
    ):
        from repro.backends import use_backend

        lap = _ring_laplacian(self.N).astype(operand)
        seen = []
        eigsh = scipy.sparse.linalg.eigsh

        def spied(a, **kwargs):
            seen.append((a.dtype, kwargs["v0"].dtype))
            return eigsh(a, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spied)
        with use_backend(backend):
            values, vectors = eigsh_smallest(lap, 4)
        assert seen == [(np.dtype(solved), np.dtype(solved))]
        assert values.dtype == vectors.dtype == np.float64


class TestEigshLargest:
    def test_values_descending(self):
        a = _random_symmetric(15, seed=6)
        values, vectors = eigsh_largest(a, 4)
        full = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(values, full[::-1][:4], atol=1e-10)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_agrees_with_negated_smallest(self):
        a = _random_symmetric(12, seed=7)
        large, _ = eigsh_largest(a, 3)
        small_of_neg, _ = eigsh_smallest(-a, 3)
        np.testing.assert_allclose(large, -small_of_neg, atol=1e-10)


class TestArpackFallback:
    """ARPACK non-convergence falls back to the dense path."""

    @pytest.fixture()
    def lanczos_always_fails(self, monkeypatch):
        # Force the sparse branch for tiny matrices, then make ARPACK
        # "fail to converge" every time.
        monkeypatch.setattr(eigen_mod, "_DENSE_CUTOFF", 0)

        def _no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: no convergence", np.array([]), np.array([])
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_convergence)

    def test_smallest_falls_back_to_dense(self, lanczos_always_fails):
        a = _random_symmetric(20, seed=8)
        sp = scipy.sparse.csr_matrix(a)
        values, vectors = eigsh_smallest(sp, 3)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[:3], atol=1e-8)
        np.testing.assert_allclose(a @ vectors, vectors * values, atol=1e-8)

    def test_largest_falls_back_to_dense(self, lanczos_always_fails):
        a = _random_symmetric(20, seed=9)
        sp = scipy.sparse.csr_matrix(a)
        values, _ = eigsh_largest(sp, 3)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(a)[::-1][:3], atol=1e-8
        )

    def test_fallback_counted(self, lanczos_always_fails):
        a = _random_symmetric(15, seed=10)
        sp = scipy.sparse.csr_matrix(a)
        trace = Trace("test")
        with use_trace(trace):
            eigsh_smallest(sp, 2)
        assert trace.metrics.counter("eigsh.arpack_fallback").value == 1.0

    def test_raises_numerical_error_when_dense_also_fails(
        self, lanczos_always_fails, monkeypatch
    ):
        def _dense_fails(*args, **kwargs):
            raise RuntimeError("LAPACK exploded")

        monkeypatch.setattr(eigen_mod, "_dense_extremal", _dense_fails)
        sp = scipy.sparse.csr_matrix(_random_symmetric(15, seed=11))
        with pytest.raises(NumericalError, match="dense fallback also failed"):
            eigsh_smallest(sp, 2)

    def test_no_fallback_counter_on_clean_run(self):
        a = _random_symmetric(12, seed=12)
        trace = Trace("test")
        with use_trace(trace):
            eigsh_smallest(a, 2)
        assert "eigsh.arpack_fallback" not in trace.metrics.counters
