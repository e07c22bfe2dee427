"""Tests for repro.linalg.procrustes."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.linalg.procrustes as procrustes
from repro.exceptions import NumericalError, RecoveryExhaustedError
from repro.linalg.procrustes import nearest_orthogonal, orthogonal_procrustes
from repro.robust import FaultSpec, collect_recoveries, inject_faults
from repro.robust.policy import DEFAULT_POLICY


def _random_orthogonal(c, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(c, c)))
    return q


class TestNearestOrthogonal:
    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 3))
        q = nearest_orthogonal(m)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_orthogonal_input_fixed_point(self):
        q = _random_orthogonal(4)
        np.testing.assert_allclose(nearest_orthogonal(q), q, atol=1e-10)

    def test_maximizes_trace(self):
        # tr(Q^T M) at the polar factor equals the nuclear norm of M, an
        # upper bound for any orthonormal Q.
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 4))
        q = nearest_orthogonal(m)
        nuclear = np.linalg.svd(m, compute_uv=False).sum()
        assert np.trace(q.T @ m) == pytest.approx(nuclear, abs=1e-8)
        other = nearest_orthogonal(rng.normal(size=(6, 4)))
        assert np.trace(other.T @ m) <= nuclear + 1e-8

    def test_wide_matrix_rejected(self):
        with pytest.raises(NumericalError, match="p >= q"):
            nearest_orthogonal(np.zeros((2, 5)))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 1000))
    def test_property_orthonormal_columns(self, q_dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(q_dim + 3, q_dim))
        out = nearest_orthogonal(m)
        assert np.max(np.abs(out.T @ out - np.eye(q_dim))) < 1e-8


def _scipy_polar(m: np.ndarray) -> np.ndarray:
    u, _, vt = scipy.linalg.svd(m, full_matrices=False)
    return u @ vt


#: c x c rotations, 150 x c and 2300 x c embeddings, and a wide c.
POLAR_SHAPES = [(4, 4), (9, 9), (150, 4), (2300, 4), (300, 8)]


class TestPolarFactorBits:
    """The cached LAPACK call reproduces ``scipy.linalg.svd`` bit for bit."""

    @pytest.mark.parametrize("shape", POLAR_SHAPES)
    def test_matches_scipy_svd(self, shape):
        m = np.random.default_rng(sum(shape)).normal(size=shape)
        expected = _scipy_polar(m)
        for _ in range(2):  # cold and cached workspace
            assert nearest_orthogonal(m).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", POLAR_SHAPES)
    def test_perturbed_retry_matches_scipy_svd(self, shape):
        m = 3.0 * np.random.default_rng(7).normal(size=shape)
        scale = max(1.0, float(np.max(np.abs(m))))
        shift = DEFAULT_POLICY.retry_scale(1) * scale
        expected = _scipy_polar(m + shift * np.eye(*shape))
        with inject_faults(FaultSpec("procrustes.svd", mode="raise", times=1)):
            with collect_recoveries() as events:
                got = nearest_orthogonal(m)
        assert got.tobytes() == expected.tobytes()
        assert [(e.strategy, e.attempt) for e in events] == [("retry", 2)]

    def test_threads_racing_to_fill_the_cache(self):
        # More threads than cores, a short switch interval and an empty
        # cache: every thread must still get scipy's bits.
        mats = [
            np.random.default_rng(i).normal(size=POLAR_SHAPES[i % 5])
            for i in range(40)
        ]
        expected = [_scipy_polar(m).tobytes() for m in mats]
        interval = sys.getswitchinterval()
        procrustes._gesdd.cache_clear()
        try:
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(nearest_orthogonal, m) for m in mats]
                got = [f.result(timeout=60).tobytes() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    @pytest.mark.parametrize("shape", POLAR_SHAPES)
    def test_workspace_is_scipys(self, shape):
        gesdd, lwork = procrustes._gesdd(np.dtype(np.float64), shape)
        gesdd_lwork = scipy.linalg.get_lapack_funcs(
            "gesdd_lwork", (np.empty(shape),), ilp64="preferred"
        )
        expected = scipy.linalg.lapack._compute_lwork(
            gesdd_lwork, *shape, compute_uv=True, full_matrices=False
        )
        assert lwork == expected
        assert gesdd.typecode == "d"


def _failing_gesdd(failure: str, failures: int | None):
    """A ``_gesdd`` stand-in whose routine fails its first ``failures`` calls.

    ``failure`` is ``"info"`` (LAPACK reports ``info > 0``) or ``"raise"``
    (the routine raises ``LinAlgError``); ``failures=None`` fails every
    call.
    """
    real = procrustes._gesdd
    calls = []

    def gesdd_for(dtype, shape):
        gesdd, lwork = real(dtype, shape)

        def flaky(a, **kwargs):
            calls.append(a)
            u, s, vt, info = gesdd(a, **kwargs)
            if failures is None or len(calls) <= failures:
                if failure == "raise":
                    raise np.linalg.LinAlgError("SVD did not converge")
                info = 3
            return u, s, vt, info

        return flaky, lwork

    return gesdd_for


class TestNonConvergence:
    """LAPACK's ``info > 0`` recovers exactly as a raised ``LinAlgError``."""

    def _run(self, monkeypatch, failure, failures, m):
        monkeypatch.setattr(
            procrustes, "_gesdd", _failing_gesdd(failure, failures)
        )
        with collect_recoveries() as events:
            try:
                out = nearest_orthogonal(m)
            except RecoveryExhaustedError as exc:
                out = exc
        monkeypatch.undo()
        return out, [
            (e.site, e.strategy, e.attempt, e.error, e.detail, e.succeeded)
            for e in events
        ]

    @pytest.mark.parametrize("failures", [1, None])
    def test_info_matches_raised_error(self, monkeypatch, failures):
        m = np.random.default_rng(11).normal(size=(150, 4))
        by_info, info_events = self._run(monkeypatch, "info", failures, m)
        by_raise, raise_events = self._run(monkeypatch, "raise", failures, m)
        assert info_events == raise_events
        assert by_info.tobytes() == by_raise.tobytes()
        if failures is None:
            # Both retries fail: the sign-corrected QR fallback answers.
            assert by_info.tobytes() == procrustes._qr_polar(m).tobytes()
            assert [e[1:3] for e in info_events] == [("fallback", 3)]
            assert info_events[0][3] == "SVD did not converge"
        else:
            assert [e[1:3] for e in info_events] == [("retry", 2)]


class TestOrthogonalProcrustes:
    def test_recovers_rotation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 4))
        r_true = _random_orthogonal(4, seed=3)
        b = a @ r_true
        r = orthogonal_procrustes(a, b)
        np.testing.assert_allclose(r, r_true, atol=1e-8)

    def test_result_is_orthogonal(self):
        rng = np.random.default_rng(4)
        r = orthogonal_procrustes(rng.normal(size=(10, 3)), rng.normal(size=(10, 3)))
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NumericalError, match="same shape"):
            orthogonal_procrustes(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_optimality_against_random_rotations(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(15, 3))
        b = rng.normal(size=(15, 3))
        r = orthogonal_procrustes(a, b)
        best = np.linalg.norm(a @ r - b)
        for seed in range(20):
            other = _random_orthogonal(3, seed=seed)
            assert best <= np.linalg.norm(a @ other - b) + 1e-8
