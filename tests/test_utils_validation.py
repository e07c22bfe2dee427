"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_labels,
    check_matrix,
    check_square,
    check_symmetric,
    check_views,
)


class TestCheckMatrix:
    def test_converts_to_float64(self):
        out = check_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_matrix([1.0, 2.0])

    def test_rejects_3d(self):
        with pytest.raises(ValidationError):
            check_matrix(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            check_matrix([[np.nan, 0.0]])

    def test_allows_nonfinite_when_asked(self):
        out = check_matrix([[np.inf, 0.0]], allow_nonfinite=True)
        assert np.isinf(out[0, 0])

    def test_min_dims_enforced(self):
        with pytest.raises(ValidationError, match="at least 1x1"):
            check_matrix(np.zeros((0, 3)))
        with pytest.raises(ValidationError, match="at least 1x1"):
            check_matrix(np.zeros((3, 0)))

    def test_name_in_error(self):
        with pytest.raises(ValidationError, match="myarg"):
            check_matrix([1.0], name="myarg")

    def test_default_coerces_float32_to_float64(self):
        out = check_matrix(np.ones((2, 2), dtype=np.float32))
        assert out.dtype == np.float64

    def test_dtype_none_preserves_float32(self):
        x32 = np.ones((2, 2), dtype=np.float32)
        out = check_matrix(x32, dtype=None)
        assert out.dtype == np.float32

    def test_dtype_none_preserves_float64_without_copy(self):
        x64 = np.ones((3, 2))
        out = check_matrix(x64, dtype=None)
        assert out.dtype == np.float64
        assert out is x64 or np.shares_memory(out, x64)

    def test_dtype_none_still_coerces_integers(self):
        out = check_matrix([[1, 2], [3, 4]], dtype=None)
        assert out.dtype == np.float64

    def test_dtype_none_still_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            check_matrix(
                np.array([[np.nan, 0.0]], dtype=np.float32), dtype=None
            )


class TestCheckSquare:
    def test_accepts_square(self):
        assert check_square(np.eye(3)).shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError, match="square"):
            check_square(np.zeros((2, 3)))


class TestCheckSymmetric:
    def test_repairs_tiny_asymmetry(self):
        a = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        out = check_symmetric(a)
        np.testing.assert_allclose(out, out.T)

    def test_rejects_large_asymmetry(self):
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            check_symmetric(a)


class TestCheckLabels:
    def test_int_array_passthrough(self):
        out = check_labels([0, 1, 2, 1])
        assert out.dtype == np.int64

    def test_float_integers_accepted(self):
        out = check_labels(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_fractional_floats_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            check_labels([0.5, 1.0])

    def test_length_check(self):
        with pytest.raises(ValidationError, match="length 4"):
            check_labels([0, 1], n=4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_labels([])

    def test_2d_rejected(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_labels([[0, 1]])


class TestCheckViews:
    def test_list_of_matrices(self):
        out = check_views([np.zeros((4, 2)), np.zeros((4, 3))])
        assert len(out) == 2

    def test_single_matrix_wrapped(self):
        out = check_views(np.zeros((4, 2)))
        assert len(out) == 1

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="same number of rows"):
            check_views([np.zeros((4, 2)), np.zeros((5, 2))])

    def test_min_views(self):
        with pytest.raises(ValidationError, match="at least 1"):
            check_views([])

    def test_non_sequence_rejected(self):
        with pytest.raises(ValidationError):
            check_views(42)
