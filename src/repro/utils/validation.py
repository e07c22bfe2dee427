"""Input validation helpers shared across the library.

These functions convert inputs to float64 ndarrays, check shapes and
finiteness, and raise :class:`~repro.exceptions.ValidationError` with a
message naming the offending argument, so failures surface at API boundaries
instead of deep inside linear algebra.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def check_matrix(
    x,
    name: str = "X",
    *,
    allow_nonfinite: bool = False,
    dtype=np.float64,
) -> np.ndarray:
    """Validate and convert a 2-D numeric array of at least one row and column.

    Parameters
    ----------
    x : array-like
        Input to validate.
    name : str
        Argument name used in error messages.
    allow_nonfinite : bool
        If False (default), NaN/Inf entries raise.
    dtype : numpy dtype or None
        Target dtype.  The default (``np.float64``) keeps the historical
        behavior of always coercing.  ``None`` passes float32 and
        float64 inputs through unchanged (no copy, no silent memory
        doubling — what reduced-precision backends request); every other
        input dtype still coerces to float64.

    Returns
    -------
    numpy.ndarray
        A C-contiguous copy-if-needed view of ``x`` in the resolved
        dtype.
    """
    if dtype is None:
        arr = np.asarray(x)
        if arr.dtype not in (np.float32, np.float64):
            arr = np.asarray(arr, dtype=np.float64)
    else:
        arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ValidationError(f"{name} must be at least 1x1, got {rows}x{cols}")
    if not allow_nonfinite and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def check_square(x, name: str = "A") -> np.ndarray:
    """Validate a square 2-D float64 matrix (see :func:`check_matrix`)."""
    arr = check_matrix(x, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{name} must be square, got shape {arr.shape[0]}x{arr.shape[1]}"
        )
    return arr


#: Largest absolute elementwise asymmetry :func:`check_symmetric` repairs.
SYMMETRY_TOL = 1e-8


def check_symmetric(x, name: str = "A") -> np.ndarray:
    """Validate a symmetric matrix and return its symmetrized copy.

    Asymmetry up to :data:`SYMMETRY_TOL` (absolute, elementwise) is
    silently repaired by averaging with the transpose; larger asymmetry
    raises.
    """
    arr = check_square(x, name)
    gap = np.max(np.abs(arr - arr.T)) if arr.size else 0.0
    if gap > SYMMETRY_TOL:
        raise ValidationError(
            f"{name} must be symmetric "
            f"(max |A - A.T| = {gap:.3g} > tol={SYMMETRY_TOL:.3g})"
        )
    return (arr + arr.T) / 2.0


def check_labels(y, name: str = "labels", *, n: int | None = None) -> np.ndarray:
    """Validate an integer label vector.

    Parameters
    ----------
    y : array-like
        1-D array of integer labels (any integer values; not required to be
        contiguous or zero-based).
    name : str
        Argument name used in error messages.
    n : int, optional
        Required length.

    Returns
    -------
    numpy.ndarray of int64
    """
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if n is not None and arr.size != n:
        raise ValidationError(f"{name} must have length {n}, got {arr.size}")
    if not np.issubdtype(arr.dtype, np.integer):
        as_float = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(as_float)) or np.any(as_float != np.round(as_float)):
            raise ValidationError(f"{name} must contain integers")
        arr = as_float
    return arr.astype(np.int64)


def check_views(views, name: str = "views") -> list[np.ndarray]:
    """Validate a multi-view feature collection of at least one view.

    Parameters
    ----------
    views : sequence of array-like
        One ``(n, d_v)`` feature matrix per view; all must share ``n``.
    name : str
        Argument name used in error messages.

    Returns
    -------
    list of numpy.ndarray
        Validated float64 matrices.
    """
    if isinstance(views, np.ndarray) and views.ndim == 2:
        views = [views]
    try:
        seq = list(views)
    except TypeError as exc:
        raise ValidationError(f"{name} must be a sequence of 2-D arrays") from exc
    if not seq:
        raise ValidationError(f"{name} must contain at least 1 view(s), got 0")
    mats = [check_matrix(v, f"{name}[{i}]") for i, v in enumerate(seq)]
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != n:
            raise ValidationError(
                f"all views must have the same number of rows; "
                f"{name}[0] has {n} but {name}[{i}] has {m.shape[0]}"
            )
    return mats
