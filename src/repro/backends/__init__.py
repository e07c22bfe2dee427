"""Pluggable compute backends for the library's hot kernels.

The graph and serving layers dispatch their inner numerics (pairwise
distances, kNN selection, affinity exponentials, the anchor-graph
weights, the kernel vote) through one :class:`ArrayBackend` instance,
and the eigensolvers and GPI cast their operands with its
:meth:`~ArrayBackend.prepare`, so callers pick the numerical contract
without touching call sites:

>>> from repro.backends import use_backend
>>> from repro.graph.affinity import build_view_affinity
>>> import numpy as np
>>> x = np.random.default_rng(0).normal(size=(30, 4))
>>> with use_backend("float32"):
...     w = build_view_affinity(x, k=5)
>>> w.dtype
dtype('float32')

Shipped backends
----------------
Both are instances of the one :class:`ArrayBackend` class, built in the
registry below with their own dtypes and tolerance.

``numpy``
    The default: float64 numpy/scipy, bit-identical to the pre-backend
    code (every existing bit-identity test passes unchanged).
``float32``
    Single precision on the ``n x n`` paths — ~2x memory headroom and a
    large bandwidth win, within a documented tolerance.

Selection precedence (first match wins)
---------------------------------------
1. an enclosing :class:`use_backend` block (a field of the run
   context, like ``use_trace`` / ``use_cache`` / ``use_policy``; it
   follows work into ``parallel_map`` workers and the serving worker).
   The CLI ``--backend`` flag installs one;
2. the ``REPRO_BACKEND`` environment variable;
3. the ``numpy`` default.

Models, the predictor and the experiment harness take no backend
parameter: the run context is the one place it is chosen.

Backend identity flows into computation-cache keys (a float32 result
never satisfies a float64 lookup), trace span attributes, and the bench
machine fingerprint.  ``repro backends list`` prints the registry.
"""

from __future__ import annotations

import os

import numpy as np

from repro.backends.base import ArrayBackend
from repro.context import _CONTEXT, scoped
from repro.exceptions import ValidationError

__all__ = [
    "ArrayBackend",
    "available_backends",
    "current_backend",
    "get_backend",
    "use_backend",
]

#: Environment variable consulted when no ``use_backend`` block is active.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Singleton registry — backends are stateless, so one instance each.
_REGISTRY: dict[str, ArrayBackend] = {
    b.name: b
    for b in (
        ArrayBackend(
            name="numpy",
            compute_dtype=np.float64,
            validation_dtype=np.float64,
            tolerance=0.0,
            description=(
                "float64 numpy/scipy reference kernels (bit-exact contract)"
            ),
        ),
        # Halving the element width buys ~2x memory headroom on every
        # n x n intermediate and a matching bandwidth win where BLAS is
        # memory- or SIMD-bound.  The tolerance is 2e-3 relative, not
        # float32 eps: the expansion |x|^2 + |y|^2 - 2<x,y> cancels
        # catastrophically for near-duplicate points, and the affinity
        # exponentials divide those small distances by small local
        # scales, amplifying the rounding.  Eigenvectors of clustered
        # spectra can rotate even more, which is why equivalence is
        # asserted on clusterings (label ARI 1.0 on the seed datasets),
        # not on raw eigenvectors.
        ArrayBackend(
            name="float32",
            compute_dtype=np.float32,
            validation_dtype=None,
            tolerance=2e-3,
            description=(
                "float32 kernels: ~2x memory headroom on n*n paths, "
                "single-precision tolerance (labels ARI 1.0 on seed data)"
            ),
        ),
    )
}

_DEFAULT = _REGISTRY["numpy"]


def available_backends() -> list[str]:
    """Registered backend names, default first."""
    names = sorted(_REGISTRY)
    names.remove(_DEFAULT.name)
    return [_DEFAULT.name, *names]


def get_backend(name: str | ArrayBackend) -> ArrayBackend:
    """Resolve a backend name (or pass an instance through).

    Raises
    ------
    ValidationError
        If ``name`` is not a registered backend.
    """
    if isinstance(name, ArrayBackend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown backend: {name!r} "
            f"(available: {', '.join(available_backends())})"
        ) from None


def current_backend() -> ArrayBackend:
    """The backend active in this context.

    Resolution order: enclosing :class:`use_backend` block, then the
    ``REPRO_BACKEND`` environment variable (re-read on every call, so
    tests can monkeypatch it), then the ``numpy`` default.  An unknown
    environment value raises :class:`~repro.exceptions.ValidationError`
    rather than silently computing under the wrong contract.
    """
    active = _CONTEXT.get().backend
    if active is not None:
        return active
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return get_backend(env)
    return _DEFAULT


def use_backend(backend: str | ArrayBackend | None) -> scoped:
    """Context manager activating a compute backend for the enclosed block.

    Mirrors :class:`~repro.pipeline.cache.use_cache`.  Accepts a
    registered name or an :class:`ArrayBackend` instance; nesting works,
    and the innermost block wins (which is how explicit test pins
    override a CI-wide ``REPRO_BACKEND``).  ``None`` keeps the ambient
    backend.

    Examples
    --------
    >>> from repro.backends import current_backend, use_backend
    >>> with use_backend("float32") as b:
    ...     current_backend() is b
    True
    >>> current_backend().name
    'numpy'
    """
    return scoped(backend=None if backend is None else get_backend(backend))
