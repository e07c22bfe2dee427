"""Pluggable compute backends for the library's hot kernels.

The graph, linalg, and serving layers dispatch their inner numerics
(pairwise distances, kNN selection, affinity exponentials, the kernel
vote, dense eigensolvers) through one :class:`ArrayBackend` object, so
callers pick the numerical contract without touching call sites:

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
``numpy``
    The default: float64 numpy/scipy, bit-identical to the pre-backend
    code (every existing bit-identity test passes unchanged).
``float32``
    Single precision on the ``n x n`` paths — ~2x memory headroom and a
    large bandwidth win, within a documented tolerance.

Selection precedence (first match wins)
---------------------------------------
1. an enclosing :class:`use_backend` block (contextvar, like
   ``use_trace`` / ``use_cache`` / ``use_policy``);
2. the ``backend=`` parameter on models, the runner, the predictor, or
   the CLI ``--backend`` flag (all of which just wrap their work in
   :class:`use_backend`);
3. the ``REPRO_BACKEND`` environment variable;
4. the ``numpy`` default.

Backend identity flows into computation-cache keys (a float32 result
never satisfies a float64 lookup), trace span attributes, and the bench
machine fingerprint.  ``repro backends list`` prints the registry.
"""

from __future__ import annotations

import os
from contextvars import ContextVar

from repro.backends.base import ArrayBackend, NumpyBackend
from repro.backends.float32 import Float32Backend
from repro.exceptions import ValidationError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "Float32Backend",
    "available_backends",
    "current_backend",
    "get_backend",
    "use_backend",
]

#: Environment variable consulted when no ``use_backend`` block is active.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Singleton registry — backends are stateless, so one instance each.
_REGISTRY: dict[str, ArrayBackend] = {
    b.name: b for b in (NumpyBackend(), Float32Backend())
}

_DEFAULT = _REGISTRY["numpy"]

_ACTIVE: ContextVar[ArrayBackend | None] = ContextVar(
    "repro_active_backend", default=None
)


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
    active = _ACTIVE.get()
    if active is not None:
        return active
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return get_backend(env)
    return _DEFAULT


class use_backend:
    """Context manager activating a compute backend for the enclosed block.

    Mirrors :class:`~repro.pipeline.cache.use_cache`.  Accepts a
    registered name or an :class:`ArrayBackend` instance; nesting works,
    and the innermost block wins (which is how explicit test pins
    override a CI-wide ``REPRO_BACKEND``).  ``None`` keeps the ambient
    backend, which is what every ``backend=None`` parameter means.

    Examples
    --------
    >>> from repro.backends import current_backend, use_backend
    >>> with use_backend("float32") as b:
    ...     current_backend() is b
    True
    >>> current_backend().name
    'numpy'
    """

    def __init__(self, backend: str | ArrayBackend | None) -> None:
        self.backend = None if backend is None else get_backend(backend)
        self._token = None

    def __enter__(self) -> ArrayBackend | None:
        if self.backend is not None:
            self._token = _ACTIVE.set(self.backend)
        return self.backend

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False
