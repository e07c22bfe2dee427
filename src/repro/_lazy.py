"""Lazy package exports: each package names its exports once, in a table.

A package ``__init__`` maps every exported name to the submodule that
defines it, relative to the package::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "UnifiedMVSC": "model",
        "SparseMVSC": "sparse_model",
    })

``__all__`` is the table's keys in order.  A name is imported on its
first attribute access (PEP 562) and then bound on the package, so the
next access is an ordinary attribute lookup.  Importing a submodule
therefore loads that submodule's own imports only, not its siblings.

A name equal to its defining submodule's name (``repro.graph.laplacian``
is a function in the module ``repro.graph.laplacian``) is bound at
import: the import system sets the submodule as the package attribute
when the submodule first loads, and the eager binding comes after that.
An unlisted name falls back to the submodule of that name, so
``repro.core.model`` still resolves after a bare ``import repro``.
"""

from __future__ import annotations

import sys


def _load(module: str):
    """Import ``module`` the way an ``import`` statement does.

    ``importlib.import_module`` bypasses the interpreter's own import
    path, and with it ``python -X importtime``, which then omits every
    module a lazy export loads.
    """
    __import__(module)
    return sys.modules[module]


def lazy_exports(package: str, table: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for the package ``package``."""
    namespace = sys.modules[package]

    def __getattr__(name: str):
        source = table.get(name)
        if source is None:
            missing = AttributeError(f"module {package!r} has no attribute {name!r}")
            if name.startswith("__"):
                raise missing
            try:
                return _load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise missing from None
        value = getattr(_load(f"{package}.{source}"), name)
        setattr(namespace, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(namespace)) | set(table))

    for name, source in table.items():
        if name == source:
            setattr(namespace, name, __getattr__(name))
    return list(table), __getattr__, __dir__
