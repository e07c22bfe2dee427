"""Deterministic, context-scoped fault injection for numerical kernels.

Every numerical kernel that participates in the failure policy registers a
named *fault site* when its module is imported (:func:`register_fault_site`),
and routes its result through :func:`maybe_inject`.  Those modules are
listed in :data:`SITE_OWNERS` and imported before the registry is read,
so the catalogue is complete in a fresh process.  Tests arm a :class:`FaultPlan`
with :func:`inject_faults`; each armed :class:`FaultSpec` selects a site,
a corruption mode, and *which invocations* trigger — so a test can kill
exactly the third ARPACK solve of a fit, deterministically, with no
monkeypatching.

Design rules:

* **No plan armed → no behavior.**  ``maybe_inject`` costs one context
  lookup and returns its argument unchanged, mirroring
  :func:`repro.observability.trace.span` and
  :func:`repro.pipeline.cache.current_cache`.
* **Deterministic.**  Triggering is keyed purely by (site name, invocation
  count); no randomness anywhere.
* **Observable.**  Every trigger increments the ``fault.injected`` counter
  on the active trace and is appended to ``plan.triggered``.

Examples
--------
>>> import numpy as np
>>> from repro.robust.faults import FaultSpec, inject_faults, maybe_inject
>>> from repro.robust.faults import register_fault_site
>>> _ = register_fault_site("demo.kernel", "docstring example site")
>>> maybe_inject("demo.kernel", np.ones(2))  # disarmed: pass-through
array([1., 1.])
>>> with inject_faults(FaultSpec("demo.kernel", mode="nan")) as plan:
...     out = maybe_inject("demo.kernel", np.ones(2))
>>> bool(np.isnan(out).any())
True
>>> [(t.site, t.mode) for t in plan.triggered]
[('demo.kernel', 'nan')]
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.context import _CONTEXT, scoped
from repro.exceptions import ValidationError
from repro.observability.trace import metric_inc

#: Corruption modes the harness understands.
FAULT_MODES = ("raise", "nan", "inf", "delay")


class InjectedFault(ArithmeticError):
    """Synthetic numerical failure raised by an armed ``raise`` fault.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: it mimics
    the raw numpy/scipy failures the policy layer must catch and wrap, so
    an injected fault that escapes unwrapped fails the same tests a real
    one would.
    """

    def __init__(self, site: str, invocation: int) -> None:
        super().__init__(
            f"injected fault at site {site!r} (invocation {invocation})"
        )
        self.site = site
        self.invocation = invocation


@dataclass(frozen=True)
class FaultSite:
    """One registered injection point.

    Attributes
    ----------
    name : str
        Stable dotted identifier (``"eigen.lanczos"``, ``"gpi.solve"``).
    description : str
        What the site guards, shown by ``repro faults list``.
    modes : tuple of str
        Subset of :data:`FAULT_MODES` that is meaningful here (sites
        whose value is not a float array cannot be NaN-corrupted).
    """

    name: str
    description: str
    modes: tuple = FAULT_MODES


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, how, and on which invocations.

    Attributes
    ----------
    site : str
        Registered site name.
    mode : {"raise", "nan", "inf", "delay"}
        ``raise`` raises :class:`InjectedFault`; ``nan``/``inf`` corrupt
        the first element of every float array in the site's value;
        ``delay`` sleeps ``delay`` seconds then passes through.
    first : int
        0-based invocation index at which the fault starts triggering.
    times : int or None
        How many invocations trigger from ``first`` on; ``None`` means
        every subsequent invocation (a *persistent* fault, which also
        defeats retries).
    delay : float
        Sleep seconds for the ``delay`` mode.
    """

    site: str
    mode: str = "raise"
    first: int = 0
    times: int | None = 1
    delay: float = 0.0


@dataclass(frozen=True)
class TriggeredFault:
    """Record of one fault actually fired (``plan.triggered`` entries)."""

    site: str
    mode: str
    invocation: int


_REGISTRY: dict[str, FaultSite] = {}

#: Every module that calls :func:`register_fault_site` at import.  The
#: package ``__init__``s load nothing eagerly, so these are imported
#: before the registry answers or a :class:`FaultPlan` validates.
SITE_OWNERS = (
    "repro.linalg.eigen",
    "repro.linalg.gpi",
    "repro.linalg.procrustes",
    "repro.core.discrete",
    "repro.core.alternation",
    "repro.core.graph_builder",
    "repro.core.model",
    "repro.core.anchor_model",
    "repro.cluster.kmeans",
    "repro.serving.artifact",
    "repro.serving.predictor",
    "repro.evaluation.runner",
)


def _load_sites() -> None:
    """Import every :data:`SITE_OWNERS` module, registering its sites."""
    for module in SITE_OWNERS:
        importlib.import_module(module)


def register_fault_site(
    name: str, description: str, *, modes: tuple = FAULT_MODES
) -> str:
    """Register (idempotently) a named fault site; returns ``name``.

    Called at import time by every module that owns a numerical kernel.
    A module that calls it belongs in :data:`SITE_OWNERS`, which
    :func:`registered_fault_sites` and :class:`FaultPlan` import first,
    so the catalogue printed by ``repro faults list`` is complete in any
    process.
    """
    bad = [m for m in modes if m not in FAULT_MODES]
    if bad:
        raise ValidationError(f"unknown fault modes {bad}; choose from {FAULT_MODES}")
    _REGISTRY[name] = FaultSite(name=name, description=description, modes=tuple(modes))
    return name


def registered_fault_sites() -> dict[str, FaultSite]:
    """Snapshot of the site registry, keyed by name (registration order)."""
    _load_sites()
    return dict(_REGISTRY)


class FaultPlan:
    """An armed set of :class:`FaultSpec` with per-site invocation counters.

    The plan follows work into ``parallel_map`` workers, and its
    counters are guarded by a lock, so a fault armed for ``times``
    invocations fires exactly ``times`` times under any job count
    (which task draws which invocation is up to the scheduler).
    """

    def __init__(self, specs) -> None:
        _load_sites()
        self.specs: list[FaultSpec] = []
        for spec in specs:
            if isinstance(spec, str):
                spec = FaultSpec(spec)
            if spec.site not in _REGISTRY:
                raise ValidationError(
                    f"unknown fault site {spec.site!r}; registered sites: "
                    f"{sorted(_REGISTRY)}"
                )
            allowed = _REGISTRY[spec.site].modes
            if spec.mode not in allowed:
                raise ValidationError(
                    f"site {spec.site!r} supports modes {allowed}, got {spec.mode!r}"
                )
            self.specs.append(spec)
        self.invocations: dict[str, int] = {}
        self.triggered: list[TriggeredFault] = []
        self._lock = threading.Lock()

    def _match(self, site: str, invocation: int) -> FaultSpec | None:
        for spec in self.specs:
            if spec.site != site or invocation < spec.first:
                continue
            if spec.times is None or invocation < spec.first + spec.times:
                return spec
        return None

    def apply(self, site: str, value):
        """Consult the plan at one site invocation; fire a matching fault.

        Increments the site's invocation counter, then either returns
        ``value`` untouched (no match), raises :class:`InjectedFault`,
        sleeps, or returns a NaN/Inf-corrupted copy of ``value``.
        """
        with self._lock:
            invocation = self.invocations.get(site, 0)
            self.invocations[site] = invocation + 1
            spec = self._match(site, invocation)
            if spec is not None:
                self.triggered.append(TriggeredFault(site, spec.mode, invocation))
        if spec is None:
            return value
        metric_inc("fault.injected")
        metric_inc(f"fault.injected.{site}")
        if spec.mode == "raise":
            raise InjectedFault(site, invocation)
        if spec.mode == "delay":
            time.sleep(spec.delay)
            return value
        fill = np.nan if spec.mode == "nan" else np.inf
        return _corrupt(value, fill)


def _corrupt(value, fill: float):
    """Copy ``value`` with the first element of every float array poisoned."""
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating) and value.size:
            out = value.copy()
            out.flat[0] = fill
            return out
        return value
    if isinstance(value, tuple):
        return tuple(_corrupt(v, fill) for v in value)
    if isinstance(value, list):
        return [_corrupt(v, fill) for v in value]
    return value


def current_faults() -> FaultPlan | None:
    """The fault plan armed in this context, or ``None`` (the default)."""
    return _CONTEXT.get().faults


def maybe_inject(site: str, value=None):
    """Fault-injection hook placed at every registered site.

    With no armed plan this returns ``value`` unchanged after a single
    context lookup.  With a plan armed, the matching
    :class:`FaultSpec` (if any) fires: raising, delaying, or corrupting.
    """
    plan = _CONTEXT.get().faults
    if plan is None:
        return value
    return plan.apply(site, value)


def inject_faults(*specs) -> scoped:
    """Context manager arming a :class:`FaultPlan` for the enclosed block.

    Accepts :class:`FaultSpec` instances or bare site names (armed as a
    one-shot ``raise`` on the first invocation).  Yields the plan, whose
    ``triggered`` list records every fault that actually fired.

    Examples
    --------
    >>> from repro.robust.faults import current_faults, inject_faults
    >>> with inject_faults() as plan:
    ...     current_faults() is plan
    True
    >>> current_faults() is None
    True
    """
    return scoped(faults=FaultPlan(specs))
