"""The canonical method registry: every row either harness can run.

Each entry is a :class:`MethodSpec` naming one method and knowing how to
construct its estimator.  :data:`TABLE_METHODS` names the rows of the
paper's Tables II-IV; the registry adds the library's scaling variants
(``AnchorMVSC``, ``SparseMVSC``) and the mask-aware ``IncompleteMVSC``.
The two oracle rows (``SC_best``, ``SC_worst``) follow the literature's
convention of reporting the best / worst single view selected *post hoc*
against the ground truth; the runner handles that selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines import (
    AMGL,
    AWP,
    ConcatKMeans,
    ConcatSC,
    CoRegSC,
    CoTrainSC,
    KernelAdditionSC,
    MLAN,
    MultiViewKMeans,
    SwMC,
)
from repro.core import AnchorMVSC, IncompleteMVSC, SparseMVSC, TwoStageMVSC, UnifiedMVSC


@dataclass(frozen=True)
class MethodSpec:
    """One comparison row.

    Attributes
    ----------
    name : str
        Row label used in tables.
    builder : callable
        ``builder(n_clusters, random_state)`` returning an object with
        ``fit_predict(views) -> labels``.
    oracle : str or None
        ``"best"`` / ``"worst"`` for the post-hoc single-view rows (the
        runner evaluates every view and selects); ``None`` otherwise.
    uses_dataset : bool
        When True the builder is called as
        ``builder(n_clusters, random_state, dataset_name)`` so the method
        can apply its per-dataset tuned configuration (the literature's
        protocol for the proposed method).
    mask_aware : bool
        When True the estimator is called as ``fit_predict(views, masks)``
        with one boolean observation mask per view.
    """

    name: str
    builder: Callable
    oracle: str | None = None
    uses_dataset: bool = False
    mask_aware: bool = False


#: The rows of Tables II-IV, in the paper's order (the runner's default).
TABLE_METHODS = (
    "SC_best", "SC_worst", "ConcatKMeans", "ConcatSC", "KernelAddSC",
    "CoRegSC", "CoTrainSC", "AMGL", "MLAN", "MVKM", "AWP", "SwMC",
    "TwoStageMVSC", "UMSC",
)


class _UMSCAdapter:
    """Expose :class:`UnifiedMVSC` through the plain ``fit_predict`` shape.

    Uses the per-dataset tuned configuration from
    :mod:`repro.core.tuning` when the dataset name is known.
    """

    def __init__(self, n_clusters: int, random_state, dataset_name=None) -> None:
        from repro.core.tuning import recommended_umsc

        self.model = recommended_umsc(
            n_clusters, dataset_name=dataset_name, random_state=random_state
        )

    def fit_predict(self, views):
        return self.model.fit(views).labels


def default_method_registry() -> dict:
    """Name -> :class:`MethodSpec` for every runnable row."""
    specs = [
        MethodSpec("SC_best", None, oracle="best"),
        MethodSpec("SC_worst", None, oracle="worst"),
        MethodSpec(
            "ConcatKMeans",
            lambda c, rs: ConcatKMeans(c, random_state=rs),
        ),
        MethodSpec("ConcatSC", lambda c, rs: ConcatSC(c, random_state=rs)),
        MethodSpec(
            "KernelAddSC",
            lambda c, rs: KernelAdditionSC(c, random_state=rs),
        ),
        MethodSpec("CoRegSC", lambda c, rs: CoRegSC(c, random_state=rs)),
        MethodSpec("CoTrainSC", lambda c, rs: CoTrainSC(c, random_state=rs)),
        MethodSpec("AMGL", lambda c, rs: AMGL(c, random_state=rs)),
        MethodSpec("MLAN", lambda c, rs: MLAN(c, random_state=rs)),
        MethodSpec(
            "MVKM", lambda c, rs: MultiViewKMeans(c, random_state=rs)
        ),
        MethodSpec("AWP", lambda c, rs: AWP(c, random_state=rs)),
        MethodSpec("SwMC", lambda c, rs: SwMC(c, random_state=rs)),
        MethodSpec(
            "TwoStageMVSC",
            lambda c, rs: TwoStageMVSC(c, random_state=rs),
        ),
        MethodSpec(
            "UMSC",
            lambda c, rs, ds_name=None: _UMSCAdapter(c, rs, ds_name),
            uses_dataset=True,
        ),
        MethodSpec("AnchorMVSC", lambda c, rs: AnchorMVSC(c, random_state=rs)),
        MethodSpec("SparseMVSC", lambda c, rs: SparseMVSC(c, random_state=rs)),
        MethodSpec(
            "IncompleteMVSC",
            lambda c, rs: IncompleteMVSC(c, random_state=rs),
            mask_aware=True,
        ),
    ]
    return {spec.name: spec for spec in specs}
