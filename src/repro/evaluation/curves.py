"""Convergence-history extraction (Figure 1 of the paper).

The unified framework's objective is tracked every outer iteration; this
module runs the model at a tight tolerance so the full descent curve is
visible, and renders it as an ASCII sparkline for terminal reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import UnifiedMVSC
from repro.datasets.container import MultiViewDataset

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class ConvergenceCurve:
    """Objective-vs-iteration record of one UMSC run."""

    dataset: str
    history: tuple
    converged: bool

    @property
    def n_iter(self) -> int:
        return len(self.history)

    def relative_drops(self) -> list:
        """Per-iteration relative decrease of the objective."""
        h = self.history
        return [
            (h[i] - h[i + 1]) / max(abs(h[i]), 1e-12)
            for i in range(len(h) - 1)
        ]


def convergence_curve(
    dataset: MultiViewDataset,
    *,
    max_iter: int = 30,
    random_state: int = 0,
) -> ConvergenceCurve:
    """Run UMSC (default ``lam``) with a tight tolerance and record the
    objective history."""
    model = UnifiedMVSC(
        dataset.n_clusters,
        max_iter=max_iter,
        tol=1e-12,
        random_state=random_state,
    )
    import warnings

    from repro.exceptions import ConvergenceWarning

    with warnings.catch_warnings():
        # A tol of 1e-12 is meant to exhaust max_iter; silence the solver's
        # non-convergence warning for this diagnostic run.
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = model.fit(dataset.views)
    return ConvergenceCurve(
        dataset=dataset.name,
        history=tuple(result.objective_history),
        converged=result.converged,
    )


def sparkline(values) -> str:
    """Render a numeric series as a unicode sparkline."""
    vals = list(values)
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[0] * len(vals)
    chars = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[idx])
    return "".join(chars)
