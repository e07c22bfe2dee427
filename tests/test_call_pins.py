"""Call-count pins for the discrete rotation loop on the traced path.

Each case fits one solver on a fixed input under a live trace and counts
the calls that reach the public entry points of the rotation machinery,
plus the Y-step's own ``y_step.moves`` / ``y_step.sweeps`` counters and
the warm Gram solves' operator column-products, ``anchor.gram.products``.
The counts fix the trajectory (a changed restart count, sweep cap or
tolerance moves them) and the per-layer attribution of any tool that
wraps those functions by identity: an optimisation must make the calls
cheaper, not fewer or more.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import repro.core.discrete as discrete
import repro.linalg.gpi as gpi
import repro.linalg.procrustes as procrustes
from repro import AnchorMVSC, SparseMVSC, UnifiedMVSC
from repro.datasets.scenarios import generate, get_scenario, stream_batches
from repro.exceptions import ConvergenceWarning
from repro.observability import Trace, use_trace

COUNTED = (
    (procrustes, "nearest_orthogonal"),
    (discrete, "indicator_coordinate_descent"),
    (discrete, "rotation_initialize"),
    (gpi, "gpi_stiefel"),
)


def _count_calls(monkeypatch) -> Counter:
    """Wrap every ``repro`` binding of each counted function, by identity."""
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in COUNTED:
        original = getattr(owner, attr)
        wrapper = counting(attr, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


def _heterogeneous_views():
    return generate("heterogeneous", n_samples=150, random_state=7).views


def _umsc():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        UnifiedMVSC(4, random_state=0).fit(_heterogeneous_views())


def _sparse():
    SparseMVSC(4, random_state=0).fit_predict(_heterogeneous_views())


def _anchor_stream():
    """A cold fit on 1200 rows (the restart-subsample path), then fold-ins."""
    scenario = get_scenario("clean").with_size(20)
    batches = stream_batches(scenario, 62, random_state=3)
    views = [np.vstack([b.views[v] for b in batches]) for v in range(3)]
    model = AnchorMVSC(4, random_state=0)
    model.partial_fit([x[:1200] for x in views])
    for start in range(1200, 1240, 20):
        model.partial_fit([x[start:start + 20] for x in views])


CASES = {"umsc": _umsc, "sparse": _sparse, "anchor_stream": _anchor_stream}

#: Exact counts: making these calls cheaper must leave every one as is.
PINS = {
    "anchor_stream": {
        "nearest_orthogonal": 45,
        "indicator_coordinate_descent": 40,
        "rotation_initialize": 1,
        "gpi_stiefel": 0,
        "y_step.moves": 404,
        "y_step.sweeps": 64,
        "anchor.gram.products": 1572,
    },
    "sparse": {
        "nearest_orthogonal": 80,
        "indicator_coordinate_descent": 75,
        "rotation_initialize": 1,
        "gpi_stiefel": 0,
        "y_step.moves": 704,
        "y_step.sweeps": 184,
        "anchor.gram.products": 0,
    },
    "umsc": {
        "nearest_orthogonal": 429,
        "indicator_coordinate_descent": 157,
        "rotation_initialize": 3,
        "gpi_stiefel": 50,
        "y_step.moves": 981,
        "y_step.sweeps": 296,
        "anchor.gram.products": 0,
    },
}


def _counts(case, monkeypatch) -> dict:
    calls = _count_calls(monkeypatch)
    with use_trace(Trace("call-pins")) as trace:
        CASES[case]()
    counters = trace.metrics.counters
    return {
        **{attr: calls[attr] for _, attr in COUNTED},
        "y_step.moves": int(counters["y_step.moves"].value),
        "y_step.sweeps": int(counters["y_step.sweeps"].value),
        "anchor.gram.products": int(
            counters["anchor.gram.products"].value
            if "anchor.gram.products" in counters
            else 0
        ),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_rotation_loop_call_counts_pinned(case, monkeypatch):
    assert _counts(case, monkeypatch) == PINS[case]
