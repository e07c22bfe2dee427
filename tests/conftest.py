"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synth import make_multiview_blobs


@pytest.fixture(autouse=True, scope="session")
def _pin_default_backend():
    """Keep the tier-1 suite on the numpy backend regardless of environment.

    CI runs a leg with ``REPRO_BACKEND=float32`` to prove a non-default
    backend survives the whole suite's *code paths*; the bit-identity
    assertions, however, define the numpy contract, so the ambient
    backend is pinned back to numpy here.  The pin is session-scoped so
    that it also covers the session-scoped fixtures, which are built
    before any function-scoped fixture.  Tests that exercise alternate
    backends enter :class:`repro.backends.use_backend` themselves, which
    nests deeper than this fixture and therefore wins.
    """
    import os

    from repro.backends import use_backend

    if os.environ.get("REPRO_BACKEND"):
        with use_backend("numpy"):
            yield
    else:
        yield


@pytest.fixture
def rng():
    """A deterministic generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset():
    """A small, well-separated 3-cluster multi-view dataset (fast, easy)."""
    return make_multiview_blobs(
        90,
        3,
        view_dims=(12, 18),
        view_noise=(0.1, 0.2),
        view_distractors=(0.0, 0.0),
        view_outliers=(0.0, 0.0),
        separation=6.0,
        random_state=7,
    )


@pytest.fixture(scope="session")
def medium_dataset():
    """A harder 4-cluster dataset with heterogeneous views."""
    return make_multiview_blobs(
        160,
        4,
        view_dims=(20, 30, 15),
        view_noise=(0.2, 0.4, 0.6),
        separation=4.5,
        random_state=11,
    )


@pytest.fixture(scope="session")
def affinity_pair(small_dataset):
    """Per-view affinities of the small dataset (precomputed once)."""
    from repro.core.graph_builder import build_multiview_affinities

    return build_multiview_affinities(small_dataset.views, n_neighbors=8)


# --- Degenerate datasets (shared by the robustness test suites) -----------


@pytest.fixture(scope="session")
def outlier_dataset():
    """3 clusters with a heavy outlier fraction in every view."""
    return make_multiview_blobs(
        72,
        3,
        view_dims=(10, 14),
        view_noise=(0.2, 0.3),
        view_outliers=(0.15, 0.25),
        separation=5.0,
        name="outlier_heavy",
        random_state=31,
    )


@pytest.fixture(scope="session")
def duplicated_dataset():
    """2 clusters where a quarter of the samples are exact duplicates."""
    from repro.datasets.container import MultiViewDataset

    base = make_multiview_blobs(
        60,
        2,
        view_dims=(8, 12),
        view_noise=(0.2, 0.3),
        separation=6.0,
        random_state=33,
    )
    views = []
    for x in base.views:
        x = x.copy()
        # Overwrite the back quarter with copies of the front quarter, so
        # duplicate rows exist within and across clusters' k-NN ranges.
        x[-15:] = x[:15]
        views.append(x)
    labels = base.labels.copy()
    labels[-15:] = labels[:15]
    return MultiViewDataset(
        name="duplicated_samples", views=views, labels=labels
    )


@pytest.fixture(scope="session")
def single_informative_dataset():
    """One clean view plus one view of pure structure-free noise."""
    from repro.datasets.container import MultiViewDataset

    base = make_multiview_blobs(
        66,
        3,
        view_dims=(12,),
        view_noise=(0.1,),
        separation=6.0,
        random_state=35,
    )
    rng = np.random.default_rng(36)
    noise_view = rng.normal(size=(66, 9))
    return MultiViewDataset(
        name="single_informative",
        views=[base.views[0], noise_view],
        labels=base.labels,
    )


@pytest.fixture(
    params=["outlier", "duplicated", "single_informative"],
    scope="session",
)
def degenerate_dataset(request):
    """Parametrized sweep over every shared degenerate dataset."""
    return request.getfixturevalue(f"{request.param}_dataset")
