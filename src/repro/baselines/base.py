"""The constructor every baseline shares."""

from __future__ import annotations

from repro.exceptions import ValidationError


class Baseline:
    """A baseline clusterer: ``(n_clusters, *, random_state)`` in,
    ``fit_predict(views) -> labels`` out (each subclass defines it)."""

    def __init__(self, n_clusters: int, *, random_state=None) -> None:
        if n_clusters < 1:
            raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = int(n_clusters)
        self.random_state = random_state
