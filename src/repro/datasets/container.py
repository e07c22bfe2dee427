"""The multi-view dataset container used across the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_labels, check_views


@dataclass
class MultiViewDataset:
    """A named collection of per-view feature matrices with shared labels.

    Attributes
    ----------
    name : str
        Dataset identifier (e.g. ``"handwritten"``).
    views : list of ndarray
        One ``(n, d_v)`` float64 matrix per view; all share ``n`` rows, and
        row ``i`` of every view describes the same underlying sample.
    labels : ndarray of int64, shape (n,)
        Ground-truth class of each sample, consecutive from 0.
    view_names : list of str
        Human-readable view descriptions (same length as ``views``).
    description : str
        Free-form provenance note.

    Examples
    --------
    >>> import numpy as np
    >>> ds = MultiViewDataset(
    ...     name="toy",
    ...     views=[np.zeros((4, 2)), np.zeros((4, 3))],
    ...     labels=np.array([0, 0, 1, 1]),
    ... )
    >>> ds.n_samples, ds.n_views, ds.n_clusters, ds.view_dims
    (4, 2, 2, (2, 3))
    """

    name: str
    views: list
    labels: np.ndarray
    view_names: list = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        self.views = check_views(self.views, "views")
        self.labels = check_labels(self.labels, "labels", n=self.views[0].shape[0])
        if np.any(self.labels < 0):
            raise ValidationError("labels must be non-negative")
        uniq = np.unique(self.labels)
        if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            raise ValidationError(
                "labels must be consecutive integers starting at 0; "
                f"got values {uniq.tolist()[:10]}"
            )
        if not self.view_names:
            self.view_names = [f"view{i}" for i in range(len(self.views))]
        if len(self.view_names) != len(self.views):
            raise ValidationError(
                f"view_names has {len(self.view_names)} entries for "
                f"{len(self.views)} views"
            )

    @property
    def n_samples(self) -> int:
        """Number of samples shared by all views."""
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        """Number of views."""
        return len(self.views)

    @property
    def n_clusters(self) -> int:
        """Number of distinct ground-truth classes."""
        return int(np.unique(self.labels).size)

    @property
    def view_dims(self) -> tuple:
        """Per-view feature dimensionalities."""
        return tuple(v.shape[1] for v in self.views)

    def summary(self) -> str:
        """One-line human-readable description (used by Table I)."""
        dims = "/".join(str(d) for d in self.view_dims)
        return (
            f"{self.name}: n={self.n_samples}, views={self.n_views} "
            f"(dims {dims}), clusters={self.n_clusters}"
        )
