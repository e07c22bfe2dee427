"""Versioned on-disk artifacts of fitted models.

A fitted multi-view clustering model is, for serving purposes, four
things: the training views (the kNN reference set), the fitted labels,
the learned view weights, and a handful of scalars (``n_clusters``,
``n_neighbors``).  :class:`ModelArtifact` packages exactly that and
persists it to a directory as

* ``arrays.npz``    — every array, stored losslessly (float64/int64
  bytes as produced by the fit, so a round-trip is bit-identical);
* ``manifest.json`` — schema version, model class, shapes, config,
  library versions, and a content hash over the arrays.

Loading validates the manifest before touching numpy: schema version,
required keys, shape consistency between manifest and arrays, label
range, weight finiteness, and the content hash all raise
:class:`~repro.exceptions.ArtifactError` (a
:class:`~repro.exceptions.ValidationError`) with a message naming the
problem — never a bare ``json``/``numpy``/``KeyError``.

Examples
--------
>>> import numpy as np, tempfile
>>> from repro.serving.artifact import ModelArtifact
>>> art = ModelArtifact(
...     model_class="UnifiedMVSC",
...     train_views=[np.eye(4)],
...     train_labels=np.array([0, 0, 1, 1]),
...     view_weights=np.array([1.0]),
...     n_clusters=2,
... )
>>> with tempfile.TemporaryDirectory() as d:
...     _ = art.save(d)
...     same = ModelArtifact.load(d)
>>> np.array_equal(art.train_views[0], same.train_views[0])
True
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.exceptions import ArtifactError, ValidationError
from repro.observability.trace import metric_inc, span
from repro.robust.faults import register_fault_site
from repro.robust.policy import failure_guard, run_with_policy
from repro.utils.validation import check_labels, check_views

#: Bump when the manifest schema or array layout changes; loaders reject
#: other versions instead of misinterpreting them.
SCHEMA_VERSION = 1

#: Manifest filename inside an artifact directory.
MANIFEST_NAME = "manifest.json"

#: Array-payload filename inside an artifact directory.
ARRAYS_NAME = "arrays.npz"

_SITE_LOAD = register_fault_site(
    "serving.load",
    "artifact manifest + array deserialization (Predictor.load path)",
    modes=("raise", "delay"),
)


def _content_hash(train_views, train_labels, view_weights) -> str:
    """Deterministic digest over every array's dtype, shape, and bytes."""
    h = hashlib.blake2b(digest_size=20)
    for arr in [*train_views, train_labels, view_weights]:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.shape}:{a.dtype.str}:".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _extras_hash(extras: dict) -> str:
    """Digest over the named auxiliary arrays, in name order."""
    h = hashlib.blake2b(digest_size=20)
    for name in sorted(extras):
        a = np.ascontiguousarray(extras[name])
        h.update(f"{name}:{a.shape}:{a.dtype.str}:".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _scipy_version() -> str:
    """scipy's version, without importing scipy.

    A fitting process has loaded scipy already.  Any other process (one
    that only serves) reads the installed metadata instead, so that
    serving never imports scipy.
    """
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        return scipy.__version__
    from importlib.metadata import version

    return version("scipy")


def library_versions() -> dict:
    """Versions of the stack an artifact was produced under."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "repro": repro.__version__,
    }


@dataclass(frozen=True)
class ModelArtifact:
    """Everything a fitted model needs to label unseen samples.

    Attributes
    ----------
    model_class : str
        Producing class name (``"UnifiedMVSC"``, ``"AnchorMVSC"``,
        ``"SparseMVSC"``); checked by the model classes' ``load``.
    train_views : list of ndarray (n, d_v)
        The views the model was fitted on (the kNN reference set).
    train_labels : ndarray of int64, shape (n,)
        The fitted clustering.
    view_weights : ndarray of shape (V,)
        Learned per-view vote weights.
    n_clusters : int
        Number of clusters.
    n_neighbors : int
        Training neighbors consulted per view at predict time.
    config : dict
        JSON-ready snapshot of the producing model's hyperparameters
        (informational; prediction uses only the fields above).
    versions : dict
        Library versions at save time (informational).
    extras : dict
        Optional named auxiliary arrays (e.g. the per-view anchor sets a
        streaming fold-in must reuse).  Stored as ``extra_<name>`` npz
        entries and listed in the manifest only when non-empty, so
        artifacts without extras stay byte-identical to the pre-extras
        format; loaders that predate extras ignore the entries, and
        artifacts that predate them load with ``extras == {}``.
    """

    model_class: str
    train_views: list
    train_labels: np.ndarray
    view_weights: np.ndarray
    n_clusters: int
    n_neighbors: int = 10
    config: dict = field(default_factory=dict)
    versions: dict = field(default_factory=library_versions)
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        views = check_views(self.train_views, "train_views")
        object.__setattr__(self, "train_views", views)
        labels = check_labels(
            self.train_labels, "train_labels", n=views[0].shape[0]
        )
        object.__setattr__(self, "train_labels", labels)
        if np.any(labels < 0):
            raise ValidationError("train_labels must be non-negative")
        c = int(self.n_clusters)
        if c < 1 or int(labels.max()) >= c:
            raise ValidationError(
                f"n_clusters={c} inconsistent with train_labels "
                f"(max label {int(labels.max())})"
            )
        object.__setattr__(self, "n_clusters", c)
        if int(self.n_neighbors) < 1:
            raise ValidationError(
                f"n_neighbors must be >= 1, got {self.n_neighbors}"
            )
        object.__setattr__(self, "n_neighbors", int(self.n_neighbors))
        weights = np.asarray(self.view_weights, dtype=np.float64)
        if weights.shape != (len(views),):
            raise ValidationError(
                f"view_weights must have shape ({len(views)},), "
                f"got {weights.shape}"
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValidationError(
                "view_weights must be finite and non-negative"
            )
        if weights.sum() <= 0:
            raise ValidationError("view_weights must not all be zero")
        object.__setattr__(self, "view_weights", weights)
        extras = {}
        for name, value in dict(self.extras).items():
            if not isinstance(name, str) or not name.replace("_", "").isalnum():
                raise ValidationError(
                    f"extras keys must be alphanumeric/underscore names, "
                    f"got {name!r}"
                )
            extras[name] = np.asarray(value)
        object.__setattr__(self, "extras", extras)

    # -- derived -----------------------------------------------------------

    @property
    def n_views(self) -> int:
        """Number of views."""
        return len(self.train_views)

    @property
    def view_dims(self) -> tuple:
        """Per-view feature dimension ``d_v``."""
        return tuple(int(v.shape[1]) for v in self.train_views)

    @property
    def n_samples(self) -> int:
        """Training-set size ``n``."""
        return int(self.train_views[0].shape[0])

    def content_hash(self) -> str:
        """Digest over every stored array (what the manifest records)."""
        return _content_hash(
            self.train_views, self.train_labels, self.view_weights
        )

    def manifest(self) -> dict:
        """The JSON-ready manifest describing this artifact."""
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "model_class": self.model_class,
            "n_samples": self.n_samples,
            "n_views": self.n_views,
            "view_dims": list(self.view_dims),
            "n_clusters": self.n_clusters,
            "n_neighbors": self.n_neighbors,
            "view_weights": [float(w) for w in self.view_weights],
            "config": dict(self.config),
            "versions": dict(self.versions),
            "content_hash": self.content_hash(),
        }
        if self.extras:
            # Optional keys: absent entirely when there are no extras so
            # the manifest (and its hash-relevant bytes) match pre-extras
            # saves; old readers ignore unknown keys.
            manifest["extras"] = {
                name: {
                    "shape": list(arr.shape),
                    "dtype": arr.dtype.str,
                }
                for name, arr in sorted(self.extras.items())
            }
            manifest["extras_hash"] = _extras_hash(self.extras)
        return manifest

    # -- persistence -------------------------------------------------------

    def save(self, directory) -> str:
        """Write this artifact under ``directory`` (created if missing).

        Returns the directory path.  Writes are atomic per file (write
        to a temp name, then rename), so a crashed save never leaves a
        half-written artifact that later loads.
        """
        directory = os.fspath(directory)
        with span("serving.save", model=self.model_class, n=self.n_samples):
            os.makedirs(directory, exist_ok=True)
            payload = {
                "train_labels": self.train_labels,
                "view_weights": self.view_weights,
            }
            for i, v in enumerate(self.train_views):
                payload[f"view_{i}"] = v
            for name, arr in self.extras.items():
                payload[f"extra_{name}"] = arr
            arrays_path = os.path.join(directory, ARRAYS_NAME)
            tmp = f"{arrays_path}.tmp{os.getpid()}"
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, arrays_path)
            manifest_path = os.path.join(directory, MANIFEST_NAME)
            tmp = f"{manifest_path}.tmp{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.manifest(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, manifest_path)
            metric_inc("serving.artifact.saved")
        return directory

    @classmethod
    def load(cls, directory) -> "ModelArtifact":
        """Read and validate an artifact directory.

        Runs under the ``serving.load`` failure policy: transient I/O or
        deserialization trouble gets the policy's deterministic retries,
        and whatever ultimately fails surfaces as
        :class:`~repro.exceptions.ArtifactError` (malformed artifact) or
        :class:`~repro.exceptions.RecoveryExhaustedError` (exhausted
        recovery) — never a bare ``json``/``numpy`` exception.
        """
        directory = os.fspath(directory)
        with span("serving.load", directory=directory), failure_guard(
            _SITE_LOAD
        ):
            artifact = run_with_policy(
                _SITE_LOAD,
                lambda perturb: cls._load_once(directory),
                validate=lambda value: isinstance(value, cls),
                context=f"artifact directory {directory!r}",
            )
            metric_inc("serving.artifact.loaded")
            return artifact

    @classmethod
    def _load_once(cls, directory: str) -> "ModelArtifact":
        """One validation + deserialization pass (the policy's primary)."""
        manifest = _read_manifest(directory)
        arrays = _read_arrays(directory, manifest)
        artifact = cls(
            model_class=str(manifest["model_class"]),
            train_views=arrays["views"],
            train_labels=arrays["train_labels"],
            view_weights=arrays["view_weights"],
            n_clusters=int(manifest["n_clusters"]),
            n_neighbors=int(manifest["n_neighbors"]),
            config=dict(manifest.get("config", {})),
            versions=dict(manifest.get("versions", {})),
            extras=arrays["extras"],
        )
        recorded = str(manifest["content_hash"])
        actual = artifact.content_hash()
        if recorded != actual:
            raise ArtifactError(
                f"content hash mismatch in {directory!r}: manifest records "
                f"{recorded} but arrays hash to {actual} (artifact was "
                f"modified after save)"
            )
        recorded_extras = manifest.get("extras_hash")
        if recorded_extras is not None:
            actual_extras = _extras_hash(artifact.extras)
            if str(recorded_extras) != actual_extras:
                raise ArtifactError(
                    f"extras hash mismatch in {directory!r}: manifest "
                    f"records {recorded_extras} but extras hash to "
                    f"{actual_extras} (artifact was modified after save)"
                )
        return artifact


_REQUIRED_MANIFEST_KEYS = (
    "schema_version",
    "model_class",
    "n_samples",
    "n_views",
    "view_dims",
    "n_clusters",
    "n_neighbors",
    "content_hash",
)


def _read_manifest(directory: str) -> dict:
    """Parse and schema-check ``manifest.json``; raise ArtifactError."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise ArtifactError(
            f"no artifact manifest at {path!r} (is this an artifact "
            f"directory produced by model.save()?)"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(
            f"unreadable artifact manifest {path!r}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(
            f"artifact manifest {path!r} must be a JSON object, "
            f"got {type(manifest).__name__}"
        )
    missing = [k for k in _REQUIRED_MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ArtifactError(
            f"artifact manifest {path!r} is missing keys {missing}"
        )
    version = manifest["schema_version"]
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact schema version {version!r} is not supported "
            f"(this library reads version {SCHEMA_VERSION}); re-save the "
            f"model with the current library"
        )
    return manifest


def _read_arrays(directory: str, manifest: dict) -> dict:
    """Load ``arrays.npz`` and check shapes against the manifest."""
    path = os.path.join(directory, ARRAYS_NAME)
    if not os.path.isfile(path):
        raise ArtifactError(f"artifact arrays file missing: {path!r}")
    try:
        n_views = int(manifest["n_views"])
        n_samples = int(manifest["n_samples"])
        view_dims = [int(d) for d in manifest["view_dims"]]
    except (TypeError, ValueError) as exc:
        raise ArtifactError(
            f"artifact manifest in {directory!r} has non-integer "
            f"shape fields: {exc}"
        ) from exc
    if len(view_dims) != n_views:
        raise ArtifactError(
            f"artifact manifest in {directory!r} lists {len(view_dims)} "
            f"view dims for n_views={n_views}"
        )
    extra_names = sorted(manifest.get("extras", {}))
    try:
        with np.load(path, allow_pickle=False) as data:
            names = set(data.files)
            required = {"train_labels", "view_weights"} | {
                f"view_{i}" for i in range(n_views)
            }
            required |= {f"extra_{name}" for name in extra_names}
            missing = sorted(required - names)
            if missing:
                raise ArtifactError(
                    f"artifact arrays file {path!r} is missing entries "
                    f"{missing}"
                )
            views = [data[f"view_{i}"] for i in range(n_views)]
            labels = data["train_labels"]
            weights = data["view_weights"]
            extras = {name: data[f"extra_{name}"] for name in extra_names}
    except ArtifactError:
        raise
    except Exception as exc:  # zipfile/OSError/ValueError: corrupt payload
        raise ArtifactError(
            f"corrupt artifact arrays file {path!r}: {exc}"
        ) from exc
    for i, (v, d) in enumerate(zip(views, view_dims)):
        if v.ndim != 2 or v.shape != (n_samples, d):
            raise ArtifactError(
                f"artifact view_{i} has shape {v.shape}, manifest says "
                f"({n_samples}, {d})"
            )
    if labels.shape != (n_samples,):
        raise ArtifactError(
            f"artifact train_labels has shape {labels.shape}, manifest "
            f"says ({n_samples},)"
        )
    if weights.shape != (n_views,):
        raise ArtifactError(
            f"artifact view_weights has shape {weights.shape}, manifest "
            f"says ({n_views},)"
        )
    return {
        "views": views,
        "train_labels": labels,
        "view_weights": weights,
        "extras": extras,
    }
