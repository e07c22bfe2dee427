"""Fit-state persistence: ``save()``/``load()`` for the model classes.

A fitted multi-view clustering becomes servable the moment its training
views, fitted labels, and learned view weights are captured —
:class:`~repro.serving.artifact.ModelArtifact` is exactly that bundle.
:class:`ServableModelMixin` gives every model class the same three-method
surface over it:

* ``to_artifact()`` — package the last successful raw-views fit;
* ``save(directory)`` — persist that artifact to disk;
* ``load(directory)`` — class method returning a
  :class:`~repro.serving.predictor.Predictor` over a saved artifact,
  after checking the artifact was produced by the same model class.

The mixin lives in :mod:`repro.core` and imports :mod:`repro.serving`;
the serving package never imports core, keeping the dependency one-way.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.serving.artifact import ModelArtifact
from repro.serving.predictor import Predictor

#: Serving-side kNN vote neighborhood for models whose fit has no
#: sample-to-sample neighborhood parameter (the anchor variant's
#: ``n_anchor_neighbors`` connects samples to *anchors*, not to each
#: other, so it is not reused here).
DEFAULT_SERVING_NEIGHBORS = 10


class ServableModelMixin:
    """Adds artifact persistence to a model class.

    Concrete models call :meth:`_remember_fit` at the end of a
    successful raw-views fit; until then :meth:`to_artifact` /
    :meth:`save` raise :class:`~repro.exceptions.ValidationError`.
    """

    _fit_state: tuple | None = None

    def _remember_fit(
        self,
        views,
        labels: np.ndarray,
        view_weights: np.ndarray,
        n_clusters: int,
        n_neighbors: int,
        *,
        extras: dict | None = None,
    ) -> None:
        """Capture the fitted state a serving artifact needs.

        ``views`` is kept as given and listed only by :meth:`to_artifact`,
        so a model may pass a sequence that builds its matrices on
        iteration.  ``extras`` is an optional mapping of named auxiliary
        arrays (e.g. the anchor sets a streaming fold-in must reuse)
        carried into the artifact; omitting it keeps the artifact
        byte-identical to the pre-extras format.
        """
        self._fit_state = (
            views,
            np.asarray(labels),
            np.asarray(view_weights, dtype=np.float64),
            int(n_clusters),
            int(n_neighbors),
            {} if extras is None else {k: np.asarray(v) for k, v in extras.items()},
        )

    def _serving_config(self) -> dict:
        """JSON-ready hyperparameter snapshot stored in the manifest."""
        return {}

    def to_artifact(self) -> ModelArtifact:
        """Package the last successful raw-views fit as a ModelArtifact.

        Raises
        ------
        ValidationError
            The model has not been fitted on raw views (``fit()`` /
            ``fit_predict()``); a fit on precomputed affinities keeps no
            feature matrices to build the serving-side kNN index from.
        """
        if self._fit_state is None:
            raise ValidationError(
                f"{type(self).__name__}.save() requires a model fitted on "
                f"raw views: call fit()/fit_predict() first "
                f"(fit_affinities() alone keeps no feature matrices for "
                f"the serving-side kNN index)"
            )
        views, labels, weights, n_clusters, n_neighbors, extras = self._fit_state
        return ModelArtifact(
            model_class=type(self).__name__,
            train_views=list(views),
            train_labels=labels,
            view_weights=weights,
            n_clusters=n_clusters,
            n_neighbors=n_neighbors,
            config=self._serving_config(),
            extras=extras,
        )

    def save(self, directory) -> str:
        """Persist the fitted model under ``directory``; returns the path.

        See :meth:`repro.serving.artifact.ModelArtifact.save` for the
        on-disk layout and atomicity guarantees.
        """
        return self.to_artifact().save(directory)

    @classmethod
    def load(
        cls,
        directory,
        *,
        batch_size: int = 4096,
    ) -> Predictor:
        """Load a saved artifact as a :class:`Predictor`.

        Raises
        ------
        ValidationError
            The artifact was produced by a different model class (load
            it with that class, or with the class-agnostic
            :meth:`Predictor.load <repro.serving.predictor.Predictor.load>`).
        ArtifactError
            The artifact directory is missing, corrupt, or incompatible.
        """
        artifact = ModelArtifact.load(directory)
        if artifact.model_class != cls.__name__:
            raise ValidationError(
                f"artifact in {directory!r} was saved by "
                f"{artifact.model_class}, not {cls.__name__}; load it with "
                f"{artifact.model_class}.load() or the class-agnostic "
                f"Predictor.load()"
            )
        return Predictor(artifact, batch_size=batch_size)
