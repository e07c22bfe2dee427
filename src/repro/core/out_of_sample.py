"""Out-of-sample extension: label new samples without refitting.

Spectral methods are transductive — the embedding exists only for the
training samples.  The standard practical extension assigns a new sample by
a similarity-weighted vote of its nearest training neighbors, aggregated
across views with the view weights the model learned:

``score(x_new, j) = sum_v w_v sum_{i in kNN_v(x_new)} K_v(x_new, x_i) [y_i = j]``

with the same self-tuning-style kernel used at fit time.  This turns a
fitted :class:`~repro.core.model.UnifiedMVSC` result into an inductive
classifier over its discovered clusters.

The vote itself lives in :mod:`repro.serving.predictor`
(:func:`~repro.serving.predictor.kernel_vote_scores` — the library's
single implementation, vectorized as a scatter-add); this module is the
thin transductive entry point that wraps the inputs in an in-memory
:class:`~repro.serving.artifact.ModelArtifact` and delegates to
:class:`~repro.serving.predictor.Predictor`, so the transductive and
serving paths can never drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.serving.artifact import ModelArtifact
from repro.serving.predictor import Predictor
from repro.utils.validation import check_labels, check_views


def propagate_labels(
    train_views,
    train_labels,
    new_views,
    *,
    n_clusters: int | None = None,
    view_weights=None,
    n_neighbors: int = 10,
) -> np.ndarray:
    """Assign cluster labels to unseen samples by multi-view kNN voting.

    Parameters
    ----------
    train_views : sequence of ndarray (n, d_v)
        The views the model was fitted on.
    train_labels : array-like of int, shape (n,)
        The fitted clustering (e.g. ``UMSCResult.labels``).
    new_views : sequence of ndarray (m, d_v)
        The same views for the new samples (same per-view feature
        dimensions, same order).
    n_clusters : int, optional
        Defaults to ``max(train_labels) + 1``.
    view_weights : array-like of shape (V,), optional
        Per-view vote weights (e.g. ``UMSCResult.view_weights``); default
        uniform.
    n_neighbors : int
        Training neighbors consulted per view.  When it exceeds the
        training-set size, the vote uses every training sample and a
        :class:`~repro.exceptions.ClampWarning` reports the substitution.

    Returns
    -------
    ndarray of int64, shape (m,)
        Cluster assignment of each new sample, identical to
        ``Predictor.predict`` over an artifact of the same inputs.

    Examples
    --------
    >>> import numpy as np
    >>> train = [np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 9])]
    >>> labels = np.repeat([0, 1], 5)
    >>> new = [np.array([[0.1, 0.1], [8.9, 9.2]])]
    >>> propagate_labels(train, labels, new).tolist()
    [0, 1]
    """
    # The artifact validates the training set, the weights and
    # n_clusters, and the predictor the query views; only the inputs
    # the defaults are computed from are checked here.
    train_views = check_views(train_views, "train_views")
    labels = check_labels(train_labels, "train_labels", n=train_views[0].shape[0])
    n_views = len(train_views)
    artifact = ModelArtifact(
        model_class="propagate_labels",
        train_views=train_views,
        train_labels=labels,
        view_weights=(
            np.full(n_views, 1.0 / n_views)
            if view_weights is None
            else view_weights
        ),
        n_clusters=int(labels.max()) + 1 if n_clusters is None else n_clusters,
        n_neighbors=n_neighbors,
    )
    return Predictor(artifact).predict(new_views)
