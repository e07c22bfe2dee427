"""Baseline algorithms the paper's evaluation compares against.

All baselines are implemented from scratch on the shared substrates
(:mod:`repro.graph`, :mod:`repro.cluster`, :mod:`repro.linalg`) so that the
comparison isolates the *algorithm*, not the graph recipe.  Every class
runs at its published defaults, takes ``(n_clusters, *, random_state)``
(``SingleViewSC`` also ``view``) and exposes
``fit_predict(views) -> labels``.

Single-view:

* :class:`SingleViewSC` — classical spectral clustering on one view; the
  literature's SC(best)/SC(worst) rows pick the best/worst view post hoc.

Early fusion:

* :class:`ConcatKMeans` — K-means on z-scored concatenated features;
* :class:`ConcatSC` — spectral clustering on the concatenated features;
* :class:`KernelAdditionSC` — spectral clustering on the average affinity.

Multi-view spectral:

* :class:`CoRegSC` — co-regularized spectral clustering (centroid
  variant; Kumar, Rai & Daume, NIPS 2011);
* :class:`CoTrainSC` — co-trained multi-view spectral clustering (Kumar &
  Daume, ICML 2011);
* :class:`AMGL` — auto-weighted multiple graph learning (Nie et al.,
  IJCAI 2016);
* :class:`MLAN` — multi-view learning with adaptive neighbors (Nie et
  al., AAAI 2017), simplified to its clustering core;
* :class:`MultiViewKMeans` — weighted multi-view K-means (RMKM-style);
* :class:`AWP` — multi-view clustering via adaptively weighted Procrustes
  (Nie et al., KDD 2018), the closest one-stage competitor;
* :class:`SwMC` — self-weighted consensus-graph clustering (Nie et al.,
  IJCAI 2017).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AMGL": "amgl",
    "AWP": "awp",
    "ConcatKMeans": "concat",
    "ConcatSC": "concat",
    "CoRegSC": "coreg",
    "CoTrainSC": "cotraining",
    "KernelAdditionSC": "kernel_addition",
    "MLAN": "mlan",
    "MultiViewKMeans": "mvkm",
    "SingleViewSC": "single_view",
    "all_single_view_labels": "single_view",
    "SwMC": "swmc",
})
