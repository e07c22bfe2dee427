"""The paper's primary contribution: unified one-stage multi-view spectral
clustering (UMSC).

:class:`~repro.core.model.UnifiedMVSC` learns the discrete cluster indicator
matrix ``Y`` jointly with the shared spectral embedding ``F``, an orthogonal
rotation ``R``, and view weights ``w`` — in one stage, with no K-means.  The
two-stage ablation :class:`~repro.core.two_stage.TwoStageMVSC` shares the
same graph pipeline but discretizes with K-means, isolating the paper's
one-stage contribution.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnchorMVSC": "anchor_model",
    "UMSCConfig": "config",
    "build_laplacians": "graph_builder",
    "build_multiview_affinities": "graph_builder",
    "IncompleteMVSC": "incomplete",
    "fuse_incomplete_affinities": "incomplete",
    "propagate_labels": "out_of_sample",
    "UnifiedMVSC": "model",
    "umsc_objective": "objective",
    "UMSCResult": "result",
    "SparseMVSC": "sparse_model",
    "TwoStageMVSC": "two_stage",
    "update_view_weights": "weights",
    "weight_exponents": "weights",
})
