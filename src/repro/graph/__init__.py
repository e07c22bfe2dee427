"""Graph substrate: affinity construction and Laplacians.

Multi-view spectral clustering consumes one similarity graph per view.  This
package builds those graphs from raw features:

* :mod:`repro.graph.distance` — pairwise distance kernels;
* :mod:`repro.graph.knn` — k-nearest-neighbor index computation;
* :mod:`repro.graph.affinity` — Gaussian, self-tuning, cosine and
  adaptive affinities, k-NN sparsified, behind one recipe;
* :mod:`repro.graph.adaptive` — CAN-style adaptive-neighbor graphs with a
  closed-form simplex projection;
* :mod:`repro.graph.laplacian` — unnormalized / symmetric / random-walk
  Laplacians and degree utilities;
* :mod:`repro.graph.fusion` — weighted fusion of per-view graphs;
* :mod:`repro.graph.connectivity` — connected-component analysis.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "adaptive_neighbor_affinity": "adaptive",
    "anchor_assignment": "anchor",
    "select_anchors": "anchor",
    "simplex_projection_rowwise": "adaptive",
    "build_view_affinity": "affinity",
    "connected_components": "connectivity",
    "pairwise_cosine_distances": "distance",
    "pairwise_sq_euclidean": "distance",
    "fuse_affinities": "fusion",
    "fuse_laplacians": "fusion",
    "kneighbors": "knn",
    "degree_vector": "laplacian",
    "laplacian": "laplacian",
    "normalized_adjacency": "laplacian",
    "sparse_knn_affinity": "sparse",
    "sparse_laplacian": "sparse",
})
