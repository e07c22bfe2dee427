"""Graph substrate: affinity construction and Laplacians.

Multi-view spectral clustering consumes one similarity graph per view.  This
package builds those graphs from raw features:

* :mod:`repro.graph.distance` — pairwise distance kernels;
* :mod:`repro.graph.knn` — k-nearest-neighbor index computation;
* :mod:`repro.graph.affinity` — Gaussian, self-tuning, and cosine
  affinities with optional k-NN sparsification;
* :mod:`repro.graph.adaptive` — CAN-style adaptive-neighbor graphs with a
  closed-form simplex projection;
* :mod:`repro.graph.laplacian` — unnormalized / symmetric / random-walk
  Laplacians and degree utilities;
* :mod:`repro.graph.fusion` — weighted fusion of per-view graphs;
* :mod:`repro.graph.connectivity` — connected-component analysis.
"""

from repro.graph.adaptive import adaptive_neighbor_affinity, simplex_projection_rowwise
from repro.graph.anchor import anchor_affinity, anchor_assignment, select_anchors
from repro.graph.affinity import (
    build_view_affinity,
    cosine_affinity,
    gaussian_affinity,
    knn_sparsify,
    self_tuning_affinity,
    symmetrize,
)
from repro.graph.connectivity import (
    connected_components,
    is_connected,
    isolated_vertices,
)
from repro.graph.distance import pairwise_cosine_distances, pairwise_sq_euclidean
from repro.graph.fusion import fuse_affinities, fuse_laplacians
from repro.graph.knn import kneighbors
from repro.graph.sparse import sparse_knn_affinity, sparse_laplacian
from repro.graph.laplacian import (
    degree_vector,
    laplacian,
    normalized_adjacency,
)

__all__ = [
    "adaptive_neighbor_affinity",
    "anchor_affinity",
    "anchor_assignment",
    "select_anchors",
    "simplex_projection_rowwise",
    "build_view_affinity",
    "cosine_affinity",
    "gaussian_affinity",
    "knn_sparsify",
    "self_tuning_affinity",
    "symmetrize",
    "connected_components",
    "is_connected",
    "isolated_vertices",
    "pairwise_cosine_distances",
    "pairwise_sq_euclidean",
    "fuse_affinities",
    "fuse_laplacians",
    "kneighbors",
    "degree_vector",
    "laplacian",
    "normalized_adjacency",
    "sparse_knn_affinity",
    "sparse_laplacian",
]
