"""Dense linear-algebra substrate used by the clustering algorithms.

Everything here operates on plain numpy arrays.  The submodules provide the
three primitives that one-stage multi-view spectral clustering is built from:

* :mod:`repro.linalg.eigen` — extremal eigenpairs of symmetric matrices;
* :mod:`repro.linalg.procrustes` — the orthogonal Procrustes rotation;
* :mod:`repro.linalg.gpi` — generalized power iteration for quadratic
  problems over the Stiefel manifold.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "eigsh_largest": "eigen",
    "eigsh_smallest": "eigen",
    "sorted_eigh": "eigen",
    "gpi_stiefel": "gpi",
    "nearest_orthogonal": "procrustes",
})
