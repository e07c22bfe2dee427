"""Single-precision backend: same kernels, float32 arithmetic.

Halving the element width buys roughly 2× memory headroom on every
``n × n`` intermediate (distance matrices, affinities, kNN work buffers)
and a matching bandwidth/FLOP win wherever BLAS is memory- or
SIMD-bound — the dominant cost profile of this library's fit path.

The price is the documented :attr:`~Float32Backend.tolerance`: kernel
outputs agree with the reference backend only to single-precision
rounding.  The bound is set at 2e-3 relative, not float32 eps: the
pairwise expansion ``|x|^2 + |y|^2 - 2<x,y>`` cancels catastrophically
for near-duplicate points, and the affinity exponentials divide those
small distances by small local scales, amplifying the rounding
(eigenvectors of clustered spectra can rotate even more, which is why
equivalence is asserted on *clusterings* — label ARI 1.0 on the seed
datasets — not on raw eigenvectors).  Results
computed here are cache-segregated from float64 results via
:meth:`~repro.backends.base.ArrayBackend.cache_token`.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ArrayBackend


class Float32Backend(ArrayBackend):
    """Compute the hot kernels in float32 (documented-tolerance contract).

    Distance/affinity kernels return float32 (the graph layer is
    dtype-transparent); the eigensolver entry points — dense LAPACK
    (``ssyevr``) *and* the sparse ARPACK Lanczos path — compute in
    float32 but hand back float64 per the base-class contract, so
    everything downstream of the embedding stays float64.  The failure
    policy's retries and the dense ARPACK fallback stay plain float64
    (a fallback must not share the failure mode of the path it
    rescues).
    """

    name = "float32"
    compute_dtype = np.dtype(np.float32)
    validation_dtype: np.dtype | None = None
    tolerance = 2e-3
    description = (
        "float32 kernels: ~2x memory headroom on n*n paths, "
        "single-precision tolerance (labels ARI 1.0 on seed data)"
    )

    def eigsh_lanczos(self, a, k: int, which: str):
        """ARPACK Lanczos with float32 matvecs, float64 pairs out."""
        work = a.astype(np.float32) if a.dtype != np.float32 else a
        return super().eigsh_lanczos(work, k, which)
