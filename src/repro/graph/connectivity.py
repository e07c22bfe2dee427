"""Connected-component analysis of affinity graphs.

Spectral clustering's Laplacian null space has dimension equal to the number
of connected components; a graph with more components than clusters breaks
the embedding.  These helpers let dataset generators and tests verify graph
health, using an iterative depth-first search (no recursion limits).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_square


def connected_components(w: np.ndarray, *, tol: float = 0.0) -> np.ndarray:
    """Component label for every vertex of an undirected affinity graph.

    Parameters
    ----------
    w : ndarray of shape (n, n)
        Affinity matrix; an edge exists where ``w_ij > tol`` (either
        direction — the graph is treated as undirected).
    tol : float
        Edge threshold.

    Returns
    -------
    ndarray of int64, shape (n,)
        Labels in ``0..n_components-1``, numbered by first appearance.
    """
    w = check_square(w, "w")
    n = w.shape[0]
    adj = (w > tol) | (w.T > tol)
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            node = stack.pop()
            neighbors = np.flatnonzero(adj[node])
            for nb in neighbors:
                if labels[nb] == -1:
                    labels[nb] = current
                    stack.append(int(nb))
        current += 1
    return labels

