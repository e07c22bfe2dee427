"""Hungarian algorithm (minimum-cost assignment), from scratch.

Clustering accuracy needs the permutation of predicted labels that best
matches the ground truth — a linear assignment problem on the (negated)
contingency matrix.  This module implements the O(n^2 m) potentials /
shortest-augmenting-path formulation of the Kuhn-Munkres algorithm for
rectangular cost matrices.

Rows are inserted one at a time; for each row, a Dijkstra-like sweep over
columns finds the cheapest augmenting path while maintaining dual potentials
``u`` (rows) and ``v`` (columns) so reduced costs stay non-negative.  Column
``0`` is a virtual column that anchors the row currently being inserted.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_matrix


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``min sum cost[i, j_i]`` over one-to-one assignments.

    Parameters
    ----------
    cost : ndarray of shape (r, c)
        Finite cost matrix.  If ``r > c`` the problem is solved on the
        transpose and mapped back, so every index of the *smaller*
        dimension is assigned.

    Returns
    -------
    (row_ind, col_ind)
        Arrays of equal length ``min(r, c)`` such that the pairs
        ``(row_ind[k], col_ind[k])`` form an optimal assignment;
        ``row_ind`` is sorted ascending.

    Examples
    --------
    >>> import numpy as np
    >>> rows, cols = hungarian(np.array([[4.0, 1.0], [2.0, 0.0]]))
    >>> list(zip(rows.tolist(), cols.tolist()))
    [(0, 1), (1, 0)]
    """
    cost = check_matrix(cost, "cost")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")
    r, c = cost.shape
    if r > c:
        cols, rows = hungarian(cost.T)
        order = np.argsort(rows)
        return rows[order], cols[order]

    n, m = r, c
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    # p[j] = 1-based row assigned to column j; p[0] anchors the row being
    # inserted.  way[j] = previous column on the augmenting path.
    p = np.zeros(m + 1, dtype=np.int64)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        way = np.zeros(m + 1, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            reduced = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            # Cheapest unvisited column.
            candidates = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(candidates)) + 1
            delta = candidates[j1 - 1]
            # Update potentials so tree edges stay tight.
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # Augment: walk the path back to the virtual column.
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    row_of_col = p[1:]  # 1-based row for each column, 0 = unassigned
    col_ind = np.flatnonzero(row_of_col > 0)
    row_ind = row_of_col[col_ind] - 1
    order = np.argsort(row_ind)
    return row_ind[order].astype(np.int64), col_ind[order].astype(np.int64)
