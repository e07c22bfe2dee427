"""Discrete indicator learning: the rotation/assignment machinery.

The unified framework couples the continuous embedding ``F`` to a discrete
partition through the *scaled* indicator

``G(Y) = Y (Y^T Y)^{-1/2}``  —  column ``j`` of ``Y`` divided by
``sqrt(n_j)``, so ``G^T G = I`` and ``||G||_F^2 = c`` matches
``||F R||_F^2``.

Two solvers live here:

* :func:`indicator_coordinate_descent` — the exact Y-step.  Maximizing
  ``tr(R^T F^T G(Y)) = sum_j q_j / sqrt(n_j)`` (with ``q_j`` the sum of
  ``M = F R`` entries assigned to cluster ``j``) is not row-separable, so
  we run coordinate descent over rows with incremental column statistics,
  accepting only improving moves and never emptying a cluster: a monotone,
  O(n c) per-sweep exact block update.  Each sweep is evaluated in
  vectorized blocks that gallop ahead to the next improving row, so a
  sweep costs O(moves + log n) numpy calls rather than O(n).  A move
  costs O(1): it refreshes two entries of each per-cluster c-vector the
  scan reads, and the moved row's own entry; a scan is one block of
  numpy work over that state.
* :func:`rotation_initialize` — spectral-rotation initialization: from the
  eigenvector embedding, try several random rotations, alternate
  (rotation, assignment) to a fixed point, and keep the best.  This is the
  K-means-free analogue of discretization restarts.  On large inputs the
  restarts compete on a fixed row subsample and only the winner is
  polished on every row, so the cold start costs about one n-row
  descent instead of ``n_restarts``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.labels import _indicator_labels, repair_empty_clusters
from repro.exceptions import RecoveryExhaustedError, ValidationError
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.trace import metric_inc, span
from repro.robust.faults import maybe_inject, register_fault_site
from repro.robust.policy import (
    RECOVERABLE_EXCEPTIONS,
    RecoveryEvent,
    matrix_context,
    record_recovery,
)
from repro.utils.rng import check_random_state
from repro.utils.validation import check_labels, check_matrix

_SITE_ROTATION = register_fault_site(
    "discrete.rotation",
    "one spectral-rotation restart (rotation_initialize)",
    modes=("raise", "delay"),
)


def scaled_indicator(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """The scaled indicator ``G = Y (Y^T Y)^{-1/2}`` from a label vector.

    Every cluster must be non-empty.  Row ``i`` holds ``1 / sqrt(n_j)``
    in column ``j = labels[i]`` and zeros elsewhere: the bits of
    ``Y / sqrt(n)``, whose entries are ``1.0 / s`` and ``0.0 / s``.
    """
    labels, c = _indicator_labels(labels, n_clusters)
    return _scaled_indicator(labels, c)


def _scaled_indicator(labels: np.ndarray, c: int) -> np.ndarray:
    """:func:`scaled_indicator` of int64 ``labels`` already in ``[0, c)``.

    For labels a solver produced itself, so only the empty-cluster check
    runs; labels from a caller go through :func:`scaled_indicator`.
    """
    counts = np.bincount(labels, minlength=c)
    if counts.min() == 0:
        raise ValidationError("scaled indicator requires non-empty clusters")
    # Row j of diag(1 / sqrt(n_j)) per label: one (n, c) allocation.
    return np.take(np.diag(1.0 / np.sqrt(counts)), labels, axis=0)


def _check_assignment(labels, n: int, n_clusters: int) -> np.ndarray:
    """``labels`` as a fresh int64 array, shape ``(n,)``, in ``[0, c)``."""
    expected = f"shape ({n},) with values in [0, {n_clusters})"
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise ValidationError(
            f"labels must have {expected}, got shape {arr.shape}"
        )
    arr = check_labels(arr)
    low, high = int(arr.min()), int(arr.max())
    if low < 0 or high >= n_clusters:
        raise ValidationError(
            f"labels must have {expected}, got values in [{low}, {high}]"
        )
    return arr


def rotation_objective(m: np.ndarray, labels: np.ndarray, n_clusters: int) -> float:
    """``tr(R^T F^T G(Y)) = sum_j q_j / sqrt(n_j)`` for ``M = F R``."""
    m = check_matrix(m, "m")
    if m.shape[1] != n_clusters:
        raise ValidationError(
            f"m must have {n_clusters} columns, got {m.shape[1]}"
        )
    labels = _check_assignment(labels, m.shape[0], n_clusters)
    counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
    q = np.bincount(
        labels, weights=m[np.arange(m.shape[0]), labels], minlength=n_clusters
    )
    safe = np.where(counts > 0, counts, 1.0)
    return float(np.sum(q / np.sqrt(safe)))


#: Rows whose move gains one vectorized scan evaluates after a move.
_SCAN_BLOCK = 256
#: Widest galloping scan, so one scan's ``(c, width)`` temporaries stay
#: bounded however long the run of non-improving rows.
_MAX_SCAN_BLOCK = 16 * _SCAN_BLOCK


class _ScanState:
    """What the Y-step scan reads besides ``M``, kept current move by move.

    Per cluster ``j``: ``q[j]``, the sum of ``M[i, j]`` over its rows,
    ``counts[j] = n_j``, and the derived ``base = q / sqrt(n)``,
    ``root_up = sqrt(n + 1)`` and ``root_down = sqrt(max(n - 1, 1))``.
    Per row ``i``: ``own[i] = M[i, labels[i]]``.  :meth:`move` refreshes
    only the entries a move touches.  Division and square root are
    correctly rounded, elementwise or scalar, so each entry holds the bits
    a full recomputation would give.
    """

    __slots__ = ("q", "counts", "own", "base", "root_up", "root_down")

    def __init__(self, m: np.ndarray, labels: np.ndarray, counts: np.ndarray):
        self.counts = counts
        self.own = m[np.arange(m.shape[0]), labels]
        # bincount adds the weights one row at a time, in row order.
        self.q = np.bincount(labels, weights=self.own, minlength=m.shape[1])
        self.base = self.q / np.sqrt(self.counts)
        self.root_up = np.sqrt(self.counts + 1.0)
        self.root_down = np.sqrt(np.maximum(self.counts - 1.0, 1.0))

    def move(self, i: int, a: int, b: int, m_ib: float) -> None:
        """Move row ``i`` from cluster ``a`` to ``b``; ``m_ib`` is ``M[i, b]``."""
        q, counts = self.q, self.counts
        q[a] -= self.own[i]
        counts[a] -= 1.0
        q[b] += m_ib
        counts[b] += 1.0
        self.own[i] = m_ib
        for j in (a, b):
            n_j = float(counts[j])
            self.base[j] = q[j] / math.sqrt(n_j)
            self.root_up[j] = math.sqrt(n_j + 1.0)
            self.root_down[j] = math.sqrt(max(n_j - 1.0, 1.0))


def _next_move(mt, labels, state, cols, start: int, width: int) -> tuple[int, int]:
    """The first improving move in the ``width`` rows from ``start``.

    ``mt`` is ``M^T`` (so a block is ``c`` contiguous row segments) and
    ``cols`` is an ``arange`` at least as long as the block.  Returns
    ``(i, b)``: move row ``i`` to cluster ``b``.  When no row of the
    block ``[start, stop)`` improves, returns ``(stop, -1)``.  ``state``
    is fixed until a move is accepted, so every row of the block sees
    the state the sequential sweep would show it; the gains use the
    sweep's elementwise formulas in the same order, hence the same bits
    whatever the block width.
    """
    stop = min(start + width, mt.shape[1])
    block = mt[:, start:stop]
    a = labels[start:stop]
    cols = cols[: stop - start]
    base = state.base
    # Each row's own cluster a after the row leaves it; singleton rows
    # (never moved) get a dummy non-zero denominator.
    new_a = (state.q[a] - state.own[start:stop]) / state.root_down[a]
    # Clusters b after each row (column of ``gain``) joins them.
    new_b = (state.q[:, None] + block) / state.root_up[:, None]
    gain = (new_a - base[a]) + (new_b - base[:, None])
    gain[a, cols] = 0.0
    # max(gain) > 1e-12 is the sweep's gain[argmax] > 1e-12, also when a
    # NaN is present (max propagates it, argmax picks it).
    improving = (state.counts[a] > 1.0) & (gain.max(axis=0) > 1e-12)
    k = int(improving.argmax())
    if not improving[k]:
        return stop, -1
    return start + k, int(gain[:, k].argmax())


def indicator_coordinate_descent(
    m: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    *,
    max_sweeps: int = 20,
) -> np.ndarray:
    """Exact Y-step: coordinate descent on ``max_Y sum_j q_j / sqrt(n_j)``.

    Each sweep visits the rows in order and moves a row to the cluster
    of largest gain when that gain exceeds ``1e-12``, updating the
    column statistics ``q`` and ``n_j`` after every move.  Between two
    moves those statistics are fixed, so the sweep is evaluated block by
    block: scan to the next improving row, apply that one move, resume
    after it.  The scan gallops: a block with no improving row doubles
    the next block's width (up to :data:`_MAX_SCAN_BLOCK` rows), and a
    move resets it to :data:`_SCAN_BLOCK`.  The moves are exactly those
    of a row-at-a-time sweep.

    Cost model: a move updates two entries of each per-cluster c-vector
    (``q``, ``n``, ``q / sqrt(n)``, ``sqrt(n + 1)``,
    ``sqrt(max(n - 1, 1))``) and the row's own entry ``M[i, labels[i]]``
    in ``O(1)`` scalar work; a scan is one block of ``O(c · width)``
    arithmetic in a fixed number (under 20) of numpy calls that only
    read that state.  A sweep therefore
    costs ``O(moves + log n)`` scans (a sweep of ``n`` rows beyond the
    width cap adds ``n / _MAX_SCAN_BLOCK``), and at small ``n`` the call
    is dominated by its fixed cost: validation plus one scan per move.

    Parameters
    ----------
    m : ndarray of shape (n, c)
        The rotated embedding ``M = F R``.
    labels : ndarray of int64, shape (n,)
        Feasible starting assignment (every cluster non-empty).
    n_clusters : int
        Number of clusters ``c``.
    max_sweeps : int
        Full passes over the rows; stops early when a sweep changes
        nothing.

    Returns
    -------
    ndarray of int64, shape (n,)
        Improved assignment; objective never decreases, no cluster is ever
        emptied.
    """
    m = check_matrix(m, "m")
    n, c = m.shape
    if c != n_clusters:
        raise ValidationError(f"m must have {n_clusters} columns, got {c}")
    labels = _check_assignment(labels, n, c)
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    if counts.min() == 0.0:
        raise ValidationError("starting assignment must have no empty cluster")
    state = _ScanState(m, labels, counts)

    mt = np.ascontiguousarray(m.T)
    cols = np.arange(min(n, _MAX_SCAN_BLOCK))
    n_moves = 0
    n_sweeps = 0
    for n_sweeps in range(1, max_sweeps + 1):
        moved = False
        i = 0
        width = _SCAN_BLOCK
        while i < n:
            i, b = _next_move(mt, labels, state, cols, i, width)
            if b < 0:
                width = min(2 * width, _MAX_SCAN_BLOCK)
                continue
            width = _SCAN_BLOCK
            state.move(i, labels[i], b, m[i, b])
            labels[i] = b
            moved = True
            n_moves += 1
            i += 1
        if not moved:
            break
    metric_inc("y_step.moves", n_moves)
    metric_inc("y_step.sweeps", n_sweeps)
    return labels


#: The cold start's restarts run on ``max(_RESTART_ROWS,
#: _RESTART_ROWS_PER_CLUSTER * c)`` rows of ``F`` ...
_RESTART_ROWS = 256
_RESTART_ROWS_PER_CLUSTER = 32
#: ... when ``n`` exceeds this many times that size; below it they run on
#: every row, with the exact arithmetic of the all-rows restart loop.
_SUBSAMPLE_RATIO = 4
#: Alternation cap of each restart and of the polish.
_MAX_ALT = 30


def _restart_rows(n: int, c: int) -> np.ndarray | None:
    """The sorted row subsample the restarts compete on, or ``None``.

    Drawn from a private fixed-seed generator, so the subsample is a
    function of ``(n, c)`` alone and the caller's generator is untouched.
    """
    size = max(_RESTART_ROWS, _RESTART_ROWS_PER_CLUSTER * c)
    if n <= _SUBSAMPLE_RATIO * size:
        return None
    return np.sort(np.random.default_rng(0).choice(n, size, replace=False))


def _descend(f, rot, c: int):
    """Alternate (Y-step, R-step) from ``rot`` until the labels are fixed.

    Starts from the nearest-cluster labels of ``f @ rot`` (empty clusters
    repaired by score margin, which draws no randomness) and returns
    ``(rot, labels, objective)``.  The solvers are looked up as module
    globals on every call, so a wrapper bound over them sees each one.
    """
    scores = f @ rot
    labels = repair_empty_clusters(
        np.argmax(scores, axis=1).astype(np.int64), c, scores=scores
    )
    prev = labels.copy()
    for _ in range(_MAX_ALT):
        # Few sweeps per alternation: the outer loop re-polishes.
        labels = indicator_coordinate_descent(f @ rot, labels, c, max_sweeps=4)
        rot = nearest_orthogonal(f.T @ _scaled_indicator(labels, c))
        if np.array_equal(labels, prev):
            break
        prev = labels.copy()
    return rot, labels, rotation_objective(f @ rot, labels, c)


def anchor_rotation(f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Yu-Shi style rotation seed from farthest-point-sampled rows of ``F``.

    Picks one row uniformly, then greedily adds the row least similar (in
    absolute cosine) to all chosen rows; the orthogonalized stack of those
    ``c`` rows aligns the rotation with actual data directions, which
    converges to better fixed points than Haar-random seeds (Yu & Shi,
    ICCV 2003).
    """
    f = check_matrix(f, "f")
    n, c = f.shape
    rows = f / np.maximum(np.linalg.norm(f, axis=1, keepdims=True), 1e-12)
    chosen = [int(rng.integers(n))]
    sim = np.abs(rows @ rows[chosen[0]])
    for _ in range(1, c):
        j = int(np.argmin(sim))
        chosen.append(j)
        sim = np.maximum(sim, np.abs(rows @ rows[j]))
    return nearest_orthogonal(rows[chosen].T)


def rotation_initialize(
    f: np.ndarray,
    n_clusters: int,
    *,
    n_restarts: int = 10,
    random_state=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral-rotation initialization of ``(R, labels)`` from an embedding.

    For each restart: seed an orthogonal rotation — alternating between
    Yu-Shi anchor-row seeds and Haar-random seeds — then alternate
    (assignment via coordinate descent, rotation via Procrustes) until the
    assignment stops changing.  The restart with the largest rotation
    objective wins.

    When ``n`` is well above the subsample size (``max(256, 32 c)`` rows,
    used once ``n`` exceeds four times that), the restarts run on a fixed
    sorted row subsample of ``f`` instead, and only the winning rotation
    is polished on all ``n`` rows by the same alternation.  Choosing a
    restart needs only a fair sample of the rows, while each all-rows
    restart would cost a full descent; the threshold keeps small inputs
    on the exact all-rows loop.  Either way the caller's generator makes
    the same calls (one per restart seed; the subsample has its own).

    A restart that fails with a recoverable error is skipped and
    recorded; when none survives — or the polish fails — the call raises
    :class:`~repro.exceptions.RecoveryExhaustedError`.

    Parameters
    ----------
    f : ndarray of shape (n, c)
        Orthonormal spectral embedding.
    n_clusters : int
        Number of clusters ``c``.
    n_restarts : int
        Rotation restarts (odd restarts use anchor seeds, even use random).
    random_state : int, Generator, or None

    Returns
    -------
    (rotation, labels)
        The best ``(c, c)`` orthogonal rotation and its assignment.
    """
    f = check_matrix(f, "f")
    n, c = f.shape
    if c != n_clusters:
        raise ValidationError(f"f must have {n_clusters} columns, got {c}")
    if n_restarts < 1:
        raise ValidationError(f"n_restarts must be >= 1, got {n_restarts}")
    rng = check_random_state(random_state)
    rows = _restart_rows(n, c)
    sub = f if rows is None else f[rows]

    best_obj = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    last_error = "no restart produced a finite rotation objective"
    with span(
        "rotation_initialize",
        n_restarts=n_restarts,
        n=n,
        c=c,
        subsample=sub.shape[0],
    ):
        for restart in range(n_restarts):
            # A failing restart is skipped, not fatal: any surviving restart
            # still yields a feasible (R, Y) initialization.
            try:
                maybe_inject(_SITE_ROTATION)
                if restart % 2 == 0:
                    rot = anchor_rotation(sub, rng)
                else:
                    qmat, rmat = np.linalg.qr(rng.normal(size=(c, c)))
                    rot = qmat * np.sign(np.diag(rmat))[None, :]
                rot, labels, obj = _descend(sub, rot, c)
            except RECOVERABLE_EXCEPTIONS as exc:
                last_error = str(exc)
                record_recovery(
                    RecoveryEvent(
                        site=_SITE_ROTATION,
                        strategy="skip",
                        attempt=restart + 1,
                        error=last_error,
                        detail=f"restart {restart}",
                    )
                )
                continue
            if np.isfinite(obj) and obj > best_obj:
                best_obj = obj
                best = (rot, labels)
        if best is not None and rows is not None:
            # The subsample's winner, polished on every row.  Without it
            # there is no all-rows assignment, so a failure is fatal.
            try:
                maybe_inject(_SITE_ROTATION)
                rot, labels, _ = _descend(f, best[0], c)
            except RECOVERABLE_EXCEPTIONS as exc:
                raise RecoveryExhaustedError(
                    f"the rotation polish failed: {exc}",
                    site=_SITE_ROTATION,
                    attempts=n_restarts + 1,
                    context=matrix_context(f, "f"),
                ) from exc
            best = (rot, labels)
    if best is None:
        raise RecoveryExhaustedError(
            f"all {n_restarts} rotation restarts failed: {last_error}",
            site=_SITE_ROTATION,
            attempts=n_restarts,
            context=matrix_context(f, "f"),
        )
    return best
