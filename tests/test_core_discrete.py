"""Tests for repro.core.discrete (rotation / indicator machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.discrete as discrete
from repro.cluster.labels import indicator_from_labels, repair_empty_clusters
from repro.core.discrete import (
    anchor_rotation,
    indicator_coordinate_descent,
    rotation_initialize,
    rotation_objective,
    scaled_indicator,
)
from repro.exceptions import ValidationError
from repro.linalg.procrustes import nearest_orthogonal
from repro.observability.trace import Trace, use_trace


def _clean_embedding(sizes, seed=0):
    """Ideal indicator-like embedding: G(Y) for a known partition."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    rng.shuffle(labels)
    g = scaled_indicator(labels, len(sizes))
    return g, labels


def _row_loop_descent(m, labels, n_clusters, *, max_sweeps=20):
    """Reference oracle: the sequential one-row-at-a-time Y-step sweep.

    Returns ``(labels, n_moves, n_sweeps)``; the library's vectorized
    scan must reproduce all three exactly.
    """
    m = np.asarray(m, dtype=np.float64)
    n, c = m.shape
    labels = np.asarray(labels, dtype=np.int64).copy()
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    # q[j] = sum of m[i, j] over rows assigned to j.
    q = np.zeros(c)
    np.add.at(q, labels, m[np.arange(n), labels])

    sqrt = np.sqrt
    n_moves = 0
    n_sweeps = 0
    for n_sweeps in range(1, max_sweeps + 1):
        moved = False
        for i in range(n):
            a = labels[i]
            if counts[a] <= 1:
                continue  # never empty a cluster
            # Contribution of clusters a and b before/after moving row i.
            base_a = q[a] / sqrt(counts[a])
            new_a = (q[a] - m[i, a]) / sqrt(counts[a] - 1.0)
            # Gains for moving i to every other cluster, vectorized.
            base_b = q / sqrt(counts)
            new_b = (q + m[i]) / sqrt(counts + 1.0)
            gain = (new_a - base_a) + (new_b - base_b)
            gain[a] = 0.0
            b = int(np.argmax(gain))
            if gain[b] > 1e-12:
                q[a] -= m[i, a]
                counts[a] -= 1.0
                q[b] += m[i, b]
                counts[b] += 1.0
                labels[i] = b
                moved = True
                n_moves += 1
        if not moved:
            break
    return labels, n_moves, n_sweeps


def _descent_case(n, c, seed, *, decimals=None, start="random"):
    """An ``(m, labels)`` Y-step input; every cluster starts non-empty.

    ``decimals`` rounds ``m`` to force tied gains; ``start`` is
    ``"random"``, ``"singletons"`` (all but ``c - 1`` rows in cluster 0,
    the rest singletons) or ``"argmax"`` (a near-converged start).
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, c))
    if decimals is not None:
        m = np.round(m, decimals)
    if start == "argmax":
        labels = np.argmax(m, axis=1)
    elif start == "singletons":
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = rng.integers(0, c, size=n)
    labels[rng.permutation(n)[:c]] = np.arange(c)
    return m, labels.astype(np.int64)


def _assert_matches_row_loop(m, labels, c, max_sweeps):
    expected, moves, sweeps = _row_loop_descent(
        m, labels, c, max_sweeps=max_sweeps
    )
    with use_trace(Trace("y-step")) as trace:
        got = indicator_coordinate_descent(m, labels, c, max_sweeps=max_sweeps)
    np.testing.assert_array_equal(got, expected)
    counters = trace.metrics.counters
    assert counters["y_step.moves"].value == moves
    assert counters["y_step.sweeps"].value == sweeps


class TestScaledIndicator:
    def test_orthonormal_columns(self):
        g, _ = _clean_embedding([4, 6, 2])
        np.testing.assert_allclose(g.T @ g, np.eye(3), atol=1e-12)

    def test_values(self):
        g = scaled_indicator(np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(g[0, 0], 1 / np.sqrt(2))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            scaled_indicator(np.array([0, 0, 0]), 2)

    @pytest.mark.parametrize(
        "labels, c, message",
        [
            ([0, -1, 1], 2, "labels must be non-negative for indicator encoding"),
            ([0, 1, 2], 2, "labels contain value 2 >= n_clusters=2"),
            ([0, 0, 2], 3, "scaled indicator requires non-empty clusters"),
            ([0.5, 1.0], 2, "labels must contain integers"),
            ([0.0, np.nan], 2, "labels must contain integers"),
            ([[0, 1], [1, 0]], 2, "labels must be 1-D, got ndim=2"),
            ([0, 0], 0, "n_clusters must be >= 1, got 0"),
            ([], 2, "labels must be non-empty"),
        ],
        ids=[
            "negative", "too-large", "empty-cluster", "non-integer", "nan",
            "2-d", "zero-clusters", "no-rows",
        ],
    )
    def test_errors(self, labels, c, message):
        with pytest.raises(ValidationError) as info:
            scaled_indicator(np.asarray(labels), c)
        assert type(info.value) is ValidationError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n, c, seed", [(1, 1, 0), (7, 3, 1), (150, 4, 2), (2300, 9, 3)]
    )
    def test_bits_of_the_one_hot_quotient(self, n, c, seed):
        # The reference: the one-hot Y divided by sqrt of its column sums.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=n)
        labels[rng.permutation(n)[:c]] = np.arange(c)
        y = indicator_from_labels(labels, c)
        expected = y / np.sqrt(y.sum(axis=0))[None, :]
        got = scaled_indicator(labels, c)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestRotationObjective:
    def test_upper_bound_sqrt_counts(self):
        # For M = G(Y) the objective is exactly c (each column contributes
        # n_j / sqrt(n_j) / sqrt(n_j) = 1).
        g, labels = _clean_embedding([5, 3, 7])
        assert rotation_objective(g, labels, 3) == pytest.approx(3.0)

    def test_wrong_assignment_scores_lower(self):
        g, labels = _clean_embedding([5, 5])
        wrong = 1 - labels
        assert rotation_objective(g, wrong, 2) < rotation_objective(g, labels, 2)


class TestCoordinateDescent:
    def test_monotone_objective(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(40, 4))
        labels = rng.integers(0, 4, size=40).astype(np.int64)
        labels[:4] = np.arange(4)  # keep clusters non-empty
        before = rotation_objective(m, labels, 4)
        improved = indicator_coordinate_descent(m, labels, 4)
        after = rotation_objective(m, improved, 4)
        assert after >= before - 1e-12

    def test_no_cluster_emptied(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(20, 5))
        labels = np.arange(20) % 5
        out = indicator_coordinate_descent(m, labels.astype(np.int64), 5)
        assert np.all(np.bincount(out, minlength=5) >= 1)

    def test_recovers_perfect_partition(self):
        g, labels = _clean_embedding([10, 10, 10], seed=2)
        noisy = labels.copy()
        rng = np.random.default_rng(3)
        flips = rng.choice(30, size=6, replace=False)
        noisy[flips] = (noisy[flips] + 1) % 3
        recovered = indicator_coordinate_descent(g, noisy, 3)
        assert rotation_objective(g, recovered, 3) >= rotation_objective(
            g, labels, 3
        ) - 1e-9

    def test_requires_feasible_start(self):
        m = np.zeros((4, 3))
        with pytest.raises(ValidationError, match="empty"):
            indicator_coordinate_descent(m, np.zeros(4, dtype=np.int64), 3)

    def test_column_mismatch(self):
        with pytest.raises(ValidationError, match="columns"):
            indicator_coordinate_descent(
                np.zeros((4, 2)), np.array([0, 1, 2, 0]), 3
            )

    @pytest.mark.parametrize(
        "labels, match",
        [
            ([0, 1, 2, 3, 0, 1], r"in \[0, 3\).*got values in \[0, 3\]"),
            ([0, 1, 2, -1, 0, 1], r"in \[0, 3\).*got values in \[-1, 2\]"),
            ([0, 1, 2, 0, 1], r"shape \(6,\).*got shape \(5,\)"),
            ([[0, 1, 2, 0, 1, 2]], r"shape \(6,\).*got shape \(1, 6\)"),
        ],
    )
    def test_malformed_labels(self, labels, match):
        m = np.zeros((6, 3))
        with pytest.raises(ValidationError, match=match):
            indicator_coordinate_descent(m, labels, 3)
        with pytest.raises(ValidationError, match=match):
            rotation_objective(m, labels, 3)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 4), st.integers(0, 500))
    def test_property_monotone_and_feasible(self, c, seed):
        rng = np.random.default_rng(seed)
        n = 6 * c
        m = rng.normal(size=(n, c))
        labels = (np.arange(n) % c).astype(np.int64)
        before = rotation_objective(m, labels, c)
        out = indicator_coordinate_descent(m, labels, c)
        assert rotation_objective(m, out, c) >= before - 1e-12
        assert np.all(np.bincount(out, minlength=c) >= 1)


class TestMatchesRowLoop:
    """The block scan makes exactly the sequential sweep's moves."""

    @pytest.mark.parametrize(
        "n, c, seed, decimals, start, max_sweeps",
        [
            (1, 1, 0, None, "random", 20),
            (2, 2, 1, None, "random", 20),
            (255, 2, 2, None, "random", 20),
            (257, 3, 3, 1, "random", 4),
            (513, 8, 4, None, "singletons", 20),
            (700, 5, 5, 0, "singletons", 1),
            (1100, 4, 6, 0, "random", 20),
            (2000, 8, 7, None, "random", 4),
            (2000, 3, 8, None, "argmax", 20),
        ],
    )
    def test_fixed_cases(self, n, c, seed, decimals, start, max_sweeps):
        m, labels = _descent_case(n, c, seed, decimals=decimals, start=start)
        _assert_matches_row_loop(m, labels, c, max_sweeps)

    def test_gain_below_threshold_is_not_a_move(self):
        # Moving row 2 to cluster 1 gains about 5e-13 > 0, under the
        # 1e-12 acceptance threshold; no other move gains at all.
        x = 1.0 + 5e-13 * np.sqrt(3.0)
        m = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, x], [0.0, 1.0], [0.0, 1.0]])
        labels = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        gain = rotation_objective(m, [0, 0, 1, 1, 1], 2) - rotation_objective(
            m, labels, 2
        )
        assert 0.0 < gain < 1e-12
        _assert_matches_row_loop(m, labels, 2, 20)
        np.testing.assert_array_equal(
            indicator_coordinate_descent(m, labels, 2), labels
        )

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(2, 8),
        st.integers(0, 700),
        st.integers(0, 10_000),
        st.sampled_from([None, 0, 1]),
        st.sampled_from(["random", "singletons", "argmax"]),
        st.sampled_from([1, 4, 20]),
    )
    def test_property(self, c, extra, seed, decimals, start, max_sweeps):
        m, labels = _descent_case(
            c + extra, c, seed, decimals=decimals, start=start
        )
        _assert_matches_row_loop(m, labels, c, max_sweeps)


def _separated_case(n, c, seed, flips):
    """A well-separated embedding whose start mislabels only ``flips``.

    ``m`` is the scaled indicator of a random partition plus small
    noise and the start is that partition, so the only improving rows
    are the flipped ones: a sweep's moves sit wherever ``flips`` puts
    them, with non-improving runs in between.
    """
    rng = np.random.default_rng(seed)
    truth = np.arange(n) % c
    rng.shuffle(truth)
    m = scaled_indicator(truth, c) + 1e-4 * rng.normal(size=(n, c)) / np.sqrt(n)
    labels = truth.copy()
    for i in flips:
        labels[i] = (truth[i] + 1) % c
    return m, labels.astype(np.int64)


class TestGallopingScan:
    """The galloping widths keep the row-at-a-time sweep's exact moves."""

    @pytest.mark.parametrize("n", [255, 256, 257, 1000, 5000])
    @pytest.mark.parametrize(
        "c, decimals, start, max_sweeps",
        [
            (4, None, "random", 4),
            # Near-converged: few moves, far apart.
            (3, None, "argmax", 20),
            # Tied gains.
            (5, 1, "random", 4),
        ],
    )
    def test_generated_cases(self, n, c, decimals, start, max_sweeps):
        m, labels = _descent_case(n, c, n, decimals=decimals, start=start)
        _assert_matches_row_loop(m, labels, c, max_sweeps)

    @pytest.mark.parametrize(
        "n, flips",
        [
            (1000, [3, 700]),
            (5000, [10, 300, 1700, 4990]),
            (5000, [2500]),
            # A single improving row, the last one.
            (255, [254]),
            (256, [255]),
            (257, [256]),
            (1000, [999]),
            (5000, [4999]),
        ],
    )
    def test_moves_many_blocks_apart(self, n, flips):
        m, labels = _separated_case(n, 4, n, flips)
        _assert_matches_row_loop(m, labels, 4, 20)
        assert np.count_nonzero(
            indicator_coordinate_descent(m, labels, 4) != labels
        ) == len(flips)

    #: An idle sweep's widths up to the cap; they cover 7936 rows.
    _IDLE_5000 = [256, 512, 1024, 2048, 4096]

    @pytest.mark.parametrize(
        "n, flips, widths",
        [
            # Converged: one idle sweep, capped at 4096 rows per scan.
            (20_000, [], _IDLE_5000 + [4096] * 3),
            # A move at row 10 and one at 3000 each reset the width to
            # 256; the second sweep finds nothing.
            (
                5000,
                [10, 3000],
                [256, 256, 512, 1024, 2048, 256, 512, 1024, 2048]
                + _IDLE_5000,
            ),
        ],
    )
    def test_scan_widths_follow_moves_not_rows(
        self, n, flips, widths, monkeypatch
    ):
        m, labels = _separated_case(n, 4, 9, flips)
        calls = []
        real = discrete._next_move

        def spy(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(discrete, "_next_move", spy)
        out = indicator_coordinate_descent(m, labels, 4)
        assert np.count_nonzero(out != labels) == len(flips)
        assert calls == widths


class TestAnchorRotation:
    def test_orthogonal_output(self):
        rng = np.random.default_rng(0)
        f, _ = np.linalg.qr(rng.normal(size=(30, 4)))
        rot = anchor_rotation(f, rng)
        np.testing.assert_allclose(rot.T @ rot, np.eye(4), atol=1e-10)


class TestRotationInitialize:
    def test_recovers_clean_partition(self):
        g, labels = _clean_embedding([12, 8, 10], seed=4)
        # Rotate the clean indicator arbitrarily: init must undo it.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        f = g @ q
        _, found = rotation_initialize(f, 3, n_restarts=10, random_state=0)
        from repro.metrics import clustering_accuracy

        assert clustering_accuracy(labels, found) == 1.0

    def test_rotation_is_orthogonal(self):
        g, _ = _clean_embedding([6, 6, 6], seed=6)
        rot, _ = rotation_initialize(g, 3, random_state=1)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-9)

    def test_all_clusters_present(self):
        rng = np.random.default_rng(7)
        f, _ = np.linalg.qr(rng.normal(size=(50, 5)))
        _, labels = rotation_initialize(f, 5, random_state=2)
        assert np.all(np.bincount(labels, minlength=5) >= 1)

    def test_validation(self):
        g, _ = _clean_embedding([5, 5])
        with pytest.raises(ValidationError, match="columns"):
            rotation_initialize(g, 3)
        with pytest.raises(ValidationError, match="n_restarts"):
            rotation_initialize(g, 2, n_restarts=0)


def _exact_rotation_initialize(f, c, *, n_restarts=10, max_alt=30, seed=0):
    """Reference oracle: every restart alternates on all ``n`` rows.

    Returns ``(rotation, labels, rng)``, ``rng`` after its last draw.
    """
    rng = np.random.default_rng(seed)
    best_obj, best = -np.inf, None
    for restart in range(n_restarts):
        if restart % 2 == 0:
            rot = anchor_rotation(f, rng)
        else:
            qmat, rmat = np.linalg.qr(rng.normal(size=(c, c)))
            rot = qmat * np.sign(np.diag(rmat))[None, :]
        scores = f @ rot
        labels = repair_empty_clusters(
            np.argmax(scores, axis=1).astype(np.int64), c, scores=scores
        )
        prev = labels.copy()
        for _ in range(max_alt):
            labels = indicator_coordinate_descent(
                f @ rot, labels, c, max_sweeps=4
            )
            rot = nearest_orthogonal(f.T @ scaled_indicator(labels, c))
            if np.array_equal(labels, prev):
                break
            prev = labels.copy()
        obj = rotation_objective(f @ rot, labels, c)
        if np.isfinite(obj) and obj > best_obj:
            best_obj, best = obj, (rot, labels)
    return best[0], best[1], rng


def _noisy_embedding(n, c, seed):
    """An orthonormal ``(n, c)`` embedding of ``c`` overlapping clusters."""
    rng = np.random.default_rng(seed)
    truth = np.arange(n) % c
    rng.shuffle(truth)
    x = scaled_indicator(truth, c) + 0.5 * rng.normal(size=(n, c)) / np.sqrt(n)
    return np.linalg.qr(x)[0]


#: ``c = 4``: the subsample has 256 rows and is used once n > 1024.
_C = 4
_THRESHOLD = 4 * 256


class TestRestartSubsample:
    """Above the row threshold the restarts compete on a row subsample."""

    def test_threshold(self):
        assert discrete._restart_rows(_THRESHOLD, _C) is None
        rows = discrete._restart_rows(_THRESHOLD + 1, _C)
        assert rows.shape == (256,)
        assert np.all(np.diff(rows) > 0)
        assert discrete._restart_rows(8192, 16).shape == (512,)
        np.testing.assert_array_equal(
            discrete._restart_rows(8192, _C), discrete._restart_rows(8192, _C)
        )

    def test_below_threshold_is_the_exact_loop(self):
        f = _noisy_embedding(_THRESHOLD, _C, seed=1)
        rot, labels = rotation_initialize(f, _C, random_state=0)
        want_rot, want_labels, _ = _exact_rotation_initialize(f, _C)
        np.testing.assert_array_equal(rot, want_rot)
        np.testing.assert_array_equal(labels, want_labels)

    @pytest.mark.parametrize("n", [_THRESHOLD + 1, 8192])
    def test_caller_generator_draws_as_exact_path(self, n):
        f = _noisy_embedding(n, _C, seed=2)
        rng = np.random.default_rng(0)
        rotation_initialize(f, _C, n_restarts=4, random_state=rng)
        *_, exact_rng = _exact_rotation_initialize(f, _C, n_restarts=4)
        assert rng.bit_generator.state == exact_rng.bit_generator.state

    @pytest.mark.parametrize("n", [_THRESHOLD + 1, 8192])
    def test_deterministic_orthogonal_feasible(self, n):
        f = _noisy_embedding(n, _C, seed=3)
        rot, labels = rotation_initialize(f, _C, random_state=5)
        again_rot, again_labels = rotation_initialize(f, _C, random_state=5)
        np.testing.assert_array_equal(rot, again_rot)
        np.testing.assert_array_equal(labels, again_labels)
        np.testing.assert_allclose(rot.T @ rot, np.eye(_C), atol=1e-10)
        assert labels.shape == (n,)
        assert np.all(np.bincount(labels, minlength=_C) >= 1)

    @pytest.mark.parametrize("n", [_THRESHOLD + 1, 8192])
    def test_only_the_polish_descends_on_all_rows(self, n, monkeypatch):
        f = _noisy_embedding(n, _C, seed=4)
        rows = []
        real = discrete.indicator_coordinate_descent

        def spy(m, *args, **kwargs):
            rows.append(m.shape[0])
            return real(m, *args, **kwargs)

        monkeypatch.setattr(discrete, "indicator_coordinate_descent", spy)
        max_alt = 30
        rotation_initialize(f, _C, max_alt=max_alt, random_state=0)
        full = [r for r in rows if r == n]
        assert 1 <= len(full) <= max_alt
        assert set(rows) - {n} == {256}

    def test_span_records_subsample(self):
        with use_trace(Trace("init")) as trace:
            rotation_initialize(_noisy_embedding(2000, _C, 6), _C, random_state=0)
            rotation_initialize(_noisy_embedding(100, _C, 6), _C, random_state=0)
        sizes = [
            r.attributes["subsample"]
            for r in trace.spans
            if r.name == "rotation_initialize"
        ]
        assert sizes == [256, 100]
