"""Tests for repro.core.anchor_model (scalable UMSC variant)."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import repro.core.anchor_model as anchor_model
from repro.core.anchor_model import AnchorMVSC, _AnchorFactors, _AnchorStats
from repro.datasets import make_multiview_blobs
from repro.datasets.scenarios import get_scenario, stream_batches
from repro.exceptions import ValidationError
from repro.metrics import clustering_accuracy
from repro.observability import Trace, use_trace
from repro.robust import FaultSpec, inject_faults


@pytest.fixture(scope="module")
def easy_big():
    return make_multiview_blobs(
        500,
        4,
        view_dims=(12, 16),
        view_noise=(0.1, 0.2),
        view_distractors=(0.0, 0.0),
        view_outliers=(0.0, 0.0),
        confusion_schedule=[[], []],
        separation=7.0,
        random_state=3,
    )


class TestAnchorMVSC:
    def test_recovers_easy_clusters(self, easy_big):
        labels = AnchorMVSC(4, random_state=0).fit_predict(easy_big.views)
        assert clustering_accuracy(easy_big.labels, labels) > 0.9

    def test_no_empty_clusters(self, easy_big):
        labels = AnchorMVSC(4, random_state=1).fit_predict(easy_big.views)
        assert np.all(np.bincount(labels, minlength=4) >= 1)

    def test_deterministic(self, easy_big):
        a = AnchorMVSC(4, random_state=7).fit_predict(easy_big.views)
        b = AnchorMVSC(4, random_state=7).fit_predict(easy_big.views)
        np.testing.assert_array_equal(a, b)

    def test_explicit_anchor_count(self, easy_big):
        labels = AnchorMVSC(
            4, n_anchors=40, random_state=0
        ).fit_predict(easy_big.views)
        assert clustering_accuracy(easy_big.labels, labels) > 0.85

    def test_weighting_modes(self, easy_big):
        for mode in ("exponential", "parameter_free", "uniform"):
            labels = AnchorMVSC(
                4, weighting=mode, random_state=0
            ).fit_predict(easy_big.views)
            assert clustering_accuracy(easy_big.labels, labels) > 0.85

    def test_validation(self, easy_big):
        with pytest.raises(ValidationError):
            AnchorMVSC(0)
        with pytest.raises(ValidationError):
            AnchorMVSC(2, n_anchors=-1)
        with pytest.raises(ValidationError):
            AnchorMVSC(2, weighting="vibes")
        with pytest.raises(ValidationError, match="exceeds"):
            AnchorMVSC(10_000).fit_predict(easy_big.views)

    def test_too_few_anchor_columns_raise_eagerly(self, easy_big):
        # Two views of one anchor each cannot span three clusters.
        with pytest.raises(ValidationError, match="n_anchors=1"):
            AnchorMVSC(3, n_anchors=1, random_state=0).fit_predict(
                easy_big.views
            )

    def test_faster_than_dense_at_scale(self):
        import time

        from repro.core import UnifiedMVSC

        ds = make_multiview_blobs(
            900, 4, view_dims=(15, 15), separation=6.0, random_state=4
        )
        start = time.perf_counter()
        AnchorMVSC(4, random_state=0).fit_predict(ds.views)
        anchor_time = time.perf_counter() - start
        start = time.perf_counter()
        UnifiedMVSC(4, random_state=0).fit(ds.views)
        dense_time = time.perf_counter() - start
        assert anchor_time < dense_time


def _stream_data():
    return make_multiview_blobs(
        220,
        3,
        view_dims=(8, 12, 6),
        view_noise=(0.3, 0.6, 1.0),
        separation=3.0,
        random_state=5,
    )


def _assignments(views, anchors, k):
    return [
        anchor_model.anchor_assignment(x, a, k=k)
        for x, a in zip(views, anchors)
    ]


class TestGramPath:
    """The statistics-backed F- and w-steps against the stacked factor."""

    @pytest.mark.parametrize(
        "weighting", ["exponential", "parameter_free", "uniform"]
    )
    def test_embedding_matches_stacked_factor(self, weighting):
        views = _stream_data().views
        model = AnchorMVSC(3, n_anchors=20, weighting=weighting)
        anchors = [
            anchor_model.select_anchors(x, 20, random_state=0) for x in views
        ]
        z = _assignments(views, anchors, 5)
        stats = _AnchorStats.of(anchors, z)
        factors = [anchor_model.anchor_affinity_factor(zv) for zv in z]
        w = np.array([0.5, 0.3, 0.2])
        stacked = _AnchorFactors(stats, model, cold=factors)
        gram = _AnchorFactors(stats, model)
        f_stacked, _ = stacked.embed(w, None, None, None)
        f_gram, _ = gram.embed(w, None, None, None)
        # Equal up to column signs.
        np.testing.assert_allclose(
            np.abs(f_stacked.T @ f_gram), np.eye(3), atol=1e-10
        )
        np.testing.assert_allclose(stacked.multipliers, gram.multipliers)
        reference = np.maximum(
            [3 - np.sum((b.T @ f_stacked) ** 2) for b in factors], 0.0
        )
        np.testing.assert_allclose(
            gram.view_costs(f_gram), reference, rtol=1e-10, atol=1e-12
        )

    def test_fold_in_view_norms_from_anchor_space(self):
        # ||B_v^T F||^2 from C W against the scan of every row, Z^T F.
        views = _stream_data().views
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit([x[:100] for x in views])
        model.partial_fit([x[100:112] for x in views])
        state = model._stream
        rep = _AnchorFactors(state["stats"], model, warm=state["warm"])
        f, _ = rep.embed(np.asarray(state["weights"]), None, None, None)
        assert rep._embedded[2] is not None
        proj = (state["stats"].z.T @ f) * rep._inv_sqrt[:, None]
        scanned = np.bincount(
            rep._view_of, weights=np.sum(proj**2, axis=1), minlength=3
        )
        np.testing.assert_allclose(rep._view_norms(f), scanned, rtol=1e-12)

    def test_fold_ins_accumulate_exact_statistics(self):
        views = _stream_data().views
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit([x[:100] for x in views])
        for start in range(100, 220, 12):
            model.partial_fit([x[start:start + 12] for x in views])
        assert model.n_seen_ == 220
        stats = model._stream["stats"]
        rebuilt = _AnchorStats.of(
            stats.anchors, _assignments(views, stats.anchors, 5)
        )
        np.testing.assert_allclose(stats.gram, rebuilt.gram, rtol=1e-12)
        np.testing.assert_allclose(stats.mass, rebuilt.mass, rtol=1e-12)
        np.testing.assert_allclose(
            stats.z.toarray(), rebuilt.z.toarray(), rtol=1e-12
        )
        # At most k nonzeros per row within every view's block.
        for v in range(len(views)):
            block = stats.z[:, 20 * v:20 * (v + 1)].tocsr()
            assert np.diff(block.indptr).max() <= 5

    def test_fold_in_builds_no_factor_or_dense_stack(self, monkeypatch):
        views = _stream_data().views
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit([x[:200] for x in views])

        def forbidden(*args, **kwargs):
            raise AssertionError("fold-in took the dense stacked-factor path")

        monkeypatch.setattr(anchor_model, "anchor_affinity_factor", forbidden)
        monkeypatch.setattr(anchor_model, "top_left_singular", forbidden)
        shapes = []
        for name in ("hstack", "vstack", "concatenate"):
            stack = getattr(np, name)

            def recorded(*args, _stack=stack, **kwargs):
                out = _stack(*args, **kwargs)
                shapes.append(np.shape(out))
                return out

            monkeypatch.setattr(np, name, recorded)
        model.partial_fit([x[200:] for x in views])
        # Neither one view's (n_seen, m) Z nor the (n_seen, V m) stack.
        assert shapes
        assert not any(s[0] == 220 and s[1:] in ((20,), (60,)) for s in shapes)

    def test_fold_in_measures_batch_distances_once(self, monkeypatch):
        views = _stream_data().views
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit([x[:200] for x in views])
        batch = [x[200:] for x in views]
        distance = anchor_model.pairwise_sq_euclidean
        calls = []

        def spy(x, y=None, **kwargs):
            calls.append(np.shape(x)[0])
            return distance(x, y, **kwargs)

        import repro.graph.anchor as graph_anchor

        for module in (anchor_model, graph_anchor):
            monkeypatch.setattr(module, "pairwise_sq_euclidean", spy)
        model.partial_fit(batch)
        assert calls == [20, 20, 20]
        # Z and the coverage both come from the shared distances, with the
        # bits of computing each from scratch.
        anchors = model._stream["stats"].anchors
        want = np.mean(
            [
                float(distance(x, a).min(axis=1).mean())
                for x, a in zip(batch, anchors)
            ]
        )
        assert model.batch_cost_ == float(want)
        np.testing.assert_array_equal(
            model._stream["stats"].z[200:].toarray(),
            np.hstack(_assignments(batch, anchors, 5)),
        )

    @pytest.mark.parametrize("reset", ["refit", "fallback_refit"])
    def test_reselected_anchors_start_without_the_old_basis(
        self, monkeypatch, reset
    ):
        views = _stream_data().views
        solve = anchor_model.gram_top_eigenpairs
        solves = []  # (warm start in, warm start out) per Gram solve
        warm_starts = [True]

        def spy(gram, scale, n_pairs, warm=None):
            out = solve(gram, scale, n_pairs, warm if warm_starts[0] else None)
            solves.append((warm, out[2]))
            return out

        monkeypatch.setattr(anchor_model, "gram_top_eigenpairs", spy)
        fault = FaultSpec("streaming.partial_fit", mode="raise", times=None)

        def stream():
            solves.clear()
            model = AnchorMVSC(3, n_anchors=20, random_state=0)
            model.partial_fit([x[:100] for x in views])
            model.partial_fit([x[100:112] for x in views])
            stale, first = solves[-1][1], len(solves)
            if reset == "refit":
                model.refit()
            else:
                with inject_faults(fault):
                    model.partial_fit([x[112:124] for x in views])
            last = len(solves)
            labels = model.partial_fit([x[124:136] for x in views])
            return labels, stale, solves[first:last], solves[last][0]

        labels, stale, reset_solves, start = stream()
        # The re-selected anchors' first Gram solve starts from scratch;
        # from there on each solve, the next fold-in's first included,
        # starts from the basis the one before it left, never the old
        # anchors' basis.
        assert stale is not None
        scratch = [i for i, (w, _) in enumerate(reset_solves) if w is None]
        chain = reset_solves[scratch[-1]:] + [(start, None)]
        for (_, left), (warm, _) in zip(chain, chain[1:]):
            assert warm is left and warm is not stale
        assert not np.allclose(start.basis, stale.basis)
        warm_starts[0] = False
        cold_labels, *_ = stream()
        np.testing.assert_array_equal(labels, cold_labels)

    def test_warm_eigengap_matches_dense_solve(self, monkeypatch):
        scenario = get_scenario("clean").with_size(20)
        batches = [
            b.views for b in stream_batches(scenario, 30, random_state=1)
        ]
        initial = [np.vstack([b[v] for b in batches[:20]]) for v in range(3)]
        plain = AnchorMVSC(4, random_state=0)
        plain_labels = [plain.partial_fit(initial)]
        plain_labels += [plain.partial_fit(b) for b in batches[20:]]

        solve = anchor_model.gram_top_eigenpairs
        dense_gaps = []

        def spy(gram, scale, n_pairs, warm=None):
            size = gram.shape[0]
            top = scipy.linalg.eigh(
                gram * np.multiply.outer(scale, scale),
                eigvals_only=True,
                subset_by_index=[size - n_pairs - 1, size - 1],
            )
            dense_gaps.append(top[1] - top[0])
            return solve(gram, scale, n_pairs, warm)

        model = AnchorMVSC(4, random_state=0)
        trace = Trace("eigengap")
        with use_trace(trace):
            labels = [model.partial_fit(initial)]
            monkeypatch.setattr(anchor_model, "gram_top_eigenpairs", spy)
            for batch in batches[20:]:
                before = trace.metrics.snapshot()["counters"]
                labels.append(model.partial_fit(batch))
                after = trace.metrics.snapshot()["counters"]
                # Both of the fold-in's solves took the warm path ...
                for path, solves in (("warm", 2), ("dense", 0)):
                    key = f"anchor.gram.{path}"
                    assert after.get(key, 0) == before.get(key, 0) + solves
                # ... and the gap it published is the dense solve's.
                gap = trace.metrics.snapshot()["gauges"]["health.eigengap"]
                assert gap == pytest.approx(dense_gaps[-1], abs=1e-8)
        for a, b in zip(plain_labels, labels):
            np.testing.assert_array_equal(a, b)


def _scipy_statistics(assignments):
    """The statistics as sparse products: the formulation pinned below."""
    z = sp.hstack(
        [sp.csr_array(np.asarray(a, np.float64)) for a in assignments],
        format="csr",
    )
    return z, (z.T @ z).toarray(), np.asarray(z.sum(axis=0))


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_statistics(stats, z, gram, mass):
    for got, want in (
        (stats.z.data, z.data),
        (stats.z.indices, z.indices),
        (stats.z.indptr, z.indptr),
        (stats.gram, gram),
        (stats.mass, mass),
    ):
        _assert_same_bytes(got, want)
    assert stats.z.shape == z.shape


class TestStatisticsBytes:
    """``_AnchorStats`` builds the bits of the scipy formulation."""

    @staticmethod
    def _views(case, n):
        views = make_multiview_blobs(
            n, 4, view_dims=(8, 12, 6), random_state=11
        ).views
        m, k = (6, 6) if case == "k_equals_m" else (100, 5)
        anchors = [
            anchor_model.select_anchors(x, m, random_state=0) for x in views
        ]
        assignments = _assignments(views, anchors, k)
        if case == "short_rows":
            # Every third row of every view loses its largest weight.
            for a in assignments:
                a[np.arange(0, n, 3), np.argmax(a[::3], axis=1)] = 0.0
        return anchors, assignments

    @pytest.mark.parametrize("case", ["can", "short_rows", "k_equals_m"])
    def test_cold_and_batches_match_scipy(self, case):
        anchors, assignments = self._views(case, 2028)
        size = sum(a.shape[1] for a in assignments)
        cold = [a[:2000] for a in assignments]
        per_row = np.count_nonzero(np.hstack(cold), axis=1)
        width = per_row.max()
        # The cold input spans several pair chunks (with k == m rows are
        # nearly dense) and, where rows are sparse, several row chunks.
        assert 2000 > 2 * (anchor_model._PAIR_CHUNK // width**2)
        if case != "k_equals_m":
            assert 2000 > 2 * (anchor_model._ENTRY_CHUNK // size)
        if case == "short_rows":
            assert per_row.min() < width

        stats = _AnchorStats.of(anchors, cold)
        z, gram, mass = _scipy_statistics(cold)
        _assert_same_statistics(stats, z, gram, mass)
        for lo, hi in ((2000, 2001), (2001, 2008), (2008, 2028)):
            batch = [a[lo:hi] for a in assignments]
            stats = stats.extend(batch)
            bz, bgram, bmass = _scipy_statistics(batch)
            z, gram, mass = (
                sp.vstack([z, bz], format="csr"), gram + bgram, mass + bmass
            )
            _assert_same_statistics(stats, z, gram, mass)

    def test_fold_in_makes_no_sparse_stack_or_product(self, monkeypatch):
        import scipy.sparse._compressed as compressed

        views = _stream_data().views
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit([x[:200] for x in views])

        def forbidden(*args, **kwargs):
            raise AssertionError("fold-in called a sparse stack or product")

        for owner, name in (
            (sp, "hstack"),
            (sp, "vstack"),
            (compressed._cs_matrix, "_matmul_sparse"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        raw = [b for blocks in model._stream["views"].blocks for b in blocks]
        batch = [x[200:] for x in views]
        stacked = []
        for name in ("hstack", "vstack", "concatenate"):
            stack = getattr(np, name)

            def recorded(arrays, *args, _stack=stack, **kwargs):
                stacked.extend(
                    a for a in arrays if isinstance(a, np.ndarray)
                )
                return _stack(arrays, *args, **kwargs)

            monkeypatch.setattr(np, name, recorded)
        model.partial_fit(batch)
        assert stacked
        assert not any(
            np.shares_memory(a, x) for a in stacked for x in raw + batch
        )
        assert model.n_seen_ == 220


class TestStreamRows:
    """The stream keeps its raw rows as blocks and commits each once."""

    @staticmethod
    def _batches():
        views = _stream_data().views
        edges = [0, 100, 130, 150, 170, 220]
        return [[x[lo:hi] for x in views] for lo, hi in zip(edges, edges[1:])]

    def test_fold_in_copies_no_stream_rows(self):
        batches = self._batches()
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit(batches[0])
        for batch in batches[1:]:
            before = model._stream["views"].blocks
            model.partial_fit(batch)
            after = model._stream["views"].blocks
            for old, new, x in zip(before, after, batch):
                assert len(new) == len(old) + 1
                assert all(a is b for a, b in zip(old, new))
                np.testing.assert_array_equal(new[-1], x)
        train = model.to_artifact().train_views
        for v, got in enumerate(train):
            _assert_same_bytes(got, np.vstack([b[v] for b in batches]))

    def test_fallback_refit_sees_the_union_once(self, monkeypatch):
        batches = self._batches()
        model = AnchorMVSC(3, n_anchors=20, random_state=0)
        model.partial_fit(batches[0])
        model.partial_fit(batches[1])
        earlier = model._stream["views"].blocks
        seen = []
        full_fit = model._full_fit

        def spy(views):
            seen.append(views)
            return full_fit(views)

        monkeypatch.setattr(model, "_full_fit", spy)
        trace = Trace("fallback")
        fault = FaultSpec("streaming.partial_fit", mode="raise", times=None)
        with use_trace(trace), inject_faults(fault):
            labels = model.partial_fit(batches[2])
        counters = trace.metrics.snapshot()["counters"]
        assert counters["streaming.partial_fit.refit_fallback"] == 1
        assert len(seen) == 1
        for v, got in enumerate(seen[0]):
            _assert_same_bytes(
                got, np.vstack([b[v] for b in batches[:3]])
            )
        blocks = model._stream["views"].blocks
        for old, new, x in zip(earlier, blocks, batches[2]):
            assert len(new) == 3
            assert all(a is b for a, b in zip(old, new))
            np.testing.assert_array_equal(new[-1], x)
        assert labels.shape == (150,) and model.n_seen_ == 150


def test_anchor_hot_sites_are_noops_when_disarmed(monkeypatch):
    import repro.graph.anchor as graph_anchor
    from repro.observability.trace import NOOP_SPAN, hot_span

    opened = []

    def spy(name, **attributes):
        handle = hot_span(name, **attributes)
        opened.append((name, handle is NOOP_SPAN))
        return handle

    for module in (anchor_model, graph_anchor):
        monkeypatch.setattr(module, "hot_span", spy)
    views = _stream_data().views
    model = AnchorMVSC(3, n_anchors=20, random_state=0)
    model.partial_fit([x[:200] for x in views])
    model.partial_fit([x[200:] for x in views])
    assert {name for name, _ in opened} == {
        "anchor.assign",
        "anchor.gram",
        "anchor.stats",
    }
    assert all(noop for _, noop in opened)
