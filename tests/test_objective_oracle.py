"""The objective ``J`` every solver records, checked against a dense oracle.

``J = tr(F^T A(w) F) + lam ||G(Y) - F R||^2``.  Each graph representation
computes only the trace term, on the form it stores (dense affinities, CSR
graphs, anchor factors); :func:`oracle_trace` forms ``A(w)`` densely from
the per-view affinities with numpy alone, so it shares no code with them.
"""

import warnings

import numpy as np
import pytest

from repro.datasets import make_multiview_blobs
from repro.exceptions import ConvergenceWarning, MonotonicityWarning
from repro.observability import TraceRecorder

GAMMA = 2.0
C = 3


def oracle_trace(affinities, w, f, consensus=0.0):
    """``tr(F^T A(w) F)`` and the fused degrees, from dense affinities.

    ``A(w) = D^{-1/2} (D - W) D^{-1/2} - consensus sum_v m_v U_v U_v^T``
    with ``W = sum_v m_v W_v``, ``m = w^gamma / sum(w^gamma)``, ``D`` the
    degrees of ``W`` and ``U_v`` the bottom-``c`` eigenvectors of view
    ``v``'s own symmetric normalized Laplacian.
    """
    m = w**GAMMA / np.sum(w**GAMMA)

    def normalized_laplacian(a):
        d = a.sum(axis=1)
        s = 1.0 / np.sqrt(d)
        return s[:, None] * (np.diag(d) - a) * s[None, :], d

    fused = sum(m_v * a for m_v, a in zip(m, affinities))
    op, degrees = normalized_laplacian(fused)
    if consensus > 0:
        for m_v, a in zip(m, affinities):
            u = np.linalg.eigh(normalized_laplacian(a)[0])[1][:, : f.shape[1]]
            op = op - consensus * m_v * (u @ u.T)
    return float(np.trace(f.T @ op @ f)), degrees


@pytest.fixture(params=[0, 1, 2])
def problem(request):
    """Small blobs, random simplex weights and a random orthonormal F."""
    seed = request.param
    ds = make_multiview_blobs(36, C, view_dims=(5, 7), random_state=seed)
    rng = np.random.default_rng(seed)
    f = np.linalg.qr(rng.normal(size=(36, C)))[0]
    return ds.views, rng.dirichlet(np.ones(2)), f


def test_dense_trace_matches_oracle(problem):
    from repro.core.config import UMSCConfig
    from repro.core.model import _DenseAffinities
    from repro.graph.affinity import build_view_affinity

    views, w, f = problem
    affinities = [build_view_affinity(x, k=8) for x in views]
    config = UMSCConfig(n_clusters=C, gamma=GAMMA, consensus=0.5)
    rep = _DenseAffinities.build(affinities, config)
    expected, _ = oracle_trace(affinities, w, f, consensus=0.5)
    assert rep.trace(w, f) == pytest.approx(expected, rel=1e-10)


def test_sparse_trace_matches_oracle(problem):
    from repro.core.sparse_model import SparseMVSC, _SparseGraphs
    from repro.graph.sparse import sparse_knn_affinity, sparse_laplacian

    views, w, f = problem
    affinities = [sparse_knn_affinity(x, k=8) for x in views]
    rep = _SparseGraphs(
        affinities,
        [sparse_laplacian(a) for a in affinities],
        SparseMVSC(C, gamma=GAMMA),
    )
    expected, _ = oracle_trace([a.toarray() for a in affinities], w, f)
    assert rep.trace(w, f) == pytest.approx(expected, rel=1e-10)


def test_anchor_trace_matches_oracle(problem):
    from repro.core.anchor_model import AnchorMVSC, _AnchorFactors, _AnchorStats
    from repro.graph.anchor import anchor_assignment, select_anchors

    views, w, f = problem
    anchors = [select_anchors(x, 12, random_state=0) for x in views]
    zs = [anchor_assignment(x, a, k=4) for x, a in zip(views, anchors)]
    rep = _AnchorFactors(_AnchorStats.of(anchors, zs), AnchorMVSC(C, gamma=GAMMA))
    # The view graphs B_v B_v^T = Z_v diag(Z_v^T 1)^{-1} Z_v^T, built dense.
    graphs = []
    for z in zs:
        mass = z.sum(axis=0)
        inv = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0)
        graphs.append((z * inv) @ z.T)
    expected, degrees = oracle_trace(graphs, w, f)
    np.testing.assert_allclose(degrees, 1.0, rtol=1e-12)
    assert rep.trace(w, f) == pytest.approx(expected, rel=1e-10)


def _umsc(views, recorder):
    from repro.core.model import UnifiedMVSC

    UnifiedMVSC(C, max_iter=8, random_state=0, callbacks=[recorder]).fit(views)


def _sparse(views, recorder):
    from repro.core.sparse_model import SparseMVSC

    SparseMVSC(C, random_state=0, callbacks=[recorder]).fit_predict(views)


def _anchor(stream):
    """An AnchorMVSC fit on the first rows; ``stream`` names the step whose
    events are recorded: the cold fit, a fold-in or a partial refit."""

    def run(views, recorder):
        from repro.core.anchor_model import AnchorMVSC

        model = AnchorMVSC(C, random_state=0)
        model.callbacks = (recorder,) if stream == "cold" else ()
        model.fit_predict([x[:60] for x in views])
        model.callbacks = (recorder,)
        if stream == "fold-in":
            model.partial_fit([x[60:] for x in views])
        elif stream == "partial_refit":
            model.partial_refit()

    return run


@pytest.mark.parametrize(
    "solver, fit",
    [
        ("UnifiedMVSC", _umsc),
        ("SparseMVSC", _sparse),
        ("AnchorMVSC", _anchor("cold")),
        ("AnchorMVSC", _anchor("fold-in")),
        ("AnchorMVSC", _anchor("partial_refit")),
    ],
    ids=["umsc", "sparse", "anchor-cold", "anchor-fold-in", "anchor-refit"],
)
def test_every_solver_records_a_finite_objective(solver, fit):
    views = make_multiview_blobs(90, C, view_dims=(6, 8), random_state=4).views
    recorder = TraceRecorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(views, recorder)
    assert recorder.events
    for event in recorder.events:
        assert event.solver == solver
        assert np.isfinite(event.objective)
        assert np.isfinite(event.objective_pre_reweight)
    if solver != "UnifiedMVSC":
        kinds = (MonotonicityWarning, ConvergenceWarning)
        assert not [w for w in caught if issubclass(w.category, kinds)]
