"""Tests for repro.graph.connectivity."""

import numpy as np

from repro.graph.connectivity import connected_components


def _block_graph(sizes):
    """Disjoint cliques of the given sizes."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for s in sizes:
        w[start : start + s, start : start + s] = 1.0
        start += s
    np.fill_diagonal(w, 0.0)
    return w


class TestConnectedComponents:
    def test_single_clique(self):
        labels = connected_components(_block_graph([5]))
        assert set(labels) == {0}

    def test_three_components(self):
        labels = connected_components(_block_graph([3, 4, 2]))
        assert labels.max() + 1 == 3
        np.testing.assert_array_equal(labels[:3], 0)
        np.testing.assert_array_equal(labels[3:7], 1)
        np.testing.assert_array_equal(labels[7:], 2)

    def test_numbered_by_first_appearance(self):
        labels = connected_components(_block_graph([1, 1, 1]))
        np.testing.assert_array_equal(labels, [0, 1, 2])

    def test_bridge_merges_components(self):
        w = _block_graph([3, 3])
        w[0, 5] = w[5, 0] = 0.5
        assert connected_components(w).max() == 0

    def test_tolerance_threshold(self):
        w = _block_graph([2, 2])
        w[0, 2] = w[2, 0] = 1e-6
        assert connected_components(w, tol=0.0).max() == 0
        assert connected_components(w, tol=1e-3).max() == 1

    def test_isolated_vertices(self):
        w = np.zeros((4, 4))
        labels = connected_components(w)
        assert labels.max() + 1 == 4

    def test_directed_edges_treated_undirected(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0  # asymmetric entry
        labels = connected_components(w)
        assert labels[0] == labels[1] != labels[2]


def isolated_vertices(w, *, tol=0.0):
    """Vertices :func:`connected_components` leaves alone in their component."""
    labels = connected_components(w, tol=tol)
    return np.flatnonzero(np.bincount(labels)[labels] == 1)


class TestIsolatedVertices:
    """An isolated vertex is a component of its own."""

    def test_none_isolated(self):
        assert isolated_vertices(_block_graph([4])).size == 0

    def test_all_isolated(self):
        np.testing.assert_array_equal(
            isolated_vertices(np.zeros((3, 3))), [0, 1, 2]
        )

    def test_detects_zeroed_vertex(self):
        w = _block_graph([5])
        w[2, :] = 0.0
        w[:, 2] = 0.0
        np.testing.assert_array_equal(isolated_vertices(w), [2])

    def test_diagonal_ignored(self):
        # A self-loop is not an incident edge: the vertex stays isolated.
        w = np.zeros((3, 3))
        w[0, 0] = 5.0
        w[1, 2] = w[2, 1] = 1.0
        np.testing.assert_array_equal(isolated_vertices(w), [0])

    def test_asymmetric_edge_counts(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0  # edge in one direction only
        np.testing.assert_array_equal(isolated_vertices(w), [2])

    def test_tolerance_threshold(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 1e-6
        assert isolated_vertices(w, tol=0.0).size == 0
        np.testing.assert_array_equal(
            isolated_vertices(w, tol=1e-3), [0, 1]
        )

    def test_consistent_with_components(self):
        # The vertices the Laplacian sees with zero degree are exactly the
        # singleton components.
        w = _block_graph([3, 1, 2])  # the singleton block is isolated
        np.testing.assert_array_equal(
            isolated_vertices(w), np.flatnonzero(w.sum(axis=1) == 0)
        )
