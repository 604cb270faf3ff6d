"""The extensibility showcase: BFS, SSSP, components, triangles — both
engines, against scipy/networkx oracles."""

import numpy as np
import pytest
import scipy.sparse.csgraph

from repro.apps import (
    bfs_levels,
    connected_components,
    sssp_distances,
    triangle_count,
    widest_path_widths,
)
from repro.dist import DistributedEngine
from repro.graphs import (
    Graph,
    rmat_graph,
    uniform_random_graph_nm,
    with_random_weights,
)
from repro.machine import Machine


def _cmp(a, b):
    return np.allclose(np.nan_to_num(a, posinf=-1), np.nan_to_num(b, posinf=-1))


class TestBFS:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_scipy(self, directed):
        g = uniform_random_graph_nm(50, 4.0, directed=directed, seed=61)
        got = bfs_levels(g, np.arange(5))
        ref = scipy.sparse.csgraph.shortest_path(
            g.adjacency_scipy(), unweighted=True, indices=np.arange(5),
            directed=directed,
        )
        assert _cmp(got, ref)

    def test_weights_ignored(self, small_weighted):
        got = bfs_levels(small_weighted, [0])
        ref = scipy.sparse.csgraph.shortest_path(
            small_weighted.adjacency_scipy(), unweighted=True, indices=0
        )
        assert _cmp(got[0], ref)

    def test_distributed(self, small_undirected):
        ref = bfs_levels(small_undirected, [0, 1])
        eng = DistributedEngine(Machine(4))
        got = bfs_levels(small_undirected, [0, 1], engine=eng)
        assert _cmp(got, ref)

    def test_empty_sources_raises(self, small_undirected):
        with pytest.raises(ValueError, match="empty"):
            bfs_levels(small_undirected, [])


class TestSSSP:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_scipy(self, directed):
        g = uniform_random_graph_nm(40, 4.0, directed=directed, seed=63)
        g = with_random_weights(g, 1, 9, seed=63)
        got = sssp_distances(g, [0, 3, 7])
        ref = scipy.sparse.csgraph.shortest_path(
            g.adjacency_scipy(), indices=[0, 3, 7], directed=directed
        )
        assert _cmp(got, ref)

    def test_distributed(self, small_weighted):
        ref = sssp_distances(small_weighted, [2])
        eng = DistributedEngine(Machine(4))
        got = sssp_distances(small_weighted, [2], engine=eng)
        assert _cmp(got, ref)

    def test_max_iterations_guard(self, small_weighted):
        with pytest.raises(RuntimeError, match="converge"):
            sssp_distances(small_weighted, [0], max_iterations=1)


class TestConnectedComponents:
    def test_two_components(self):
        g = Graph(6, np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]))
        labels = connected_components(g)
        assert list(labels) == [0, 0, 0, 3, 3, 3]

    def test_matches_scipy(self, small_undirected):
        labels = connected_components(small_undirected)
        _, ref = scipy.sparse.csgraph.connected_components(
            small_undirected.adjacency_scipy(), directed=False
        )
        # same partition (label values differ)
        for comp in np.unique(ref):
            members = ref == comp
            assert len(np.unique(labels[members])) == 1

    def test_directed_weak(self):
        g = Graph(4, np.array([0, 2]), np.array([1, 3]), directed=True)
        labels = connected_components(g)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_directed_pins_one_adjacency(self):
        # the symmetrized view is cached on the graph, so repeated calls on
        # one engine share its pinned adjacency instead of adding one each
        g = rmat_graph(7, 8, seed=1, directed=True)
        ref = connected_components(g)
        machine = Machine(4, faults="off", elastic="off", memory_words="off")
        engine = DistributedEngine(machine)
        runs = [connected_components(g, engine=engine) for _ in range(3)]
        for labels in runs:
            assert np.array_equal(labels, ref)
        assert len(engine._adjacency) == 1
        assert g.undirected() is g.undirected()

    def test_distributed(self, small_undirected):
        ref = connected_components(small_undirected)
        got = connected_components(
            small_undirected, engine=DistributedEngine(Machine(4))
        )
        assert np.array_equal(ref, got)


class TestTriangles:
    def test_single_triangle(self):
        g = Graph(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
        assert triangle_count(g) == 1

    def test_clique(self):
        n = 6
        src, dst = np.triu_indices(n, k=1)
        g = Graph(n, src, dst)
        assert triangle_count(g) == n * (n - 1) * (n - 2) // 6

    def test_triangle_free(self, path_graph):
        assert triangle_count(path_graph) == 0

    def test_matches_networkx(self, small_undirected):
        import networkx as nx

        ref = sum(nx.triangles(small_undirected.to_networkx()).values()) // 3
        assert triangle_count(small_undirected) == ref

    def test_distributed(self, small_undirected):
        ref = triangle_count(small_undirected)
        got = triangle_count(
            small_undirected, engine=DistributedEngine(Machine(4))
        )
        assert got == ref


def widest_oracle(graph, source):
    """Modified Dijkstra maximizing the bottleneck capacity."""
    import heapq

    adj = graph.adjacency_scipy()
    width = np.full(graph.n, -np.inf)
    width[source] = np.inf
    heap = [(-np.inf, source)]  # max-heap via negation
    done = np.zeros(graph.n, dtype=bool)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    while heap:
        negw, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for pos in range(indptr[u], indptr[u + 1]):
            v = indices[pos]
            cand = min(width[u], data[pos])
            if cand > width[v]:
                width[v] = cand
                heapq.heappush(heap, (-cand, v))
    return width


class TestWidestPath:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_oracle(self, directed):
        g = uniform_random_graph_nm(40, 4.0, directed=directed, seed=67)
        g = with_random_weights(g, 1, 20, seed=67)
        got = widest_path_widths(g, [0, 5])
        for row, s in enumerate((0, 5)):
            ref = widest_oracle(g, s)
            assert np.allclose(
                np.nan_to_num(got[row], posinf=1e18, neginf=-1e18),
                np.nan_to_num(ref, posinf=1e18, neginf=-1e18),
            )

    def test_series_parallel(self):
        """Two routes: capacity 5 direct, capacity min(8, 7) = 7 via middle."""
        g = Graph(
            3,
            np.array([0, 0, 1]),
            np.array([2, 1, 2]),
            np.array([5.0, 8.0, 7.0]),
        )
        got = widest_path_widths(g, [0])
        assert got[0][2] == 7.0

    def test_distributed(self, small_weighted):
        ref = widest_path_widths(small_weighted, [1])
        got = widest_path_widths(
            small_weighted, [1], engine=DistributedEngine(Machine(4))
        )
        assert np.allclose(
            np.nan_to_num(got, posinf=1e18, neginf=-1e18),
            np.nan_to_num(ref, posinf=1e18, neginf=-1e18),
        )

    def test_empty_sources_raises(self, small_weighted):
        with pytest.raises(ValueError, match="empty"):
            widest_path_widths(small_weighted, [])
