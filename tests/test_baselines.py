"""SSSP kernels and Brandes as independent cross-checks."""

import numpy as np
import pytest
import scipy.sparse.csgraph

from repro.baselines import bellman_ford_sssp, dijkstra_sssp
from repro.baselines.brandes import brandes_bc, brandes_single_source
from repro.baselines.sssp import bfs_sssp
from repro.graphs import uniform_random_graph_nm, with_random_weights

from conftest import nx_reference_bc


def _cmp_dist(a, b):
    return np.allclose(np.nan_to_num(a, posinf=-1), np.nan_to_num(b, posinf=-1))


class TestSSSP:
    @pytest.mark.parametrize("seed", range(3))
    def test_bf_equals_dijkstra_weighted(self, seed):
        g = with_random_weights(
            uniform_random_graph_nm(40, 4.0, seed=seed), 1, 9, seed=seed
        )
        d1, s1 = bellman_ford_sssp(g, 0)
        d2, s2 = dijkstra_sssp(g, 0)
        assert _cmp_dist(d1, d2) and np.allclose(s1, s2)

    def test_bf_equals_bfs_unweighted(self, small_undirected):
        d1, s1 = bellman_ford_sssp(small_undirected, 3)
        d2, s2 = bfs_sssp(small_undirected, 3)
        assert _cmp_dist(d1, d2) and np.allclose(s1, s2)

    def test_distances_match_scipy(self, small_directed):
        d, _ = dijkstra_sssp(small_directed, 1)
        ref = scipy.sparse.csgraph.dijkstra(
            small_directed.adjacency_scipy(), indices=1, directed=True
        )
        assert _cmp_dist(d, ref)

    def test_multiplicity_diamond(self, diamond_graph):
        for fn in (bfs_sssp, dijkstra_sssp, bellman_ford_sssp):
            d, s = fn(diamond_graph, 0)
            assert d[3] == 2.0 and s[3] == 2.0, fn.__name__


class TestBrandes:
    def test_matches_networkx(self, small_weighted_directed):
        got = brandes_bc(small_weighted_directed)
        assert np.allclose(got, nx_reference_bc(small_weighted_directed), atol=1e-8)

    def test_single_source_no_self_dependency(self, small_undirected):
        delta = brandes_single_source(small_undirected, 4)
        assert delta[4] == 0.0

    def test_sources_subset_additivity(self, small_undirected):
        a = brandes_bc(small_undirected, sources=np.array([0, 1]))
        b = brandes_bc(small_undirected, sources=np.array([2]))
        ab = brandes_bc(small_undirected, sources=np.array([0, 1, 2]))
        assert np.allclose(a + b, ab, atol=1e-10)
