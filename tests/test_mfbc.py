"""MFBC (Algorithm 3) end to end against the networkx/Brandes oracles."""

import numpy as np
import pytest

from repro.baselines import brandes_bc
from repro.core import betweenness_centrality, mfbc
from repro.graphs import (
    Graph,
    rmat_graph,
    snap_standin,
    uniform_random_graph_nm,
    with_random_weights,
)

from conftest import nx_reference_bc


class TestCorrectness:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_networkx(self, directed, weighted):
        g = uniform_random_graph_nm(45, 4.0, directed=directed, seed=17)
        if weighted:
            g = with_random_weights(g, 1, 10, seed=17)
        res = mfbc(g, batch_size=9)
        assert np.allclose(res.scores, nx_reference_bc(g), atol=1e-8)

    def test_matches_own_brandes(self, small_weighted_directed):
        res = mfbc(small_weighted_directed, batch_size=8)
        assert np.allclose(res.scores, brandes_bc(small_weighted_directed), atol=1e-8)

    def test_rmat_graph(self):
        g = rmat_graph(6, 4, seed=5)
        res = mfbc(g)
        assert np.allclose(res.scores, nx_reference_bc(g), atol=1e-8)

    def test_snap_standin_subset_sources(self):
        g = snap_standin("cit", scale_offset=-6, seed=2)
        sources = np.arange(0, g.n, max(g.n // 20, 1))
        res = mfbc(g, batch_size=8, sources=sources)
        ref = brandes_bc(g, sources=sources)
        assert np.allclose(res.scores, ref, atol=1e-8)

    def test_disconnected_graph(self):
        g = Graph(6, np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]))
        res = mfbc(g)
        assert np.allclose(res.scores, nx_reference_bc(g), atol=1e-10)


class TestAnalyticGraphs:
    def test_path(self, path_graph):
        # ordered-pair BC on a path: vertex i mediates 2·i·(n-1-i) pairs
        res = mfbc(path_graph)
        expect = [2 * i * (4 - i) for i in range(5)]
        assert np.allclose(res.scores, expect)

    def test_star(self):
        n = 8
        g = Graph(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
        res = mfbc(g)
        # centre mediates all (n-1)(n-2) ordered leaf pairs
        assert res.scores[0] == pytest.approx((n - 1) * (n - 2))
        assert np.allclose(res.scores[1:], 0.0)

    def test_clique_all_zero(self):
        n = 6
        src, dst = np.triu_indices(n, k=1)
        g = Graph(n, src, dst)
        res = mfbc(g)
        assert np.allclose(res.scores, 0.0)

    def test_cycle(self):
        n = 7
        g = Graph(n, np.arange(n), (np.arange(n) + 1) % n)
        res = mfbc(g)
        # symmetry: all scores equal
        assert np.allclose(res.scores, res.scores[0])
        assert np.allclose(res.scores, nx_reference_bc(g), atol=1e-10)

    def test_weighted_reroute(self):
        """A heavy edge is bypassed via an intermediate vertex, which then
        earns all the centrality."""
        g = Graph(
            3,
            np.array([0, 0, 1]),
            np.array([2, 1, 2]),
            np.array([10.0, 1.0, 1.0]),
        )
        res = mfbc(g)
        assert res.scores[1] == pytest.approx(2.0)  # (0,2) and (2,0)


class TestBatching:
    @pytest.mark.parametrize("nb", [1, 3, 7, 40])
    def test_batch_size_invariance(self, small_undirected, nb):
        ref = mfbc(small_undirected, batch_size=small_undirected.n).scores
        got = mfbc(small_undirected, batch_size=nb).scores
        assert np.allclose(got, ref, atol=1e-8)

    def test_bad_batch_size_raises(self, small_undirected):
        with pytest.raises(ValueError, match="batch_size"):
            mfbc(small_undirected, batch_size=0)

    def test_max_batches_partial(self, small_undirected):
        res = mfbc(small_undirected, batch_size=10, max_batches=2)
        assert res.stats.sources_processed == 20

    def test_default_batch_size(self):
        from repro.core.mfbc import default_batch_size

        g = uniform_random_graph_nm(200, 6.0, seed=0)
        nb = default_batch_size(g)
        assert 1 <= nb <= g.n

    def test_stats_summary(self, small_undirected):
        res = mfbc(small_undirected, batch_size=10)
        s = res.stats.summary()
        assert s["sources"] == small_undirected.n
        assert s["matmuls"] > 0 and s["ops"] > 0
        assert res.stats.batches[0].mfbf_iterations > 0
        assert res.stats.batches[0].mfbr_iterations > 0


class TestAPI:
    def test_normalized_matches_networkx(self, small_undirected):
        import networkx as nx

        got = betweenness_centrality(small_undirected, normalized=True)
        ref = nx.betweenness_centrality(
            small_undirected.to_networkx(), normalized=True
        )
        refv = np.array([ref[i] for i in range(small_undirected.n)])
        assert np.allclose(got, refv, atol=1e-8)

    def test_teps_positive(self, small_undirected):
        res = mfbc(small_undirected)
        assert res.teps(small_undirected) > 0

    def test_result_fields(self, small_undirected):
        res = mfbc(small_undirected, batch_size=5)
        assert res.batch_size == 5
        assert res.elapsed_seconds > 0
        assert len(res.scores) == small_undirected.n
