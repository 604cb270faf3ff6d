"""MFBr (Algorithm 2): partial centrality factors ζ(s, v)."""

import numpy as np
import pytest

from repro.core import mfbf, mfbr
from repro.core.engine import SequentialEngine
from repro.core.stats import BatchStats
from repro.dist import DistributedEngine
from repro.graphs import Graph, uniform_random_graph_nm, with_random_weights
from repro.baselines.brandes import brandes_single_source
from repro.baselines.sssp import bfs_sssp, dijkstra_sssp
from repro.machine import Machine


def zeta_reference(graph, s):
    """ζ(s, v) = δ(s, v)/σ̄(s, v) from the Brandes oracle."""
    delta = brandes_single_source(graph, s)
    d, sigma = (dijkstra_sssp if graph.weighted else bfs_sssp)(graph, s)
    with np.errstate(invalid="ignore", divide="ignore"):
        zeta = np.where(sigma > 0, delta / np.where(sigma > 0, sigma, 1), 0.0)
    return zeta, d


def run_pair(graph, sources):
    adj = graph.adjacency()
    t = mfbf(adj, np.asarray(sources, dtype=np.int64))
    z = mfbr(adj, t)
    return t, z


class TestZetaValues:
    @pytest.mark.parametrize("seed", range(4))
    def test_unweighted_matches_brandes(self, seed):
        g = uniform_random_graph_nm(40, 4.0, seed=seed)
        s = (7 * seed) % g.n
        t, z = run_pair(g, [s])
        zeta_ref, dist = zeta_reference(g, s)
        got = z.to_dense("p")[0]
        reach = np.isfinite(dist)
        reach[s] = False  # ζ(s, s) is unused by MFBC (diagonal excluded)
        assert np.allclose(got[reach], zeta_ref[reach], atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_matches_brandes(self, seed):
        g = with_random_weights(
            uniform_random_graph_nm(35, 4.0, seed=50 + seed), 1, 6, seed=seed
        )
        s = (5 * seed) % g.n
        t, z = run_pair(g, [s])
        zeta_ref, dist = zeta_reference(g, s)
        got = z.to_dense("p")[0]
        reach = np.isfinite(dist)
        reach[s] = False
        assert np.allclose(got[reach], zeta_ref[reach], atol=1e-10)

    @pytest.mark.parametrize("directed", [False, True])
    def test_directed_variants(self, directed):
        g = uniform_random_graph_nm(30, 3.0, directed=directed, seed=11)
        s = 3
        _, z = run_pair(g, [s])
        zeta_ref, dist = zeta_reference(g, s)
        got = z.to_dense("p")[0]
        reach = np.isfinite(dist)
        reach[s] = False
        assert np.allclose(got[reach], zeta_ref[reach], atol=1e-10)


class TestPathGraph:
    def test_path_zeta_analytic(self, path_graph):
        """On 0-1-2-3-4 from source 0: σ̄ ≡ 1, ζ(0,v) = δ(0,v) = #targets
        beyond v: ζ(0,1)=3, ζ(0,2)=2, ζ(0,3)=1, ζ(0,4)=0."""
        _, z = run_pair(path_graph, [0])
        p = z.to_dense("p")[0]
        assert np.allclose(p[1:], [3, 2, 1, 0])

    def test_diamond_zeta(self, diamond_graph):
        """From 0: σ̄(0,3)=2 and δ(0,1)=δ(0,2)=1/2, so ζ(0,1)=ζ(0,2)=1/2."""
        _, z = run_pair(diamond_graph, [0])
        p = z.to_dense("p")[0]
        assert p[1] == pytest.approx(0.5)
        assert p[2] == pytest.approx(0.5)
        assert p[3] == 0.0


class TestCounters:
    def test_all_reachable_fire_exactly_once(self, small_undirected):
        """After convergence every reachable vertex's counter is parked at −1
        (fired) — the no-double-fire invariant of lines 7–11."""
        g = small_undirected
        t, z = run_pair(g, [0])
        c = z.to_dense("c", fill=0)
        w = t.to_dense("w")[0]
        reachable = np.isfinite(w)
        assert np.all(c[0][reachable] == -1)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("distributed", [False, True])
    def test_returned_counters_are_all_parked(self, weighted, distributed):
        """The return contract: Z is stored exactly on T's support, every
        entry has fired and carries −1, and none is left at the 0 it fired
        from — counters are parked once, on return, not as they fire."""
        g = uniform_random_graph_nm(40, 4.0, seed=9)
        if weighted:
            g = with_random_weights(g, 1, 6, seed=9)
        engine = DistributedEngine(Machine(4)) if distributed else SequentialEngine()
        adj = engine.adjacency(g)
        t = mfbf(adj, np.array([0, 5, 11]), engine=engine)
        z = engine.gather(mfbr(adj, t, engine=engine))
        assert np.array_equal(z.keys(), engine.gather(t).keys())
        assert z.nnz > 40 and np.all(z.vals["c"] == -1)

    def test_frontier_sizes_recorded(self, small_undirected):
        adj = small_undirected.adjacency()
        t = mfbf(adj, np.array([0, 1, 2]))
        stats = BatchStats(sources=3)
        mfbr(adj, t, stats=stats)
        assert any(it.phase == "mfbr" for it in stats.iterations)
        assert stats.total_ops > 0

    def test_max_iterations_guard(self, small_undirected):
        adj = small_undirected.adjacency()
        t = mfbf(adj, np.array([0]))
        with pytest.raises(RuntimeError, match="converge"):
            mfbr(adj, t, max_iterations=1)


class TestIsolatedCases:
    def test_single_edge(self):
        g = Graph(2, np.array([0]), np.array([1]))
        _, z = run_pair(g, [0])
        assert z.to_dense("p")[0][1] == 0.0  # leaf has ζ = 0

    def test_star_center(self):
        """Star: from a leaf, the centre mediates all other leaves."""
        n = 6
        g = Graph(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
        _, z = run_pair(g, [1])
        p = z.to_dense("p")[0]
        # centre 0: δ(1,0) = n-2 targets, σ̄ = 1 -> ζ = n-2
        assert p[0] == pytest.approx(n - 2)
