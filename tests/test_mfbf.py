"""MFBF (Algorithm 1): shortest distances and multiplicities."""

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import strategies as cst
from repro.core import SequentialEngine, mfbf
from repro.core.mfbf import equal_weights
from repro.core.stats import BatchStats
from repro.baselines.sssp import bfs_sssp, dijkstra_sssp
from repro.dist import DistributedEngine
from repro.graphs import Graph, uniform_random_graph_nm, with_random_weights
from repro.machine import Machine
from repro.spgemm import PinnedPolicy
from repro.spgemm.plan import Plan

from conftest import assert_bits
from mfbf_reference import mfbf_reference


def run_mfbf(graph, sources, **kw):
    return mfbf(graph.adjacency(), np.asarray(sources, dtype=np.int64), **kw)


def dense_dist_mult(t_mat, s_idx, n):
    d = t_mat.to_dense("w")[s_idx]
    m = t_mat.to_dense("m")[s_idx]
    return d, m


class TestAgainstScipy:
    @pytest.mark.parametrize("directed", [False, True])
    def test_distances_match_scipy(self, directed):
        g = uniform_random_graph_nm(50, 4.0, directed=directed, seed=7)
        t = run_mfbf(g, np.arange(g.n))
        ref = scipy.sparse.csgraph.shortest_path(
            g.adjacency_scipy(), directed=directed
        )
        got = t.to_dense("w")
        assert np.allclose(
            np.where(np.isfinite(ref), ref, -1), np.where(np.isfinite(got), got, -1)
        )

    def test_weighted_distances(self):
        g = with_random_weights(uniform_random_graph_nm(40, 4.0, seed=8), 1, 9, seed=8)
        t = run_mfbf(g, np.arange(g.n))
        ref = scipy.sparse.csgraph.shortest_path(g.adjacency_scipy())
        got = t.to_dense("w")
        assert np.allclose(
            np.where(np.isfinite(ref), ref, -1), np.where(np.isfinite(got), got, -1)
        )


class TestMultiplicities:
    @pytest.mark.parametrize("seed", range(5))
    def test_unweighted_vs_bfs_oracle(self, seed):
        g = uniform_random_graph_nm(45, 4.0, seed=seed)
        s = seed % g.n
        t = run_mfbf(g, [s])
        d_ref, m_ref = bfs_sssp(g, s)
        d, m = dense_dist_mult(t, 0, g.n)
        assert np.allclose(np.nan_to_num(d, posinf=-1), np.nan_to_num(d_ref, posinf=-1))
        reach = np.isfinite(d_ref)
        assert np.allclose(m[reach], m_ref[reach])

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_vs_dijkstra_oracle(self, seed):
        g = with_random_weights(
            uniform_random_graph_nm(40, 4.0, seed=100 + seed), 1, 7, seed=seed
        )
        s = (3 * seed) % g.n
        t = run_mfbf(g, [s])
        d_ref, m_ref = dijkstra_sssp(g, s)
        d, m = dense_dist_mult(t, 0, g.n)
        assert np.allclose(np.nan_to_num(d, posinf=-1), np.nan_to_num(d_ref, posinf=-1))
        reach = np.isfinite(d_ref)
        assert np.allclose(m[reach], m_ref[reach])

    def test_diamond_multiplicity(self, diamond_graph):
        t = run_mfbf(diamond_graph, [0])
        e = t.get(0, 3)
        assert e["w"] == 2.0 and e["m"] == 2.0

    def test_source_self_entry(self, diamond_graph):
        t = run_mfbf(diamond_graph, [1])
        e = t.get(0, 1)
        assert e["w"] == 0.0 and e["m"] == 1.0

    def test_unreachable_unstored(self):
        # two disconnected edges
        g = Graph(4, np.array([0, 2]), np.array([1, 3]))
        t = run_mfbf(g, [0])
        assert np.isinf(t.get(0, 2)["w"]) and t.get(0, 2)["m"] == 0


class TestFrontierBehaviour:
    def test_unweighted_each_vertex_one_frontier(self, small_undirected):
        """§5.3: in the unweighted case every vertex appears in exactly one
        frontier, so Σ nnz(F_i) ≤ n·nb."""
        g = small_undirected
        stats = BatchStats(sources=g.n)
        run_mfbf(g, np.arange(g.n), stats=stats)
        total_frontier = sum(it.frontier_nnz for it in stats.iterations)
        assert total_frontier <= g.n * g.n

    def test_weighted_vertices_can_reenter(self):
        """A heavy direct edge is later beaten by a longer-but-lighter path,
        so the destination enters two frontiers."""
        # 0 -10- 2 ; 0 -1- 1 -1- 2
        g = Graph(
            3,
            np.array([0, 0, 1]),
            np.array([2, 1, 2]),
            np.array([10.0, 1.0, 1.0]),
        )
        stats = BatchStats(sources=1)
        t = run_mfbf(g, [0], stats=stats)
        assert t.get(0, 2)["w"] == 2.0 and t.get(0, 2)["m"] == 1.0
        appearances = sum(it.frontier_nnz for it in stats.iterations)
        # frontier sum exceeds the n·nb bound that holds for unweighted
        assert appearances > 3

    def test_iteration_count_tracks_diameter(self, path_graph):
        stats = BatchStats(sources=1)
        run_mfbf(path_graph, [0], stats=stats)
        # path of 4 edges: 4 productive relaxations + 1 empty-detect products
        assert len(stats.iterations) in (4, 5)

    def test_ops_counted(self, small_undirected):
        stats = BatchStats(sources=2)
        run_mfbf(small_undirected, [0, 1], stats=stats)
        assert stats.total_ops > 0


class TestValidation:
    def test_empty_sources_raises(self, small_undirected):
        with pytest.raises(ValueError, match="empty"):
            run_mfbf(small_undirected, [])

    def test_source_out_of_range_raises(self, small_undirected):
        with pytest.raises(ValueError, match="range"):
            run_mfbf(small_undirected, [10_000])

    def test_max_iterations_guard(self, small_undirected):
        with pytest.raises(RuntimeError, match="converge"):
            run_mfbf(small_undirected, [0], max_iterations=1)


#: pinned plans at p = 8: the three 1D movers, the three 2D variants and
#: one 3D plan per mover
_PLANS = (
    [Plan(8, 1, 1, x, "AB") for x in "ABC"]
    + [Plan(1, 2, 4, "A", yz) for yz in ("AB", "BC", "AC")]
    + [Plan(2, 2, 2, x, yz) for x, yz in (("A", "AB"), ("B", "AC"), ("C", "BC"))]
)


def _engine(plan):
    """The sequential engine, or a p = 8 machine pinned to ``plan``."""
    if plan is None:
        return SequentialEngine()
    machine = Machine(8, faults="off", elastic="off", check="off", memory_words="off")
    return DistributedEngine(machine, policy=PinnedPolicy(plan))


def _sources(data, n):
    return np.array(
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    )


@st.composite
def _relaxation_graphs(draw):
    """Small graphs, directed or not: integer-weighted, every edge at 2.5
    (a weight whose sums are exact but not integers), or unweighted."""
    base = draw(cst.graphs(weighted=False, max_n=12))
    kind = draw(st.sampled_from(["integer", "constant", "unit"]))
    if kind == "unit":
        return base
    weight = np.full(base.m, 2.5)
    if kind == "integer":
        weight = np.array(
            draw(st.lists(st.integers(1, 4), min_size=base.m, max_size=base.m)), dtype=np.float64
        )
    return Graph(base.n, base.src, base.dst, weight, directed=base.directed)


class TestBoundedRelaxation:
    """Weighted MFBF forms only the relaxations that do not lose to T and
    takes its product as the next frontier.  T keeps every bit of a literal
    Algorithm 1 (``tests/mfbf_reference.py``), with the same frontiers in
    as many iterations, on the sequential engine and under pinned 1D, 2D
    and 3D plans; each product forms exactly the reference's pairs whose
    weight is ``≤`` T's before the product."""

    @settings(max_examples=60)
    @given(_relaxation_graphs(), st.sampled_from([None, *_PLANS]), st.data())
    def test_same_bits_as_algorithm_1(self, graph, plan, data):
        sources = _sources(data, graph.n)
        ref_engine, run = _engine(plan), _engine(plan)
        want, frontiers, ops, bounded = mfbf_reference(
            ref_engine.adjacency(graph), sources, engine=ref_engine
        )
        stats = BatchStats(sources=len(sources))
        got = mfbf(run.adjacency(graph), sources, engine=run, stats=stats)
        assert_bits(run.gather(got), ref_engine.gather(want))
        assert [it.frontier_nnz for it in stats.iterations] == frontiers
        formed = [it.ops for it in stats.iterations]
        assert formed == bounded and sum(formed) <= sum(ops)


class TestEqualWeightLevels:
    """With every weight equal, MFBF's masked BFS levels give T bit for bit
    what a literal Algorithm 1 gives (``tests/mfbf_reference.py``), on the
    sequential engine and under pinned 1D, 2D and 3D plans."""

    @settings(max_examples=40)
    @given(
        cst.graphs(weighted=False, max_n=12),
        st.sampled_from([None, 1.0, 2.5]),
        st.sampled_from([None, *_PLANS]),
        st.data(),
    )
    def test_masked_levels_keep_the_bellman_ford_bits(self, base, weight, plan, data):
        graph = base
        if weight is not None:
            graph = Graph(base.n, base.src, base.dst, np.full(base.m, weight),
                          directed=base.directed)
        assert equal_weights(graph)
        sources = _sources(data, base.n)
        ref_engine, run = _engine(plan), _engine(plan)
        want, frontiers, ops, bounded = mfbf_reference(
            ref_engine.adjacency(graph), sources, engine=ref_engine
        )
        levels = BatchStats(sources=len(sources))
        t = mfbf(run.adjacency(graph), sources, engine=run, stats=levels, equal_weights=True)
        want = ref_engine.gather(want)
        assert_bits(run.gather(t), want)
        assert levels.mfbf_iterations == len(frontiers)
        # a level forms the pairs landing outside T, which on equal weights
        # are the pairs that do not lose to T
        assert [it.ops for it in levels.iterations] == bounded
        assert levels.total_ops <= sum(ops)
        # a level's product is its new vertices only: each (source, vertex)
        # pair but the sources themselves is formed once
        assert levels.total_product_nnz == want.nnz - len(sources)

    def test_two_distinct_weights_keep_bellman_ford(self):
        g = Graph(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]))
        assert not equal_weights(g)
