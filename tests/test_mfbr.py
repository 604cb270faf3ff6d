"""MFBr (Algorithm 2): partial centrality factors ζ(s, v)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_bits
from mfbr_reference import mfbr_reference
from repro.core import mfbf, mfbr
from repro.core.mfbf import equal_weights
from repro.core.engine import SequentialEngine
from repro.core.stats import BatchStats
from repro.dist import DistributedEngine
from repro.graphs import Graph, uniform_random_graph_nm, with_random_weights
from repro.baselines.brandes import brandes_single_source
from repro.baselines.sssp import bfs_sssp, dijkstra_sssp
from repro.machine import Machine
from repro.spgemm import PinnedPolicy, Plan


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


# ---------------------------------------------------------------------------
# the narrowed products: the same Z as a literal Algorithm 2, fewer pairs
# ---------------------------------------------------------------------------


@st.composite
def _graphs(draw):
    """Small graphs, directed or not: unweighted, integer-weighted, or every
    edge at 2.5 (a weight whose sums are exact but not integers)."""
    n = draw(st.integers(2, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    kind = draw(st.sampled_from(["unweighted", "integer", "constant"]))
    weight = None
    if kind == "integer":
        weight = np.array(
            draw(st.lists(st.integers(1, 4), min_size=len(pairs), max_size=len(pairs))),
            dtype=np.float64,
        )
    elif kind == "constant":
        weight = np.full(len(pairs), 2.5)
    graph = Graph(n, src, dst, weight, directed=draw(st.booleans()))
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    return graph, np.array(sources, dtype=np.int64)


#: pinned plans at p = 8, one of each dimension; C moves in the 1D one, so
#: its partial products are summed across ranks
_PLANS = {
    "1D-C": Plan(8, 1, 1, "C", "AB"),
    "2D-AB(2x4)": Plan(1, 2, 4, "A", "AB"),
    "3D-C,BC(2x2x2)": Plan(2, 2, 2, "C", "BC"),
}


class TestNarrowedProducts:
    """``mfbr`` forms only the pairs that can count: the successor count only
    the pairs tying with τ, back-propagation only the pairs landing on a
    vertex still waiting on a successor.  Z keeps every bit of a literal
    Algorithm 2 (``tests/mfbr_reference.py``), in as many iterations, and
    each product forms exactly the pairs the reference says can count."""

    @pytest.mark.parametrize("where", ["sequential", *_PLANS])
    @given(case=_graphs())
    def test_same_bits_as_algorithm_2(self, where, case):
        graph, sources = case

        def engine():
            if where == "sequential":
                return SequentialEngine()
            return DistributedEngine(Machine(8), policy=PinnedPolicy(_PLANS[where]))

        ref_engine = engine()
        adj = ref_engine.adjacency(graph)
        t = mfbf(adj, sources, engine=ref_engine, equal_weights=equal_weights(graph))
        want, ops, pending_ops = mfbr_reference(adj, t, engine=ref_engine)

        run = engine()
        adj = run.adjacency(graph)
        t = mfbf(adj, sources, engine=run, equal_weights=equal_weights(graph))
        stats = BatchStats(sources=len(sources))
        got = mfbr(adj, t, engine=run, stats=stats)
        assert_bits(run.gather(got), ref_engine.gather(want))
        formed = [it.ops for it in stats.iterations]
        assert stats.mfbr_iterations == len(ops)
        assert formed == pending_ops
        assert sum(formed) <= sum(ops)

    def test_successor_count_is_the_filtered_candidates(self):
        # the tie-masked product is the whole-join product filtered by T's
        # weights, bit for bit: payloads p = +0.0 and c = 1 sum the same
        from repro.algebra.centpath import CENTPATH
        from repro.core.specs import BRANDES_SPEC, SUCCESSOR_SPEC
        from repro.sparse import spgemm

        g = with_random_weights(uniform_random_graph_nm(60, 5.0, seed=4), 1, 3, seed=4)
        adj = g.adjacency()
        t = mfbf(adj, np.array([0, 7, 19]))
        seed = t.map(
            lambda tv: CENTPATH.make(tv["w"], np.zeros(len(tv["w"])), np.ones(len(tv["w"]))),
            monoid=CENTPATH,
        )
        for kernel in ("generic", "auto"):
            whole = spgemm(seed, adj.transpose(), BRANDES_SPEC, mask=t, kernel=kernel)
            ties = spgemm(seed, adj.transpose(), SUCCESSOR_SPEC, mask=t, kernel=kernel)
            assert_bits(ties.matrix, whole.matrix.zip_filter(t, lambda cv, tv: cv["w"] == tv["w"]))
            assert ties.ops == int(ties.matrix.vals["c"].sum()) < whole.ops
