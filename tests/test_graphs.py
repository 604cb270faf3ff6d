"""Graph container, generators, preprocessing, weights, and I/O."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    largest_connected_component,
    randomize_vertex_order,
    read_edgelist,
    remove_isolated_vertices,
    rmat_graph,
    snap_standin,
    uniform_random_graph,
    uniform_random_graph_nm,
    with_random_weights,
    write_edgelist,
)
from repro.graphs.realworld import SNAP_STANDINS


class TestGraphContainer:
    def test_self_loops_dropped(self):
        g = Graph(3, np.array([0, 1, 2]), np.array([0, 2, 2]))
        assert g.m == 1  # only 1-2 survives

    def test_parallel_edges_deduped_min_weight(self):
        g = Graph(
            3,
            np.array([0, 1, 0]),
            np.array([1, 0, 1]),
            np.array([5.0, 2.0, 7.0]),
        )
        assert g.m == 1
        assert g.edge_weights()[0] == 2.0  # undirected: (0,1)==(1,0), min kept

    def test_directed_parallel_edges_distinct_directions(self):
        g = Graph(3, np.array([0, 1]), np.array([1, 0]), directed=True)
        assert g.m == 2

    def test_endpoint_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, np.array([0]), np.array([5]))

    def test_nonpositive_weight_raises(self):
        with pytest.raises(ValueError, match="positive"):
            Graph(2, np.array([0]), np.array([1]), np.array([0.0]))

    def test_degrees_undirected(self):
        g = Graph(3, np.array([0, 1]), np.array([1, 2]))
        assert list(g.degrees()) == [1, 2, 1]
        assert g.max_degree() == 2

    def test_adjacency_symmetric_when_undirected(self):
        g = Graph(3, np.array([0]), np.array([1]))
        adj = g.adjacency()
        assert adj.get(0, 1)["w"] == 1.0 and adj.get(1, 0)["w"] == 1.0
        assert g.nnz_adjacency == 2

    def test_adjacency_asymmetric_when_directed(self):
        g = Graph(3, np.array([0]), np.array([1]), directed=True)
        adj = g.adjacency()
        assert adj.get(0, 1)["w"] == 1.0 and np.isinf(adj.get(1, 0)["w"])

    def test_to_networkx_roundtrip_counts(self, small_undirected):
        nxg = small_undirected.to_networkx()
        assert nxg.number_of_nodes() == small_undirected.n
        assert nxg.number_of_edges() == small_undirected.m

    def test_unweighted_strip(self, small_weighted):
        g = small_weighted.unweighted()
        assert not g.weighted and g.m == small_weighted.m

    def test_unweighted_view_is_one_graph(self, small_weighted, small_undirected):
        # an engine pins adjacency per graph object: one view, not one per call
        assert small_weighted.unweighted() is small_weighted.unweighted()
        assert small_undirected.unweighted() is small_undirected

    def test_reversed_directed(self):
        g = Graph(3, np.array([0]), np.array([1]), directed=True)
        r = g.reversed()
        assert r.src[0] == 1 and r.dst[0] == 0

    def test_reversed_undirected_is_self(self, small_undirected):
        assert small_undirected.reversed() is small_undirected

    def test_diameter_path_graph(self, path_graph):
        assert path_graph.diameter_hops() == 4
        assert path_graph.effective_diameter(percentile=1.0, samples=5) == 4.0


class TestGenerators:
    def test_rmat_size(self):
        g = rmat_graph(8, 4, seed=0)
        assert g.n == 256
        # sampled edges minus dedup losses
        assert 0.5 * 4 * 256 / 2 < g.m <= 4 * 256 / 2

    def test_rmat_deterministic(self):
        g1 = rmat_graph(7, 4, seed=9)
        g2 = rmat_graph(7, 4, seed=9)
        assert np.array_equal(g1.src, g2.src) and np.array_equal(g1.dst, g2.dst)

    def test_rmat_skew(self):
        """Power-law parameters produce a heavier max degree than uniform."""
        g_rmat = rmat_graph(11, 8, seed=1)
        g_uni = uniform_random_graph_nm(2048, 8, seed=1)
        assert g_rmat.max_degree() > 2 * g_uni.max_degree()

    def test_rmat_directed(self):
        g = rmat_graph(7, 4, directed=True, seed=0)
        assert g.directed

    def test_rmat_invalid_probs(self):
        with pytest.raises(ValueError, match="non-negative"):
            rmat_graph(5, 2, a=0.9, b=0.9, c=0.9)

    def test_uniform_fraction(self):
        g = uniform_random_graph(400, 0.02, seed=0)
        assert g.n == 400
        # nnz fraction of adjacency ≈ f (within sampling noise and dedup)
        f = g.nnz_adjacency / 400**2
        assert 0.012 < f < 0.022

    def test_uniform_degree(self):
        g = uniform_random_graph_nm(500, 10.0, seed=0)
        assert 8.0 < g.average_degree() < 10.5

    def test_uniform_bad_args(self):
        with pytest.raises(ValueError):
            uniform_random_graph(10, 1.5)
        with pytest.raises(ValueError):
            uniform_random_graph_nm(10, -1)
        with pytest.raises(ValueError):
            uniform_random_graph_nm(0, 2)


class TestSnapStandins:
    def test_all_ids_generate(self):
        for gid in SNAP_STANDINS:
            g = snap_standin(gid, scale_offset=-5, seed=0)
            assert g.n > 0 and g.m > 0
            assert g.name == gid

    def test_directedness_matches_table2(self):
        assert not snap_standin("ork", scale_offset=-5).directed
        assert snap_standin("ljm", scale_offset=-5).directed
        assert snap_standin("cit", scale_offset=-5).directed

    def test_density_ordering(self):
        """ork denser than ljm denser than cit — the Table 2 ordering that
        drives the paper's per-graph performance story."""
        ork = snap_standin("ork", scale_offset=-4, seed=1)
        ljm = snap_standin("ljm", scale_offset=-4, seed=1)
        cit = snap_standin("cit", scale_offset=-3, seed=1)
        assert ork.average_degree() > ljm.average_degree() > cit.average_degree()

    def test_cit_has_larger_diameter(self):
        ork = snap_standin("ork", scale_offset=-5, seed=1)
        cit = snap_standin("cit", scale_offset=-4, seed=1)
        assert cit.diameter_hops() > ork.diameter_hops()

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown graph id"):
            snap_standin("nope")

    def test_no_isolated_vertices(self):
        g = snap_standin("ork", scale_offset=-5, seed=0)
        assert g.degrees().min() > 0


class TestPreprocess:
    def test_remove_isolated(self):
        g = Graph(5, np.array([0, 3]), np.array([3, 4]))
        out = remove_isolated_vertices(g)
        assert out.n == 3 and out.m == 2

    def test_remove_isolated_noop(self, small_undirected):
        g = remove_isolated_vertices(small_undirected)
        assert g.n <= small_undirected.n

    def test_largest_component(self):
        # two components: {0,1,2} and {3,4}
        g = Graph(5, np.array([0, 1, 3]), np.array([1, 2, 4]))
        out = largest_connected_component(g)
        assert out.n == 3 and out.m == 2

    def test_randomize_preserves_structure(self, small_undirected):
        g = randomize_vertex_order(small_undirected, seed=3)
        assert g.n == small_undirected.n and g.m == small_undirected.m
        assert sorted(g.degrees()) == sorted(small_undirected.degrees())


class TestWeights:
    def test_range(self, small_undirected):
        g = with_random_weights(small_undirected, 1, 100, seed=0)
        assert g.weighted
        assert g.weight.min() >= 1 and g.weight.max() <= 100
        assert np.all(g.weight == np.round(g.weight))

    def test_bad_range_raises(self, small_undirected):
        with pytest.raises(ValueError):
            with_random_weights(small_undirected, 5, 2)
        with pytest.raises(ValueError):
            with_random_weights(small_undirected, 0, 2)


class TestIO:
    def test_roundtrip_unweighted(self, tmp_path, small_undirected):
        p = tmp_path / "g.txt"
        write_edgelist(small_undirected, p)
        g = read_edgelist(p)
        assert g.m == small_undirected.m

    def test_roundtrip_weighted(self, tmp_path, small_weighted):
        p = tmp_path / "g.txt"
        write_edgelist(small_weighted, p)
        g = read_edgelist(p)
        assert g.weighted and g.m == small_weighted.m
        assert np.allclose(sorted(g.weight), sorted(small_weighted.weight))

    def test_noncontiguous_ids_compacted(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("10 20\n20 30\n# comment\n")
        g = read_edgelist(p)
        assert g.n == 3 and g.m == 2

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("10\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edgelist(p)

    def test_mixed_weight_lines_raise(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 2 3.5\n2 3\n")
        with pytest.raises(ValueError, match="mixed"):
            read_edgelist(p)

    def test_malformed_line_names_file_and_lineno(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# comment\n1 2\nbogus line here\n")
        with pytest.raises(
            ValueError,
            match=r"bad\.txt:3: malformed edge line 'bogus line here'",
        ):
            read_edgelist(p)

    def test_bad_weight_names_file_and_lineno(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 1.5\n2 3 heavy\n")
        with pytest.raises(
            ValueError, match=r"bad\.txt:2: .*weight must be a number"
        ):
            read_edgelist(p)

    def test_noninteger_endpoint_names_file_and_lineno(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\na b\n")
        with pytest.raises(
            ValueError, match=r"bad\.txt:2: .*endpoints must be integers"
        ):
            read_edgelist(p)

    def test_header_preserves_ids_and_isolated_vertices(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# Nodes: 40 Edges: 2 Directed: 1\n10 20\n20 30\n")
        g = read_edgelist(p)
        assert g.n == 40 and g.m == 2 and g.directed
        np.testing.assert_array_equal(sorted(g.src), [10, 20])

    def test_large_roundtrip_batched_write(self, tmp_path):
        # ~100k edges through the batched writer, read back bit-exactly
        g = uniform_random_graph_nm(20_000, 10.0, seed=3)
        assert g.m >= 99_000
        gw = with_random_weights(g, 1, 100, seed=3)
        for tag, graph in (("u", g), ("w", gw)):
            p = tmp_path / f"big-{tag}.txt"
            write_edgelist(graph, p, batch=1 << 12)
            back = read_edgelist(p)
            assert back.n == graph.n and back.m == graph.m
            assert back.directed == graph.directed
            np.testing.assert_array_equal(back.src, graph.src)
            np.testing.assert_array_equal(back.dst, graph.dst)
            if graph.weighted:
                # repr round-trip: weights survive to the exact bit
                np.testing.assert_array_equal(back.weight, graph.weight)
