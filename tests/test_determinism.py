"""Determinism: identical seeds produce bit-identical graphs and scores.

Two guarantees worth pinning separately from correctness:

* the graph generators are pure functions of their seed — same seed, same
  edge list, byte for byte (regressions here silently invalidate every
  cross-run comparison in the benchmark suite);
* MFBC itself is deterministic: two runs of the same problem produce
  bit-identical score vectors, not merely close ones (floating-point min/+
  reductions are reassociation-sensitive, so this pins the merge order too).
"""

import numpy as np
import pytest

from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.graphs import (
    rmat_graph,
    uniform_random_graph_nm,
    with_random_weights,
)
from repro.machine import Machine


def _edges(g):
    return g.src, g.dst, g.edge_weights()


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_rmat_is_seed_deterministic(self, seed):
        g1 = rmat_graph(6, 6, seed=seed)
        g2 = rmat_graph(6, 6, seed=seed)
        for x, y in zip(_edges(g1), _edges(g2)):
            assert np.array_equal(x, y)

    def test_rmat_seeds_differ(self):
        g1 = rmat_graph(6, 6, seed=0)
        g2 = rmat_graph(6, 6, seed=1)
        assert not (
            np.array_equal(g1.src, g2.src) and np.array_equal(g1.dst, g2.dst)
        )

    @pytest.mark.parametrize("directed", [False, True])
    def test_uniform_is_seed_deterministic(self, directed):
        g1 = uniform_random_graph_nm(50, 4.0, directed=directed, seed=9)
        g2 = uniform_random_graph_nm(50, 4.0, directed=directed, seed=9)
        for x, y in zip(_edges(g1), _edges(g2)):
            assert np.array_equal(x, y)

    def test_weights_are_seed_deterministic(self):
        g = uniform_random_graph_nm(40, 4.0, seed=2)
        w1 = with_random_weights(g, 1, 10, seed=5).edge_weights()
        w2 = with_random_weights(g, 1, 10, seed=5).edge_weights()
        assert np.array_equal(w1, w2)
        w3 = with_random_weights(g, 1, 10, seed=6).edge_weights()
        assert not np.array_equal(w1, w3)


class TestScoreDeterminism:
    @pytest.fixture(scope="class")
    def graph(self):
        g = rmat_graph(5, 5, seed=3)
        return with_random_weights(g, 1, 5, seed=3)

    def test_repeat_runs_are_bit_identical(self, graph):
        s1 = mfbc(graph).scores
        s2 = mfbc(graph).scores
        assert np.array_equal(s1, s2)

    def test_sequential_vs_distributed_bit_identical_batches(self, graph):
        """Batching changes the schedule, not the bits: the distributed run
        must reproduce the sequential scores exactly for this graph."""
        seq = mfbc(graph).scores
        dist = mfbc(graph, engine=DistributedEngine(Machine(4))).scores
        assert np.allclose(dist, seq, atol=1e-8)
