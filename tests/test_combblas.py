"""The CombBLAS-style baseline: correctness and behavioural contrasts."""

import numpy as np
import pytest

from repro.baselines import brandes_bc, combblas_bc
from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.graphs import Graph, uniform_random_graph_nm
from repro.machine import Machine
from repro.spgemm import Square2DPolicy

from conftest import nx_reference_bc


class TestCorrectness:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_networkx(self, directed):
        g = uniform_random_graph_nm(45, 4.0, directed=directed, seed=31)
        res = combblas_bc(g, batch_size=9)
        assert np.allclose(res.scores, nx_reference_bc(g), atol=1e-8)

    def test_matches_mfbc(self, small_undirected):
        ref = mfbc(small_undirected, batch_size=10).scores
        got = combblas_bc(small_undirected, batch_size=10).scores
        assert np.allclose(got, ref, atol=1e-8)

    @pytest.mark.parametrize("nb", [1, 4, 40])
    def test_batch_invariance(self, small_undirected, nb):
        ref = brandes_bc(small_undirected)
        got = combblas_bc(small_undirected, batch_size=nb).scores
        assert np.allclose(got, ref, atol=1e-8)

    def test_disconnected(self):
        g = Graph(6, np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]))
        assert np.allclose(combblas_bc(g).scores, nx_reference_bc(g), atol=1e-10)

    def test_sources_subset(self, small_undirected):
        sources = np.array([0, 5, 9])
        ref = brandes_bc(small_undirected, sources=sources)
        got = combblas_bc(small_undirected, sources=sources).scores
        assert np.allclose(got, ref, atol=1e-8)


class TestRestrictions:
    def test_weighted_raises(self, small_weighted):
        with pytest.raises(ValueError, match="unweighted"):
            combblas_bc(small_weighted)

    def test_distributed_square_grid(self, small_undirected):
        machine = Machine(4)
        eng = DistributedEngine(machine, policy=Square2DPolicy())
        ref = brandes_bc(small_undirected)
        res = combblas_bc(small_undirected, batch_size=10, engine=eng)
        assert np.allclose(res.scores, ref, atol=1e-8)
        assert machine.ledger.critical_words() > 0

    def test_nonsquare_grid_rejected(self, small_undirected):
        machine = Machine(8)
        eng = DistributedEngine(machine, policy=Square2DPolicy())
        with pytest.raises(ValueError, match="square"):
            combblas_bc(small_undirected, batch_size=10, engine=eng)


class TestCounters:
    def test_levels_recorded(self, small_undirected):
        res = combblas_bc(small_undirected, batch_size=small_undirected.n)
        assert len(res.levels_per_batch) == 1
        # BFS levels bounded by the hop diameter
        assert res.levels_per_batch[0] <= small_undirected.diameter_hops() + 1

    def test_matmuls_and_ops_counted(self, small_undirected):
        res = combblas_bc(small_undirected, batch_size=10)
        assert res.matmuls > 0 and res.ops > 0

    def test_teps_positive(self, small_undirected):
        res = combblas_bc(small_undirected, batch_size=10)
        assert res.teps(small_undirected) > 0

    def test_max_batches(self, small_undirected):
        res = combblas_bc(small_undirected, batch_size=10, max_batches=1)
        assert res.stats.sources_processed == 10

    def test_stats_record_every_product(self):
        g = uniform_random_graph_nm(60, 4.0, seed=11)
        res = combblas_bc(g, batch_size=30, max_batches=1)
        (batch,) = res.stats.batches
        assert batch.sources == 30
        assert batch.iterations
        assert all(it.phase == "real" for it in batch.iterations)
        assert len(batch.iterations) == res.matmuls
        assert sum(it.ops for it in batch.iterations) == res.ops
