"""Approximate BC estimators and the CA-MFBC convenience wrapper."""

import numpy as np
import pytest

from repro.baselines import brandes_bc
from repro.core import (
    approximate_bc,
    ca_engine,
    ca_mfbc,
    mfbc,
)
from repro.graphs import uniform_random_graph_nm
from repro.machine import Machine


class TestApproximateBC:
    def test_full_sample_is_exact(self, small_undirected):
        got = approximate_bc(small_undirected, small_undirected.n, seed=0)
        ref = brandes_bc(small_undirected)
        assert np.allclose(got, ref, atol=1e-8)

    def test_unbiased_expectation(self):
        """Averaging many independent sampled estimates converges to exact."""
        g = uniform_random_graph_nm(30, 4.0, seed=71)
        exact = brandes_bc(g)
        acc = np.zeros(g.n)
        trials = 40
        for t in range(trials):
            acc += approximate_bc(g, 6, seed=t)
        est = acc / trials
        # correlation is the robust check; tolerances on a small graph
        mask = exact > 0
        assert np.corrcoef(est[mask], exact[mask])[0, 1] > 0.9

    def test_scaling_factor(self, small_undirected):
        got = approximate_bc(small_undirected, 10, seed=1)
        # compare against manual scaled run with the same sample
        rng = np.random.default_rng(1)
        sources = rng.choice(small_undirected.n, size=10, replace=False)
        ref = mfbc(small_undirected, sources=sources).scores * (
            small_undirected.n / 10
        )
        assert np.allclose(got, ref)

    def test_bad_sample_count_raises(self, small_undirected):
        with pytest.raises(ValueError):
            approximate_bc(small_undirected, 0)
        with pytest.raises(ValueError):
            approximate_bc(small_undirected, small_undirected.n + 1)


class TestCAMFBC:
    def test_matches_sequential(self, small_undirected):
        ref = mfbc(small_undirected, batch_size=16).scores
        machine = Machine(16)
        res = ca_mfbc(small_undirected, machine, c=4, batch_size=16)
        assert np.allclose(res.scores, ref, atol=1e-8)
        assert machine.ledger.critical_words() > 0

    def test_default_batch_from_memory_rule(self, small_undirected):
        machine = Machine(4)
        res = ca_mfbc(small_undirected, machine, c=1, max_batches=1)
        # nb = c·m/n = average adjacency degree
        expect = max(
            1,
            min(
                small_undirected.n,
                small_undirected.nnz_adjacency // small_undirected.n,
            ),
        )
        assert res.batch_size == expect

    def test_engine_pinned_plan(self):
        machine = Machine(16)
        eng = ca_engine(machine, c=4)
        assert eng.policy.plan.p3 == 2  # √(16/4) = 2
        assert eng.policy.plan.p1 == 4

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError):
            ca_engine(Machine(12), c=2)
