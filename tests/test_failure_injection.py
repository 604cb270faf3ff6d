"""Failure injection: corrupted inputs, resource exhaustion, bad wiring.

A production library must fail loudly and early on the failure modes a
downstream user will actually hit; these tests assert the failure *paths*,
not just the happy paths.
"""

import numpy as np
import pytest

from repro.algebra.monoid import MinMonoid
from repro.algebra.multpath import MULTPATH
from repro.core import mfbc, mfbf, mfbr
from repro.dist import DistMat, DistributedEngine
from repro.graphs import Graph
from repro.machine import Machine, MemoryLimitExceeded
from repro.sparse import SpMat

W = MinMonoid()


class TestCorruptedInputs:
    def test_mfbr_with_corrupt_distances_terminates_gracefully(
        self, small_undirected
    ):
        """MFBr cannot stall on corrupt distances with positive weights: a
        "successor cycle" would need edge weights summing to zero, which the
        positivity invariant forbids.  Corrupt τ therefore yields graceful
        termination — the tie-based successor detection finds no valid
        back-propagation targets and the partial factors stay zero — rather
        than a hang or crash."""
        adj = small_undirected.adjacency()
        t = mfbf(adj, np.arange(4, dtype=np.int64))
        corrupt = t.map(lambda v: {"w": v["w"] * 0.37 + 1.0, "m": v["m"]})
        z = mfbr(adj, corrupt, max_iterations=small_undirected.n + 1)
        good = mfbr(adj, t)
        assert np.all(np.isfinite(z.vals["p"]))
        assert not np.allclose(
            z.to_dense("p").sum(), good.to_dense("p").sum()
        )

    def test_negative_weights_rejected_at_graph_construction(self):
        with pytest.raises(ValueError, match="positive"):
            Graph(3, np.array([0]), np.array([1]), np.array([-1.0]))

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Graph(3, np.array([0]), np.array([1]), np.array([np.nan]))

    def test_spmat_monoid_schema_mismatch(self):
        a = SpMat(2, 2, np.array([0]), np.array([0]), {"w": np.ones(1)}, W)
        b = SpMat(
            2,
            2,
            np.array([0]),
            np.array([0]),
            MULTPATH.make([1.0], [1.0]),
            MULTPATH,
        )
        with pytest.raises(ValueError, match="monoid"):
            a.combine(b)

    def test_wrong_field_names_rejected(self):
        with pytest.raises(Exception):
            SpMat(2, 2, np.array([0]), np.array([0]), {"zzz": np.ones(1)}, W)


class TestResourceExhaustion:
    def test_machine_oom_during_distribution(self, small_undirected):
        machine = Machine(2, memory_words=10)
        machine.allocate(0, 5)
        with pytest.raises(MemoryLimitExceeded):
            machine.allocate(0, 100)

    def test_selector_oom_reports_sizes(self, small_undirected):
        machine = Machine(4, memory_words=2)
        eng = DistributedEngine(machine)
        with pytest.raises(MemoryLimitExceeded, match="memory budget"):
            mfbc(small_undirected, batch_size=8, max_batches=1, engine=eng)

    def test_mfbf_iteration_bound_is_a_backstop(self, small_undirected):
        # a bound below the diameter triggers the guard...
        with pytest.raises(RuntimeError):
            mfbf(
                small_undirected.adjacency(),
                np.array([0]),
                max_iterations=1,
            )
        # ...while the default bound never fires on a valid graph
        mfbf(small_undirected.adjacency(), np.array([0]))


class TestBadWiring:
    def test_distmat_elementwise_across_machines_fails(self, rng):
        from conftest import random_weight_spmat

        a = random_weight_spmat(rng, 8, 8, 0.5)
        m1, m2 = Machine(2), Machine(2)
        grid = np.arange(2).reshape(1, 2)
        d1 = DistMat.distribute(a, m1, grid)
        d2 = DistMat.distribute(a, m2, np.arange(2).reshape(2, 1))
        with pytest.raises(ValueError, match="different machines"):
            d1.combine(d2)

    def test_plan_machine_size_mismatch(self, rng):
        from conftest import random_weight_spmat
        from repro.algebra import TROPICAL
        from repro.spgemm import Plan, execute_plan

        a = random_weight_spmat(rng, 8, 8, 0.5)
        machine = Machine(4)
        grid = np.arange(4).reshape(2, 2)
        da = DistMat.distribute(a, machine, grid)
        with pytest.raises(ValueError, match="cover"):
            execute_plan(
                Plan(2, 1, 1, "A", "AB"), da, da, TROPICAL.matmul_spec()
            )

    def test_engine_mixing_detected_via_distribution(self, small_undirected):
        """A matrix built on one engine cannot silently flow into another
        machine's products — the co-distribution check trips."""
        eng1 = DistributedEngine(Machine(4))
        eng2 = DistributedEngine(Machine(2))
        adj1 = eng1.adjacency(small_undirected)
        adj2 = eng2.adjacency(small_undirected)
        with pytest.raises(ValueError):
            adj1.combine(adj2)


class TestCollectiveWiring:
    """Group collectives reject malformed participation before moving data."""

    def _group(self, q=4):
        from repro.machine import Group

        return Group(Machine(q), np.arange(q))

    def test_empty_group_rejected(self):
        from repro.machine import Group

        with pytest.raises(ValueError, match="empty group"):
            Group(Machine(4), np.array([], dtype=np.int64))

    def test_duplicate_ranks_rejected(self):
        from repro.machine import Group

        with pytest.raises(ValueError, match="distinct"):
            Group(Machine(4), np.array([0, 1, 1]))

    def test_out_of_range_ranks_rejected(self):
        from repro.machine import Group

        with pytest.raises(ValueError, match="out of range"):
            Group(Machine(4), np.array([0, 4]))
        with pytest.raises(ValueError, match="out of range"):
            Group(Machine(4), np.array([-1, 0]))

    def test_scatter_payload_count_mismatch(self):
        g = self._group(4)
        with pytest.raises(ValueError, match="expected 4 payloads"):
            g.scatter([np.ones(2)] * 3)

    def test_gather_payload_count_mismatch(self):
        g = self._group(4)
        with pytest.raises(ValueError, match="expected 4 payloads"):
            g.gather([np.ones(2)] * 5)

    @pytest.mark.parametrize("root", [-1, 4, 17])
    def test_out_of_range_root_rejected_everywhere(self, root):
        g = self._group(4)
        payloads = [np.ones(2)] * 4
        with pytest.raises(ValueError, match="root index"):
            g.bcast(payloads[0], root=root)
        with pytest.raises(ValueError, match="root index"):
            g.reduce(payloads, np.add, root=root)
        with pytest.raises(ValueError, match="root index"):
            g.sparse_reduce(payloads, np.add, root=root)
        with pytest.raises(ValueError, match="root index"):
            g.scatter(payloads, root=root)
        with pytest.raises(ValueError, match="root index"):
            g.gather(payloads, root=root)

    def test_schema_mismatched_payload_rejected_by_sizing(self):
        """Unsizeable payload types fail loudly in payload_words, so a
        schema mismatch cannot silently be charged as zero words."""
        g = self._group(2)
        with pytest.raises(TypeError, match="cannot size payload"):
            g.bcast(object())


class TestAdaptiveSamplerFaults:
    """The adaptive (ε, δ) sampler under injected faults: probabilistic
    crashes are absorbed without double-counting a batch, and a blown
    deadline is terminal through the same ladder as mfbc."""

    KW = dict(epsilon=0.25, delta=0.2, seed=0, batch_size=8)

    def test_probabilistic_crashes_keep_bound_intact(self):
        from repro.core.approx import adaptive_bc
        from repro.graphs import uniform_random_graph_nm

        g = uniform_random_graph_nm(40, 4.0, seed=1)
        quiet = Machine(6, faults="off", elastic="off")
        ref = adaptive_bc(g, engine=DistributedEngine(quiet), **self.KW)
        m = Machine(6, faults="seed:5,crash:0.02,limit:2", elastic="on")
        res = adaptive_bc(g, engine=DistributedEngine(m), **self.KW)
        assert m.faults.injected == 2
        assert [(r.p_before, r.p_after) for r in m.recoveries] == [(6, 5), (5, 4)]
        # bound intact and no batch folded twice: bit-identical, sample
        # for sample, to the fault-free run
        assert res.converged and res.width <= res.epsilon
        assert np.array_equal(res.scores, ref.scores)
        assert res.samples_used == ref.samples_used

    def test_deadline_is_terminal_in_adaptive(self):
        from repro.core.approx import adaptive_bc
        from repro.faults import DeadlineExceeded
        from repro.graphs import uniform_random_graph_nm

        g = uniform_random_graph_nm(40, 4.0, seed=1)
        m = Machine(4, deadline=1e-4, faults="seed:0", elastic="on")
        with pytest.raises(DeadlineExceeded):
            adaptive_bc(g, engine=DistributedEngine(m), retries=3, **self.KW)
        actions = [(e.kind, e.action, e.site) for e in m.faults.events]
        assert ("batch", "abandoned", "adaptive_bc") in actions
        assert m.recoveries == []
