"""Distributed MFBC on the simulated machine: equivalence + cost sanity."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import mfbc
from repro.dist import DistMat, DistributedEngine
from repro.machine.grid import near_square_shape
from repro.graphs import rmat_graph, uniform_random_graph_nm, with_random_weights
from repro.machine import Machine
from repro.machine.machine import MemoryLimitExceeded
from repro.spgemm import AutoPolicy, PinnedPolicy, Plan, Square2DPolicy


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph_nm(60, 5.0, seed=21)


@pytest.fixture(scope="module")
def reference(graph):
    return mfbc(graph, batch_size=15).scores


class TestEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_auto_policy(self, graph, reference, p):
        machine = Machine(p)
        res = mfbc(graph, batch_size=15, engine=DistributedEngine(machine))
        assert np.allclose(res.scores, reference, atol=1e-8)

    def test_ca_mfbc_policy(self, graph, reference):
        machine = Machine(16)
        eng = DistributedEngine(machine, policy=PinnedPolicy.ca_mfbc(16, c=4))
        res = mfbc(graph, batch_size=15, engine=eng)
        assert np.allclose(res.scores, reference, atol=1e-8)

    def test_square2d_policy(self, graph, reference):
        machine = Machine(9)
        eng = DistributedEngine(machine, policy=Square2DPolicy())
        res = mfbc(graph, batch_size=15, engine=eng)
        assert np.allclose(res.scores, reference, atol=1e-8)

    def test_weighted_distributed(self):
        g = with_random_weights(uniform_random_graph_nm(40, 4.0, seed=23), 1, 9, seed=3)
        ref = mfbc(g, batch_size=10).scores
        machine = Machine(4)
        res = mfbc(g, batch_size=10, engine=DistributedEngine(machine))
        assert np.allclose(res.scores, ref, atol=1e-8)

    def test_directed_distributed(self):
        g = uniform_random_graph_nm(40, 4.0, directed=True, seed=29)
        ref = mfbc(g, batch_size=10).scores
        machine = Machine(6)
        res = mfbc(g, batch_size=10, engine=DistributedEngine(machine))
        assert np.allclose(res.scores, ref, atol=1e-8)


class TestLedger:
    def test_costs_accumulate(self, graph):
        machine = Machine(8)
        mfbc(graph, batch_size=15, max_batches=1, engine=DistributedEngine(machine))
        snap = machine.ledger.snapshot()
        assert snap["words"] > 0 and snap["msgs"] > 0 and snap["time"] > 0
        assert snap["comm_time"] <= snap["time"]

    def test_plan_log_populated(self, graph):
        machine = Machine(8)
        eng = DistributedEngine(machine)
        mfbc(graph, batch_size=15, max_batches=1, engine=eng)
        assert len(eng.plan_log) > 0
        assert all(pl.p == 8 for pl in eng.plan_log)

    def test_critical_words_decrease_with_p(self, graph):
        """More ranks → smaller per-rank panels → fewer critical-path words
        (the strong-scaling effect of Theorem 5.1)."""
        words = {}
        for p in (2, 16):
            machine = Machine(p)
            mfbc(
                graph,
                batch_size=15,
                max_batches=1,
                engine=DistributedEngine(machine),
            )
            words[p] = machine.ledger.critical_words()
        assert words[16] < words[2]

    def test_replication_amortized_across_batches(self, graph):
        """With an invariant adjacency, later batches must not pay the
        replication again: per-batch traffic should not grow."""
        machine = Machine(4)
        eng = DistributedEngine(machine, policy=PinnedPolicy(Plan(2, 2, 1, "B", "AB")))
        mfbc(graph, batch_size=15, max_batches=1, engine=eng)
        t1 = machine.ledger.total_words
        mfbc(graph, batch_size=15, max_batches=1, engine=eng)
        t2 = machine.ledger.total_words - t1
        # second run reuses the cached replicas and the cached adjacency —
        # but re-distributes the adjacency in engine.adjacency(); allow a
        # modest increase only
        assert t2 <= t1 * 1.1


class TestPinnedAdjacency:
    def test_one_adjacency_per_graph(self, graph):
        machine = Machine(4, faults="off", elastic="off", check="off")
        engine = DistributedEngine(machine)
        adj = engine.adjacency(graph)
        charged = machine.ledger.snapshot()
        assert engine.adjacency(graph) is adj
        assert machine.ledger.snapshot() == charged  # a hit moves nothing
        mfbc(graph, batch_size=15, engine=engine, max_batches=1)
        assert engine.adjacency(graph) is adj and len(engine._adjacency) == 1

    def test_release_forgets_the_pinned_adjacency(self, graph):
        engine = DistributedEngine(Machine(4, faults="off", elastic="off", check="off"))
        adj = engine.adjacency(graph)
        engine.release_invariants()
        assert engine.adjacency(graph) is not adj
        assert len(engine._adjacency) == 1

    @pytest.mark.parametrize(
        "policy, key",
        [(AutoPolicy, ("1dB",)), (lambda: PinnedPolicy.ca_mfbc(16, 4), ("3dB", 4, 2, 2))],
        ids=["1D-B", "3D-B"],
    )
    def test_release_frees_the_pinned_pair_and_its_replicas(self, policy, key):
        """After ``release_invariants()`` the pinned adjacency, its transpose
        and every replica are freed by refcount alone: no replica memo holds
        the matrix it belongs to (a 3D memo would if layer 0 were the
        operand itself)."""
        g = rmat_graph(6, 8, seed=0)
        machine = Machine(16, faults="off", elastic="off", check="off", memory_words="off")
        engine = DistributedEngine(machine, policy=policy())
        unpinned = machine.memory_used()
        mfbc(g, batch_size=16, engine=engine, max_batches=1)
        adj = engine.adjacency(g)
        pair = (adj, adj.transpose())
        refs = [weakref.ref(m) for m in pair]
        for m in pair:
            replicas = m._replicas[key]
            copies = replicas if isinstance(replicas, list) else [replicas]
            refs += [weakref.ref(r) for r in copies]
        del adj, pair, m, replicas, copies
        gc.disable()
        try:
            engine.release_invariants()
            assert [r() for r in refs] == [None] * len(refs)
            assert machine.memory_used() == unpinned
        finally:
            gc.enable()


class TestEveryVariantEndToEnd:
    """MFBC end-to-end under each pinned plan family — the strongest
    integration net over the variant implementations."""

    @pytest.mark.parametrize("x", ["A", "B", "C"])
    @pytest.mark.parametrize("yz", ["AB", "AC", "BC"])
    def test_pinned_3d_variants(self, graph, reference, x, yz):
        machine = Machine(8)
        eng = DistributedEngine(machine, policy=PinnedPolicy(Plan(2, 2, 2, x, yz)))
        res = mfbc(graph, batch_size=15, max_batches=2, engine=eng)
        ref = mfbc(graph, batch_size=15, max_batches=2).scores
        assert np.allclose(res.scores, ref, atol=1e-8), (x, yz)

    @pytest.mark.parametrize("x", ["A", "B", "C"])
    def test_pinned_1d_variants(self, graph, x):
        machine = Machine(4)
        eng = DistributedEngine(machine, policy=PinnedPolicy(Plan(4, 1, 1, x, "AB")))
        res = mfbc(graph, batch_size=15, max_batches=2, engine=eng)
        ref = mfbc(graph, batch_size=15, max_batches=2).scores
        assert np.allclose(res.scores, ref, atol=1e-8), x

    @pytest.mark.parametrize("yz", ["AB", "AC", "BC"])
    def test_pinned_2d_variants(self, graph, yz):
        machine = Machine(6)
        eng = DistributedEngine(machine, policy=PinnedPolicy(Plan(1, 2, 3, "A", yz)))
        res = mfbc(graph, batch_size=15, max_batches=2, engine=eng)
        ref = mfbc(graph, batch_size=15, max_batches=2).scores
        assert np.allclose(res.scores, ref, atol=1e-8), yz


class TestMasksReadInPlace:
    """Every masked product of a run — MFBF's complemented T, MFBr's T and
    Z — reads its mask where it rests: no mask is gathered."""

    @pytest.mark.parametrize(
        "policy",
        [AutoPolicy(), Square2DPolicy(), PinnedPolicy.ca_mfbc(16, c=4)],
        ids=["auto", "square2d", "ca"],
    )
    def test_no_mask_is_gathered(self, graph, reference, monkeypatch, policy):
        masks, gathered = {}, []  # masks held, so no id is recycled
        spgemm, gather = DistributedEngine.spgemm, DistMat.gather

        def recording(self, a, b, spec, *, mask=None):
            if mask is not None:
                masks[id(mask)] = mask
            return spgemm(self, a, b, spec, mask=mask)

        def watched(self, *args, **kwargs):
            # a checked run's validation read (REPRO_CHECK) peeks at tiles,
            # uncharged, outside the product: only a product's gather counts
            if id(self) in masks and not kwargs.get("peek"):
                gathered.append(self)
            return gather(self, *args, **kwargs)

        monkeypatch.setattr(DistributedEngine, "spgemm", recording)
        monkeypatch.setattr(DistMat, "gather", watched)
        p = 9 if isinstance(policy, Square2DPolicy) else 16
        engine = DistributedEngine(Machine(p), policy=policy)
        res = mfbc(graph, batch_size=15, engine=engine)
        assert np.allclose(res.scores, reference, atol=1e-8)
        assert masks and not gathered


class TestMemoryBudget:
    def test_budget_violation_raises(self, graph):
        machine = Machine(4, memory_words=4)
        with pytest.raises(MemoryLimitExceeded):
            mfbc(
                graph,
                batch_size=15,
                max_batches=1,
                engine=DistributedEngine(machine),
            )

    def test_feasible_budget_runs(self, graph, reference):
        machine = Machine(4, memory_words=100_000)
        res = mfbc(graph, batch_size=15, engine=DistributedEngine(machine))
        assert np.allclose(res.scores, reference, atol=1e-8)


class TestNearSquare:
    def test_shapes(self):
        assert near_square_shape(1) == (1, 1)
        assert near_square_shape(12) == (3, 4)
        assert near_square_shape(16) == (4, 4)
        assert near_square_shape(7) == (1, 7)
