"""The simulated machine: cost charging, critical paths, collectives, memory,
the local-work loop, and the keyword-only constructor audit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import TROPICAL
from repro.algebra.monoid import MinMonoid
from repro.core.engine import Engine, SequentialEngine
from repro.dist import DistMat, DistributedEngine
from repro.faults import DeadlineExceeded
from repro.machine import (
    CostParams,
    Group,
    LocalExecutor,
    Machine,
    MemoryLimitExceeded,
    payload_words,
)
from repro.machine import executor as executor_module
from repro.sparse import SpMat
from repro.spgemm.selector import PinnedPolicy

from conftest import random_weight_spmat

W = MinMonoid()


class TestCostParams:
    def test_defaults_valid(self):
        c = CostParams()
        assert c.alpha >= c.beta

    def test_alpha_below_beta_raises(self):
        with pytest.raises(ValueError, match="alpha >= beta"):
            CostParams(alpha=1e-12, beta=1e-6)


class TestMachineBasics:
    def test_bad_p_raises(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_world_group(self):
        m = Machine(4)
        assert m.world().size == 4


class TestCharging:
    def test_collective_cost_formula(self):
        m = Machine(4, cost=CostParams(alpha=1.0, beta=0.5, compute_rate=1.0))
        m.charge_collective(np.arange(4), words_per_rank=10, weight=2.0)
        # 2*(10*0.5 + 2*1.0) = 14 seconds; words 20; msgs 2*log2(4)=4
        assert m.ledger.critical_time() == pytest.approx(14.0)
        assert m.ledger.critical_words() == pytest.approx(20.0)
        assert m.ledger.critical_msgs() == pytest.approx(4.0)

    def test_single_rank_collective_free(self):
        m = Machine(4)
        m.charge_collective([2], 100.0)
        assert m.ledger.critical_time() == 0.0

    def test_critical_path_max_merge(self):
        """Two disjoint groups charge in parallel; a spanning collective
        starts from the max."""
        m = Machine(4, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0))
        m.charge_collective([0, 1], 5.0, weight=1.0)  # t = 5 + 1 = 6
        m.charge_collective([2, 3], 2.0, weight=1.0)  # t = 2 + 1 = 3
        assert m.ledger.critical_time() == pytest.approx(6.0)
        m.charge_collective(np.arange(4), 1.0, weight=1.0)  # starts at 6
        assert m.ledger.critical_time() == pytest.approx(6.0 + 1.0 + 2.0)

    def test_parallel_groups_do_not_stack(self):
        m = Machine(4, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0))
        for _ in range(3):
            m.charge_collective([0, 1], 1.0, weight=1.0)
        m2 = Machine(4, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0))
        for _ in range(3):
            m2.charge_collective([0, 1], 1.0, weight=1.0)
            m2.charge_collective([2, 3], 1.0, weight=1.0)
        # disjoint charging doesn't lengthen the critical path
        assert m.ledger.critical_time() == m2.ledger.critical_time()

    def test_pointtopoint(self):
        m = Machine(3, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0))
        m.charge_pointtopoint(0, 1, 4.0)
        assert m.ledger.critical_time() == pytest.approx(5.0)
        assert m.ledger.critical_msgs() == 1
        assert m.ledger.time[2] == 0.0

    def test_compute_charge(self):
        m = Machine(2, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=100.0))
        m.charge_compute([0], 200.0)
        assert m.ledger.time[0] == pytest.approx(2.0)
        assert m.ledger.comm_time[0] == 0.0

    def test_barrier_syncs(self):
        m = Machine(2, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0))
        m.charge_compute([0], 5.0)
        m.barrier()
        assert m.ledger.time[1] == m.ledger.time[0]

    def test_totals_accumulate(self):
        m = Machine(4)
        m.charge_collective(np.arange(4), 10.0, weight=1.0)
        assert m.ledger.total_words == pytest.approx(40.0)
        snap = m.ledger.snapshot()
        assert set(snap) >= {"time", "words", "msgs", "comm_time"}

    def test_category_breakdown(self):
        m = Machine(4)
        m.charge_collective(np.arange(4), 10.0, weight=1.0, category="bcast")
        m.charge_collective(np.arange(4), 3.0, weight=2.0, category="reduce")
        m.charge_collective(np.arange(4), 5.0, weight=1.0, category="bcast")
        bd = m.ledger.traffic_breakdown()
        assert bd["bcast"] == pytest.approx(60.0)
        assert bd["reduce"] == pytest.approx(24.0)
        assert list(bd)[0] == "bcast"  # sorted descending

    def test_categories_from_real_run(self):
        """A distributed MFBC run populates the expected categories."""
        from repro.core import mfbc
        from repro.dist import DistributedEngine
        from repro.graphs import uniform_random_graph_nm

        g = uniform_random_graph_nm(40, 4.0, seed=5)
        m = Machine(4)
        mfbc(g, batch_size=10, max_batches=1, engine=DistributedEngine(m))
        bd = m.ledger.traffic_breakdown()
        assert "input" in bd and "gather" in bd
        assert sum(bd.values()) == pytest.approx(m.ledger.total_words)


class TestMemory:
    def test_limit_enforced(self):
        m = Machine(2, memory_words=100)
        m.allocate(0, 60)
        with pytest.raises(MemoryLimitExceeded):
            m.allocate(0, 50)

    def test_free_releases(self):
        m = Machine(2, memory_words=100)
        m.allocate(0, 60)
        m.free(0, 60)
        m.allocate(0, 90)  # fits again
        assert m.memory_used(0) == 90
        assert m.memory_used() == 90
        m.reset_memory()
        assert m.memory_used() == 0

    def test_peak_tracked_and_reset(self):
        m = Machine(2, memory_words=100)
        m.allocate(0, 60)
        m.free(0, 60)
        m.allocate(0, 30)
        assert m.memory_peak(0) == 60  # high-water mark survives the free
        assert m.memory_peak() == 60
        m.reset_memory()
        assert m.memory_peak() == 0
        assert m.memory_used() == 0

    def test_repeated_runs_on_one_machine_do_not_accumulate(self):
        """Regression: reset_memory must clear both live usage and peaks, so
        back-to-back runs on one Machine can't spuriously exhaust the budget
        or misreport the later run's footprint."""
        m = Machine(2, memory_words=100)
        for _ in range(5):
            m.allocate(0, 90)  # would blow the budget on round 2 if leaked
            m.allocate(1, 90)
            m.reset_memory()
        assert m.memory_used() == 0
        assert m.memory_peak() == 0

    def test_shrink_compacts_memory_accounting(self):
        """Survivors keep their usage *and* peaks, resliced onto 0..p'-1."""
        m = Machine(4, memory_words=1 << 30, faults="off", elastic="off")
        for r in range(4):
            m.allocate(r, 100 * (r + 1))
        m.free(3, 150)  # rank 3: used 250, peak 400
        mapping = m.shrink([1])
        assert m.p == 3 and mapping[1] == -1
        assert [m.memory_used(r) for r in range(3)] == [100, 300, 250]
        assert [m.memory_peak(r) for r in range(3)] == [100, 300, 400]
        assert m.memory_peak() == 400  # machine-wide peak survives the shrink

    def test_shrink_drops_dead_rank_from_budget_checks(self):
        """A stale rank index fails loudly after the shrink, like groups do."""
        m = Machine(3, memory_words=100, faults="off", elastic="off")
        m.allocate(2, 90)
        m.shrink([2])
        assert m.p == 2
        with pytest.raises(IndexError):
            m.allocate(2, 1)

    def test_reset_memory_after_shrink_and_recovery(self):
        """The elastic-recovery interplay: a post-recovery reset starts the
        next run clean on the survivor grid without resurrecting the dead
        rank's accounting."""
        m = Machine(4, memory_words=1 << 30, faults="off", elastic="off")
        for r in range(4):
            m.allocate(r, 50)
        m.shrink([0, 2])
        assert m.p == 2
        m.reset_memory()
        assert m.memory_used() == 0 and m.memory_peak() == 0
        m.allocate(1, 70)  # the compacted survivor index, freshly charged
        assert m.memory_used() == 70 and m.memory_peak(1) == 70


def _charge_each(machine, ranks, ops):
    """The per-rank reference of one step's compute charge: one call per
    rank, stopping at the first that raises."""
    for rank, o in zip(ranks, ops):
        machine.charge_compute([rank], o)


def _allocate_each(machine, charges):
    """The per-rank reference of ``charge_allocation``: ``allocate`` rank by
    rank in ``charges`` order, rolled back on a raise."""
    done = []
    try:
        for rank, words in charges.items():
            machine.allocate(rank, words)
            done.append((rank, words))
    except MemoryLimitExceeded:
        for rank, words in done:
            machine.free(rank, words)
        raise


def _outcome(fn):
    try:
        fn()
    except (DeadlineExceeded, MemoryLimitExceeded) as exc:
        return type(exc)
    return None


class TestBatchedCharges:
    """A step's vector charge is its per-rank charges, in rank order."""

    @given(
        st.integers(1, 6).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.integers(0, 50), min_size=p, max_size=p),
                st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, 40)), max_size=10),
            )
        ),
        st.none() | st.integers(1, 120),
    )
    def test_compute_vector_keeps_the_deadline_trip_point(self, case, deadline):
        p, start, step = case
        ranks, ops = [r for r, _ in step], [float(o) for _, o in step]
        machines = [
            Machine(p, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=2.0))
            for _ in range(2)
        ]
        for m in machines:
            m.charge_compute(np.arange(p), start)  # clocks start uneven
            m.deadline = deadline
        outcomes = [
            _outcome(lambda: machines[0].charge_compute(ranks, ops)),
            _outcome(lambda: _charge_each(machines[1], ranks, ops)),
        ]
        assert outcomes[0] == outcomes[1]
        vec, each = (m.ledger for m in machines)
        assert np.array_equal(vec.time, each.time)
        assert np.array_equal(vec.compute_per_rank, each.compute_per_rank)
        assert vec.compute_ops == each.compute_ops

    def test_deadline_stops_after_the_first_rank_past_it(self):
        m = Machine(4, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0), deadline=10.0)
        with pytest.raises(DeadlineExceeded):
            m.charge_compute([3, 1, 2, 0], [4.0, 11.0, 12.0, 1.0])
        # rank 3 landed, rank 1 tripped the deadline and landed, 2 and 0 did not
        assert m.ledger.time.tolist() == [0.0, 11.0, 0.0, 4.0]
        assert m.ledger.compute_ops == 15.0

    @given(
        st.integers(1, 5).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.integers(0, 60), min_size=p, max_size=p),
                st.dictionaries(st.integers(0, p - 1), st.integers(0, 60)),
            )
        ),
        st.none() | st.integers(1, 100),
    )
    def test_allocation_equals_the_per_rank_loop(self, case, budget):
        p, start, charges = case
        machines = [Machine(p, memory_words=budget) for _ in range(2)]
        for m in machines:
            m.memory_words = None  # the starting usage may sit over the budget
            for rank, words in enumerate(start):
                m.allocate(rank, words)
                m.free(rank, words // 2)
            m.memory_words = budget
        outcomes = [
            _outcome(lambda: machines[0].charge_allocation(charges)),
            _outcome(lambda: _allocate_each(machines[1], charges)),
        ]
        assert outcomes[0] == outcomes[1]
        assert np.array_equal(machines[0]._mem_used, machines[1]._mem_used)
        assert np.array_equal(machines[0]._mem_peak, machines[1]._mem_peak)

    def test_free_arrays_clamp_at_zero(self):
        m = Machine(3)
        m.charge_allocation({0: 10, 1: 20, 2: 30})
        m.free(np.array([2, 0]), np.array([5, 15]))
        assert m._mem_used.tolist() == [0, 20, 25]
        assert m.memory_peak() == 30


class TestGroups:
    def test_distinct_ranks_required(self):
        m = Machine(4)
        with pytest.raises(ValueError, match="distinct"):
            Group(m, np.array([0, 0]))

    def test_rank_range_checked(self):
        m = Machine(2)
        with pytest.raises(ValueError, match="out of range"):
            Group(m, np.array([5]))

    def test_payload_count_checked(self):
        m = Machine(2)
        g = m.world()
        with pytest.raises(ValueError, match="payloads"):
            g.gather([None])

    def test_bcast_moves_root_payload(self):
        m = Machine(3)
        g = m.world()
        out = g.bcast(np.arange(4), root=0)
        assert np.array_equal(out, np.arange(4))
        # weight 2, sized by the payload, tagged with the op's category
        assert m.ledger.critical_words() == 2 * 4
        assert m.ledger.category_words == {"bcast": 2 * 4 * 3}

    def test_reduce_combines(self):
        m = Machine(3)
        g = m.world()
        out = g.reduce([np.ones(3), np.ones(3) * 2, None], lambda a, b: a + b)
        assert np.allclose(out, [3, 3, 3])

    def test_reduce_all_none(self):
        m = Machine(2)
        assert m.world().reduce([None, None], lambda a, b: a + b) is None

    def test_allreduce(self):
        m = Machine(2)
        out = m.world().allreduce([np.ones(2), np.ones(2)], lambda a, b: a + b)
        assert np.allclose(out, 2)
        # one reduce and one bcast, each weight 2 over the 2-word state
        assert m.ledger.category_words == {"reduce": 8.0, "bcast": 8.0}

    def test_sparse_reduce_charges_output_size(self):
        m = Machine(2, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1.0))
        small = SpMat(4, 4, np.array([0]), np.array([0]), {"w": np.ones(1)}, W)
        big = SpMat(
            4, 4, np.arange(4), np.arange(4), {"w": np.ones(4)}, W
        )
        out = m.world().sparse_reduce([small, big], lambda a, b: a.combine(b))
        assert out.nnz == 4
        # cost charged against the reduced result, not the sum of inputs
        assert m.ledger.critical_words() == pytest.approx(2 * out.words())

    def test_scatter_gather_allgather(self):
        m = Machine(2)
        g = m.world()
        parts = [np.zeros(2), np.ones(3)]
        assert np.allclose(g.scatter(parts)[1], 1)
        # scatter / gather charge everything the root holds, weight 1
        assert m.ledger.critical_words() == 5
        gathered = g.gather(parts)
        assert len(gathered) == 2
        assert m.ledger.critical_words() == 10
        ag = g.allgather(parts)
        assert len(ag) == 2 and np.allclose(ag[1], 1)
        assert m.ledger.category_words == {
            "scatter": 10.0, "gather": 10.0, "allgather": 10.0
        }

    def test_alltoall_charges_busiest_rank(self):
        m = Machine(3)
        g = m.world()
        a, b = np.ones(4), np.ones(2)
        # rank 0 sends a to rank 1 and b to rank 2; rank 2 sends b to rank 1
        out = g.alltoall([[a, b], [], [b]], [[], [a, b], [b]])
        assert [len(x) for x in out] == [0, 2, 1] and out[1][0] is a
        # busiest rank: 0 sent 6 words, 1 received 6 → x = 6, weight 1
        assert m.ledger.critical_words() == 6
        assert m.ledger.critical_msgs() == 2  # ⌈log₂ 3⌉
        # nothing changes rank → free
        g.alltoall([[], [], []], [[], [], []])
        assert m.ledger.total_msgs == 2 * 3

    def test_single_rank_group_is_free_and_undelivered(self):
        m = Machine(4, faults="seed:0,corrupt:1,checksum:1")
        g = m.group([2])
        payload = np.ones(8)
        assert g.bcast(payload) is payload
        assert g.sparse_reduce([payload], np.add) is payload
        assert m.ledger.total_msgs == 0 and m.faults.events == []


class TestPayloadWords:
    def test_none(self):
        assert payload_words(None) == 0

    def test_array(self):
        assert payload_words(np.zeros(10)) == 10

    def test_spmat(self):
        s = SpMat(2, 2, np.array([0]), np.array([1]), {"w": np.ones(1)}, W)
        assert payload_words(s) == s.words()

    def test_containers(self):
        assert payload_words([np.zeros(2), np.zeros(3)]) == 5
        assert payload_words({"a": np.zeros(2)}) == 2

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            payload_words(object())


class TestLocalExecutor:
    def test_batches_run_in_submission_order_with_the_kernel_mode(
        self, rng, monkeypatch
    ):
        ex = Machine(4).executor
        assert type(ex) is LocalExecutor
        assert ex.run_tasks([lambda i=i: i * i for i in range(8)]) == [
            i * i for i in range(8)
        ]
        spec = TROPICAL.matmul_spec()
        pairs = [
            (random_weight_spmat(rng, 6, 6, 0.4), random_weight_spmat(rng, 6, 6, 0.4))
            for _ in range(5)
        ]
        masks = [None, pairs[0][0], None, None, pairs[1][1]]
        calls = []

        def recording(x, y, op, **kw):
            calls.append((x, y, op, kw))
            return len(calls)

        monkeypatch.setattr(executor_module, "spgemm", recording)
        got = ex.run_spgemm(pairs, spec, masks=masks)
        assert got == [1, 2, 3, 4, 5]
        for (x, y, op, kw), (px, py), mk in zip(calls, pairs, masks, strict=True):
            assert x is px and y is py and op is spec
            # no kernel keyword: every local product dispatches (spgemm's "auto")
            assert kw == {"mask": mk}
        assert ex.run_spgemm([], spec) == []


class TestKeywordOnlySignatures:
    def test_machine_rejects_positional_cost(self):
        with pytest.raises(TypeError):
            Machine(4, CostParams())

    def test_engine_rejects_positional_policy(self):
        with pytest.raises(TypeError):
            DistributedEngine(Machine(4), PinnedPolicy.ca_mfbc(4, 1))

    def test_distribute_rejects_positional_splits(self, rng):
        machine = Machine(4)
        mat = random_weight_spmat(rng, 10, 10, 0.3)
        ranks2d = np.arange(4).reshape(2, 2)
        with pytest.raises(TypeError):
            DistMat.distribute(
                mat, machine, ranks2d, np.array([0, 5, 10]), np.array([0, 5, 10])
            )

    def test_keyword_calls_work(self, rng):
        machine = Machine(4, cost=CostParams(), memory_words=None)
        eng = DistributedEngine(machine, policy=None)
        assert eng.machine is machine
        DistMat.distribute(
            random_weight_spmat(rng, 8, 8, 0.3),
            machine,
            np.arange(4).reshape(2, 2),
        )


class TestEngineProtocol:
    def test_runtime_checks(self):
        assert isinstance(SequentialEngine(), Engine)
        assert isinstance(DistributedEngine(Machine(2)), Engine)

