"""repro.elastic: in-flight rank-failure recovery.

Covers the on/off spec grammar, the grid-shrink helpers
(``survivor_map`` / ``nearest_feasible_p`` / ``Machine.shrink``), the
Group epoch guard, the deadline guard, and the acceptance bars: seeded
runs with one and two injected mid-batch rank failures complete *without
restart*, bit-identical to fault-free runs of the same configuration,
across the §5.2 variant policies, with every pinned adjacency rebuilt from
its graph — the one redundant copy, so armed recovery costs nothing — and
post-recovery ledger invariants intact.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.check import check_ledger
from repro.check import strategies as cst
from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.elastic import RecoveryError, RecoveryReport, recover_engine, resolve_elastic
from repro.faults import DeadlineExceeded, RankFailure
from repro.graphs import rmat_graph, uniform_random_graph_nm
from repro.machine import Machine
from repro.machine.grid import near_square_shape, nearest_feasible_p, survivor_map
from repro.spgemm import PinnedPolicy, Square2DPolicy

from conftest import assert_fired

# one injected mid-batch crash; two crashes in distinct batches
ONE_CRASH = "seed:3,crash@4:2"
TWO_CRASHES = "seed:3,crash@4:2,crash@16:1"


def quiet(p, **kw):
    """A machine opted out of any ambient REPRO_FAULTS / REPRO_ELASTIC
    (the CI ladder leg sets both) — for references and unit fixtures."""
    kw.setdefault("faults", "off")
    kw.setdefault("elastic", "off")
    return Machine(p, **kw)


def scores_of(g, machine, *, policy=None, **kw):
    eng = DistributedEngine(machine, policy=policy)
    return mfbc(g, batch_size=8, engine=eng, **kw).scores


# ---------------------------------------------------------------------------
# spec grammar + resolution
# ---------------------------------------------------------------------------


class TestElasticSpec:
    @pytest.mark.parametrize("spec", ["on", "1", "true", "ON", True])
    def test_aliases_for_default(self, spec):
        assert resolve_elastic(spec) is True

    @pytest.mark.parametrize("spec", ["", "none", "off", "0", "false"])
    def test_off_aliases(self, spec):
        assert resolve_elastic(spec) is None

    # the three retired spellings get the grammar error, with no alias
    @pytest.mark.parametrize(
        "spec", ["replica", "REPLICA", "replica:2", "source", "replica:x", "parity", "replica:-1"]
    )
    def test_bad_specs(self, spec, monkeypatch):
        with pytest.raises(ValueError, match="expected 'on' or 'off'"):
            resolve_elastic(spec)
        monkeypatch.setenv("REPRO_ELASTIC", spec)
        with pytest.raises(ValueError, match=r"REPRO_ELASTIC.*\(expected on\)"):
            Machine(2)

    def test_policy_passthrough_and_type_error(self):
        assert resolve_elastic(True) is True
        with pytest.raises(TypeError):
            resolve_elastic(42)

    def test_machine_threads_policy_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_ELASTIC", raising=False)
        m = Machine(4, elastic="on")
        assert m.elastic is True
        assert "elastic=on" in repr(m)
        assert Machine(4).elastic is None


# ---------------------------------------------------------------------------
# grid helpers + shrink
# ---------------------------------------------------------------------------


class TestGridHelpers:
    def test_survivor_map_basic(self):
        mapping = survivor_map(6, [2, 4])
        assert mapping.tolist() == [0, 1, -1, 2, -1, 3]

    def test_survivor_map_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            survivor_map(4, [4])
        with pytest.raises(ValueError, match="all"):
            survivor_map(3, [0, 1, 2])

    def test_nearest_feasible_p(self):
        assert nearest_feasible_p(7) == 7  # None accepts everything
        square = lambda q: int(q**0.5) ** 2 == q
        assert nearest_feasible_p(8, square) == 4
        with pytest.raises(ValueError, match="no feasible grid"):
            nearest_feasible_p(5, lambda q: False)
        with pytest.raises(ValueError, match="no feasible grid"):
            nearest_feasible_p(0)

    @settings(max_examples=40, deadline=None)
    @given(cst.survivor_sets())
    def test_survivor_map_is_a_compaction(self, case):
        p, dead = case
        mapping = survivor_map(p, dead)
        alive = [r for r in range(p) if r not in dead]
        assert all(mapping[r] == -1 for r in dead)
        # survivors are renumbered 0..p'-1 in ascending order
        assert [mapping[r] for r in alive] == list(range(len(alive)))

    @settings(max_examples=30, deadline=None)
    @given(cst.survivor_sets(max_p=8))
    def test_shrink_compacts_ledger(self, case):
        p, dead = case
        m = quiet(p)
        m.charge_collective(np.arange(p), 100.0, weight=1.0)
        before = m.ledger.time.copy()
        epoch0 = m.epoch
        mapping = m.shrink(dead)
        alive = np.flatnonzero(mapping >= 0)
        assert m.p == len(alive) == p - len(dead)
        assert m.epoch == epoch0 + 1
        assert np.array_equal(m.ledger.time, before[alive])
        for name in ("time", "comm_time", "words", "msgs", "compute_per_rank"):
            assert len(getattr(m.ledger, name)) == m.p
        assert check_ledger(m) == []

    def test_group_epoch_guard(self):
        m = quiet(4)
        g = m.group(np.arange(4))
        g.bcast(np.zeros(2))
        m.shrink([3])
        with pytest.raises(RuntimeError, match="epoch"):
            g.bcast(np.zeros(2))


# ---------------------------------------------------------------------------
# what recovery rebuilds from
# ---------------------------------------------------------------------------


class TestRedundancy:
    """The one redundant copy of the pinned adjacency is its graph, which the
    engine keeps beside it: nothing else is held or shipped for recovery."""

    def test_source_mode_is_free_while_healthy(self, graph):
        runs = []
        for elastic in ("off", "on"):
            m = quiet(4, elastic=elastic)
            runs.append((scores_of(graph, m), m.ledger.snapshot(), m.memory_peak()))
        (off_scores, *off_cost), (on_scores, *on_cost) = runs
        assert np.array_equal(on_scores, off_scores)
        assert on_cost == off_cost

    def test_no_redundancy_raises(self):
        m = quiet(4)
        with pytest.raises(RecoveryError, match="elastic recovery off"):
            recover_engine(DistributedEngine(m), RankFailure(1, step=1, site="bcast"))


# ---------------------------------------------------------------------------
# deadline guard
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_invalid_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            Machine(4, deadline=0.0)

    def test_charge_past_deadline_raises(self):
        m = quiet(4, deadline=1e-9)
        with pytest.raises(DeadlineExceeded) as ei:
            m.charge_collective(np.arange(4), 1e6, weight=1.0)
        exc = ei.value
        assert exc.modeled > exc.deadline == 1e-9
        # the charge that tripped the guard stays on the books
        assert m.ledger.critical_time() > 0.0

    def test_deadline_is_terminal_in_mfbc(self, small_undirected):
        # neither retries nor elastic recovery may mask a blown deadline;
        # the budget admits setup (~2.6 µs modeled) but not the batch loop
        m = Machine(4, deadline=1e-4, faults="seed:0", elastic="on")
        with pytest.raises(DeadlineExceeded):
            scores_of(small_undirected, m, retries=3)
        actions = [(e.kind, e.action) for e in m.faults.events]
        assert ("deadline", "detected") in actions
        assert ("batch", "abandoned") in actions
        assert m.recoveries == []

    def test_generous_deadline_is_inert(self, small_undirected):
        ref = mfbc(small_undirected, batch_size=8).scores
        m = quiet(4, deadline=1e9)
        assert np.array_equal(scores_of(small_undirected, m), ref)


# ---------------------------------------------------------------------------
# end-to-end recovery: the acceptance matrix
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph_nm(40, 4.0, seed=1)


def _policy(name, p):
    if name == "ca":
        return PinnedPolicy.ca_mfbc(p, 2)
    if name == "square2d":
        return Square2DPolicy()
    return None


class TestRecoveryDifferential:
    @pytest.mark.parametrize(
        "policy_name,p,p_after", [("auto", 6, 5), ("square2d", 9, 4), ("ca", 8, 2)]
    )
    def test_single_failure_bit_identical(self, graph, policy_name, p, p_after):
        """One injected mid-batch rank failure: the run completes without
        restart, shrinks the grid, and the scores are bit-identical to
        fault-free, under cheap checking.

        The crash lands in the first batch, so every batch effectively
        executes at the post-recovery configuration; the determinism claim
        is therefore bit-identity with a fault-free run at ``p_after``
        under the rescaled policy.
        """
        ref = scores_of(
            graph, quiet(p_after), policy=_policy(policy_name, p_after)
        )
        m = Machine(p, faults=ONE_CRASH, elastic="on", check="cheap")
        eng = DistributedEngine(m, policy=_policy(policy_name, p))
        res = mfbc(graph, batch_size=8, engine=eng)
        assert np.array_equal(res.scores, ref)
        assert len(m.recoveries) == 1
        rep = m.recoveries[0]
        assert isinstance(rep, RecoveryReport)
        assert rep.p_before == p and rep.p_after == m.p == p_after
        actions = [(e.kind, e.action) for e in m.faults.events]
        assert ("crash", "recovered") in actions
        assert_fired(m)
        assert eng.stats["mismatches"] == 0
        assert check_ledger(m) == []

    def test_two_failures_bit_identical(self, graph):
        ref = scores_of(graph, quiet(6))
        m = Machine(6, faults=TWO_CRASHES, elastic="on", check="cheap")
        res = scores_of(graph, m)
        assert np.array_equal(res, ref)
        assert [(r.p_before, r.p_after) for r in m.recoveries] == [(6, 5), (5, 4)]
        assert m.faults.injected == 2
        assert_fired(m)
        assert check_ledger(m) == []

    def test_source_redundancy_recovers(self, graph):
        """The source of a recovery is the graph: the engine pins its
        adjacency again on the survivors' home grid — one charged scatter.
        The pre-fault matrix is no longer the engine's, and it is collected
        (by refcount) once the last caller holding it lets go."""
        m = Machine(6, faults=ONE_CRASH, elastic="on")
        eng = DistributedEngine(m)
        old = eng.adjacency(graph)
        ref = mfbc(graph, batch_size=8, engine=DistributedEngine(quiet(6))).scores
        assert np.array_equal(mfbc(graph, batch_size=8, engine=eng).scores, ref)
        assert_fired(m)
        adj = eng.adjacency(graph)
        assert m.p == 5 and adj is not old
        assert np.array_equal(adj.layout.ranks2d, eng.home_ranks2d)
        assert adj.layout.ranks2d.shape == near_square_shape(5)
        assert adj.gather(charge=False).equals(graph.adjacency())
        assert m.ledger.category_words["recovery"] > 0.0
        gone = weakref.ref(old)
        gc.disable()
        try:
            del old
            assert gone() is None
        finally:
            gc.enable()

    def test_recovery_does_not_consume_retry_budget(self, graph):
        # retries=0 means a plain RankFailure would abort — elastic doesn't
        ref = scores_of(graph, quiet(6))
        m = Machine(6, faults=ONE_CRASH, elastic="on")
        assert np.array_equal(scores_of(graph, m, retries=0), ref)
        assert_fired(m)
        # no elastic (explicitly, the ladder leg sets REPRO_ELASTIC):
        # the same spec aborts
        m2 = Machine(6, faults=ONE_CRASH, elastic="off")
        with pytest.raises(RankFailure):
            scores_of(graph, m2, retries=0)
        assert_fired(m2)

    def test_recovery_charges_ledger(self, graph):
        m = Machine(6, faults=ONE_CRASH, elastic="on")
        scores_of(graph, m)
        cat = m.ledger.category_words
        assert cat.get("recovery", 0.0) > 0.0  # the rebuild's scatter
        assert_fired(m)

    def test_infeasible_grid_degrades_to_retry(self, graph):
        """CA-MFBC pinned at p=4, c=4 has no feasible grid below 4, so
        recovery fails; the driver notes the degradation and falls back to
        the plain retry ladder, which still completes the run."""
        pol = PinnedPolicy.ca_mfbc(4, 4)
        ref = scores_of(graph, quiet(4), policy=PinnedPolicy.ca_mfbc(4, 4))
        m = Machine(4, faults=ONE_CRASH, elastic="on")
        res = scores_of(graph, m, policy=pol, retries=2)
        assert np.array_equal(res, ref)
        assert m.recoveries == []  # no successful elastic recovery
        actions = [(e.kind, e.action) for e in m.faults.events]
        assert ("crash", "degraded") in actions
        assert ("batch", "recovered") in actions  # the retry rung caught it
        assert_fired(m)

    def test_recovery_span_on_obs(self, graph):
        session = obs.enable()
        try:
            m = Machine(6, faults=ONE_CRASH, elastic="on")
            scores_of(graph, m)
        finally:
            obs.disable()
        # the charged redistribution collective is also named "recovery"
        # (after its ledger category); the coordinator span is the one
        # carrying the grid transition
        spans = [
            sp for sp in session.tracer.find("recovery")
            if "p_before" in sp.args
        ]
        assert len(spans) == 1
        sp = spans[0]
        assert sp.args["p_before"] == 6 and sp.args["p_after"] == 5
        assert sp.args["retired"] == 0
        assert_fired(m)

    def test_checkpoint_composes_with_recovery(self, graph, tmp_path):
        """Elastic recovery and per-batch checkpointing stack: the run
        recovers in-flight and the checkpoint file tracks every batch."""
        ref = scores_of(graph, quiet(6))
        m = Machine(6, faults=ONE_CRASH, elastic="on")
        res = scores_of(graph, m, checkpoint=str(tmp_path / "ck.json"))
        assert np.array_equal(res, ref)
        assert len(m.recoveries) == 1
        assert_fired(m)

    def test_survivors_keep_the_rebuilt_invariants_charges(self):
        # accounting restarts at the shrink, before the rebuild: each
        # survivor ends charged exactly the invariant blocks it holds
        g = rmat_graph(7, 8, seed=1)
        m = Machine(4, faults="seed:0,crash@10:1", elastic="on",
                    memory_words="off")
        eng = DistributedEngine(m)
        mfbc(g, sources=np.arange(64), batch_size=32, engine=eng)
        assert m.p == 3 and len(m.recoveries) == 1
        assert_fired(m)
        held = np.zeros(m.p, dtype=np.int64)
        pinned = [m for _, adj in eng._adjacency.values() for m in (adj, adj.transpose())]
        for mat in pinned:
            for (i, j), owner in np.ndenumerate(mat.layout.ranks2d):
                held[owner] += mat.block(i, j).words()
        assert held.min() > 0
        assert [m.memory_used(r) for r in range(m.p)] == held.tolist()

# ---------------------------------------------------------------------------
# adaptive sampler × elastic recovery
# ---------------------------------------------------------------------------


class TestAdaptiveRecovery:
    """The adaptive (ε, δ) sampler rides the same recovery ladder as mfbc:
    an injected crash is absorbed by elastic recovery (or the retry rung),
    the run terminates with its bound intact, and no batch is ever folded
    into the sampler twice — the faulted run is bit-identical to the
    fault-free one, sample for sample."""

    ADAPTIVE_KW = dict(epsilon=0.25, delta=0.2, seed=0, batch_size=8)

    def _run(self, graph, machine, **kw):
        from repro.core.approx import adaptive_bc

        merged = {**self.ADAPTIVE_KW, **kw}
        return adaptive_bc(
            graph, engine=DistributedEngine(machine), **merged
        )

    def test_elastic_recovery_bit_identical(self, graph):
        ref = self._run(graph, quiet(6))
        assert ref.converged
        m = Machine(6, faults=ONE_CRASH, elastic="on")
        res = self._run(graph, m)
        assert np.array_equal(res.scores, ref.scores)
        assert res.width_history == ref.width_history
        # no double-counted batch: exactly the fault-free sample count
        assert res.samples_used == ref.samples_used
        assert res.converged and res.width <= res.epsilon
        assert [(r.p_before, r.p_after) for r in m.recoveries] == [(6, 5)]
        assert m.faults.injected == 1
        assert_fired(m)

    def test_retry_rung_bit_identical_without_elastic(self, graph):
        ref = self._run(graph, quiet(6))
        m = Machine(6, faults=ONE_CRASH, elastic="off")
        res = self._run(graph, m, retries=2)
        assert np.array_equal(res.scores, ref.scores)
        assert res.samples_used == ref.samples_used
        assert m.recoveries == []
        assert_fired(m)
        # the recovery note carries the adaptive driver's site tag
        assert ("batch", "recovered", "adaptive_bc") in [
            (e.kind, e.action, e.site) for e in m.faults.events
        ]

    def test_crash_without_any_ladder_aborts(self, graph):
        m = Machine(6, faults=ONE_CRASH, elastic="off")
        with pytest.raises(RankFailure):
            self._run(graph, m, retries=0)
        assert_fired(m)

    def test_checkpoint_composes_with_recovery(self, graph, tmp_path):
        from repro.core.approx import adaptive_bc

        ref = self._run(graph, quiet(6))
        m = Machine(6, faults=ONE_CRASH, elastic="on")
        res = self._run(graph, m, checkpoint=str(tmp_path / "ad.json"))
        assert np.array_equal(res.scores, ref.scores)
        assert len(m.recoveries) == 1
        assert_fired(m)
        # the persisted sampler state resumes to the same converged answer,
        # even sequentially: the state is folded in sample order on any p
        resumed = adaptive_bc(
            graph, resume_from=str(tmp_path / "ad.json"), **self.ADAPTIVE_KW
        )
        assert np.array_equal(resumed.scores, ref.scores)


# ---------------------------------------------------------------------------
# one ladder: a rank crash and a memory squeeze in the same batch
# ---------------------------------------------------------------------------


class TestCrashAndSqueezeSameBatch:
    """A scripted crash and a per-rank budget hit batch 0 of both drivers,
    with elastic recovery and cheap checking on: the shrink rung and the
    elastic rung are rungs of one ladder, so the batch shrinks, recovers on
    the survivors and completes — bit-identical to the fault-free unbudgeted
    run, with a clean ledger."""

    def _graph(self):
        from repro.graphs import rmat_graph

        return rmat_graph(scale=7, avg_degree=8, seed=1)

    def _machines(self, crash_step):
        ref = Machine(4, faults="off", elastic="off", memory_words=1 << 40)
        # the budget was 11 000 until MFBr stopped forming pairs that cannot
        # count; the unbudgeted peaks fell (mfbc 16 071 -> 9 481,
        # adaptive_bc 12 402 -> 7 495 words/rank) and 6 500 squeezed
        # adaptive_bc only after the crash, so 6 000
        hit = Machine(
            4, memory_words=6_000, faults=f"seed:1,crash@{crash_step}:1",
            elastic="on", check="cheap",
        )
        return ref, hit

    def _assert_same_batch(self, machine, site):
        notes = [
            (e.kind, e.action, e.site, e.detail.get("index"))
            for e in machine.faults.events
        ]
        squeeze = notes.index(("mem", "degraded", site, None))
        recovered = notes.index(("batch", "recovered", site, 0))
        assert squeeze < recovered  # both inside batch 0
        assert [(r.p_before, r.p_after) for r in machine.recoveries] == [(4, 3)]
        assert_fired(machine)
        assert check_ledger(machine) == []

    @pytest.mark.parametrize("crash_step", [9, 13])
    def test_mfbc(self, crash_step):
        g = self._graph()
        kw = dict(batch_size=16, sources=np.arange(16))
        ref_m, m = self._machines(crash_step)
        ref = mfbc(g, engine=DistributedEngine(ref_m), **kw).scores
        res = mfbc(g, engine=DistributedEngine(m), retries=0, **kw).scores
        assert np.array_equal(res, ref)
        self._assert_same_batch(m, "mfbc")

    # the squeeze lands at step 6 (the budget overflows while MFBr's first
    # product replicates Aᵀ) and halves the sweep; steps 9 and 13 crash
    # inside the first and second half-sweep.  At step 9 relief has spilled
    # a tile of the pinned adjacency: recovery drops it with the old matrix
    # and rebuilds the adjacency from the graph on the survivors
    @pytest.mark.parametrize("crash_step", [9, 13])
    def test_adaptive_bc(self, crash_step):
        from repro.core.approx import adaptive_bc

        g = self._graph()
        kw = dict(epsilon=0.3, delta=0.3, batch_size=16, max_samples=32)
        ref_m, m = self._machines(crash_step)
        ref = adaptive_bc(g, engine=DistributedEngine(ref_m), **kw)
        res = adaptive_bc(g, engine=DistributedEngine(m), retries=0, **kw)
        assert np.array_equal(res.scores, ref.scores)
        assert res.width_history == ref.width_history
        assert res.samples_used == ref.samples_used
        self._assert_same_batch(m, "adaptive_bc")
