"""repro.faults: deterministic injection, tolerance, and the acceptance bars.

Covers the :class:`FaultPlan` spec grammar and validation, seed-exact
determinism of the injected event stream, payload corruption + the checksum
guard at the Group collectives (on their own and inside the products of a
real ``mfbc``), straggler skew, the mfbc retry loop, and the
end-to-end acceptance criteria (crash → checkpoint → resume re-executes
only the remaining batches, bit-identical scores).
"""

import numpy as np
import pytest

from repro import obs
from repro.analysis.report import fault_attribution, format_report
from repro.core import mfbc
from repro.core.ladder import RecoveryLadder
from repro.dist import DistributedEngine
from repro.faults import (
    CorruptPayload,
    FaultPlan,
    MemoryCheckpointStore,
    RankFailure,
    corrupt_copy,
    payload_checksum,
    resolve_fault_plan,
)
from repro.graphs import rmat_graph
from repro.machine import Group, Machine
from repro.spgemm import Plan
from repro.spgemm.selector import PinnedPolicy

from conftest import assert_fired, random_weight_spmat


# ---------------------------------------------------------------------------
# spec grammar + resolution
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_full_grammar(self):
        plan = FaultPlan.from_spec(
            "seed:7,crash:0.05,corrupt:0.01,straggle:0.1,tear:0.02,"
            "checksum:1,skew:2e-4,limit:10,crash@12,straggle@9:2,corrupt@7"
        )
        assert plan.seed == 7
        assert plan.crash == 0.05
        assert plan.corrupt == 0.01
        assert plan.straggle == 0.1
        assert plan.tear == 0.02
        assert plan.checksum is True
        assert plan.skew == 2e-4
        assert plan.limit == 10
        assert [repr(sc) for sc in plan.script] == [
            "crash@12",
            "straggle@9:2",
            "corrupt@7",
        ]
        assert plan.armed

    @pytest.mark.parametrize("spec", ["", "none", "off", "  NONE  "])
    def test_disabled_specs_parse_to_none(self, spec):
        assert FaultPlan.from_spec(spec) is None

    @pytest.mark.parametrize(
        "spec",
        [
            "crash",  # missing value
            "crash:2.0",  # rate out of range
            "mem:0",  # memory pressure is a budget (memory_words), not a fault
            "mem:1.5",
            "limit:0",
            "skew:-1",
            "frobnicate:1",  # unknown key
            "explode@3",  # unknown scripted kind
            "crash@0",  # step must be positive
            "crash:xyz",  # unparsable value
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_memory_pressure_is_not_a_fault_key(self):
        with pytest.raises(ValueError) as err:
            FaultPlan.from_spec("mem:0.5")
        assert str(err.value) == (
            "unknown fault spec key 'mem' (expected one of seed, crash, corrupt, "
            "straggle, tear, skew, checksum, limit)"
        )
        with pytest.raises(TypeError, match="mem"):
            FaultPlan(seed=5, mem=0.5)

    @pytest.mark.parametrize("spec", ["seed:1,poolkill:0.1", "poolkill@3"])
    def test_the_pool_fault_went_with_the_pool(self, spec):
        with pytest.raises(ValueError, match="crash, corrupt, straggle, tear"):
            FaultPlan.from_spec(spec)

    def test_describe_round_trips(self):
        spec = "seed:3,crash:0.05,checksum:1,limit:2,crash@12"
        plan = FaultPlan.from_spec(spec)
        again = FaultPlan.from_spec(plan.describe())
        assert again.describe() == plan.describe()

    def test_inert_plan_is_not_armed(self):
        assert not FaultPlan(seed=5).armed
        assert FaultPlan(seed=5, checksum=True).armed
        assert FaultPlan(seed=5, script=[("crash", 3)]).armed


class TestResolve:
    def test_plan_passthrough(self):
        plan = FaultPlan(1, crash=0.1)
        assert resolve_fault_plan(plan) is plan

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed:9,crash:0.25")
        plan = resolve_fault_plan(None)
        assert plan.seed == 9 and plan.crash == 0.25

    def test_type_error(self):
        with pytest.raises(TypeError):
            resolve_fault_plan(42)

    def test_machine_threads_plan_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        m = Machine(4)
        assert m.faults is None
        m = Machine(4, faults="seed:1,crash:0.5")
        assert m.faults is not None and m.faults.crash == 0.5
        assert "seed:1" in repr(m)

    def test_inert_plan_disables_hot_path_hooks(self):
        m = Machine(4, faults="seed:1")
        assert m.faults is not None
        assert m._fault_hook is None  # inert → hooks skipped entirely


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _run_collectives(self, spec):
        m = Machine(4, faults=spec)
        g = Group(m, np.arange(4))
        try:
            for _ in range(60):
                g.bcast(np.ones(4), root=0)
        except RankFailure:
            pass
        return m.faults.signature()

    def test_same_seed_same_event_sequence(self):
        spec = "seed:3,crash:0.05,straggle:0.1"
        sig1 = self._run_collectives(spec)
        sig2 = self._run_collectives(spec)
        assert sig1 and sig1 == sig2

    def test_different_seeds_diverge(self):
        sig1 = self._run_collectives("seed:3,crash:0.05,straggle:0.1")
        sig2 = self._run_collectives("seed:4,crash:0.05,straggle:0.1")
        assert sig1 != sig2

    def test_reset_replays_schedule(self):
        plan = FaultPlan(3, crash=0.05, straggle=0.1)
        m = Machine(4, faults=plan)
        g = Group(m, np.arange(4))
        try:
            for _ in range(60):
                g.bcast(np.ones(4), root=0)
        except RankFailure:
            pass
        first = plan.signature()
        plan.reset()
        assert plan.signature() == []
        try:
            for _ in range(60):
                g.bcast(np.ones(4), root=0)
        except RankFailure:
            pass
        assert plan.signature() == first

    def test_full_mfbc_run_deterministic(self, small_undirected):
        """Same seed ⇒ identical FaultEvent sequence AND identical scores
        after recovery (acceptance criterion)."""
        spec = "seed:3,crash:0.02,straggle:0.05,limit:4"

        def run():
            m = Machine(4, faults=spec)
            res = mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(m),
                retries=5,
            )
            return m.faults.signature(), res.scores

        sig1, scores1 = run()
        sig2, scores2 = run()
        assert sig1 == sig2 and sig1
        assert np.array_equal(scores1, scores2)


# ---------------------------------------------------------------------------
# corruption + checksum guard
# ---------------------------------------------------------------------------


class TestCorruption:
    def test_corrupt_copy_never_mutates_original(self, rng):
        arr = np.ones(16)
        out = corrupt_copy(arr, rng)
        assert np.array_equal(arr, np.ones(16))
        assert not np.array_equal(out, arr)

        mat = random_weight_spmat(rng, 10, 10, 0.5)
        before = mat.vals["w"].copy()
        out = corrupt_copy(mat, rng)
        assert np.array_equal(mat.vals["w"], before)
        assert out is not mat
        assert not np.array_equal(out.vals["w"], before)
        # structure untouched: only a value was perturbed
        assert np.array_equal(out.rows, mat.rows)
        assert np.array_equal(out.cols, mat.cols)

    def test_checksum_detects_any_perturbation(self, rng):
        mat = random_weight_spmat(rng, 10, 10, 0.5)
        assert payload_checksum(mat) == payload_checksum(mat)
        assert payload_checksum(mat) != payload_checksum(corrupt_copy(mat, rng))

    def test_checksum_guard_raises_on_collective(self):
        m = Machine(4, faults="seed:0,corrupt:1,checksum:1")
        g = Group(m, np.arange(4))
        with pytest.raises(CorruptPayload, match="checksum mismatch"):
            g.bcast(np.ones(8), root=0)
        actions = {(e.kind, e.action) for e in m.faults.events}
        assert ("corrupt", "injected") in actions
        assert ("corrupt", "detected") in actions

    def test_unguarded_corruption_propagates_silently(self):
        m = Machine(4, faults="seed:0,corrupt:1")
        g = Group(m, np.arange(4))
        sent = np.ones(8)
        out = g.bcast(sent, root=0)
        assert np.array_equal(sent, np.ones(8))  # sender buffer intact
        assert not np.array_equal(out, sent)  # receivers got damage
        assert [e.action for e in m.faults.events] == ["injected"]

    def test_reduce_and_allgather_guarded(self):
        for site, call in [
            ("reduce", lambda g: g.reduce([np.ones(8)] * 4, np.add)),
            ("sparse_reduce", lambda g: g.sparse_reduce([np.ones(8)] * 4, np.add)),
            ("allgather", lambda g: g.allgather([np.ones(8)] * 4)),
            ("alltoall", lambda g: g.alltoall([[np.ones(8)]] * 4, [[np.ones(8)]] * 4)),
        ]:
            m = Machine(4, faults="seed:0,corrupt:1,checksum:1")
            g = Group(m, np.arange(4))
            with pytest.raises(CorruptPayload):
                call(g)
            assert m.faults.events[-1].site == site

    def test_scripted_corrupt_fires_once(self):
        m = Machine(4, faults="corrupt@1")
        g = Group(m, np.arange(4))
        out1 = g.bcast(np.ones(8), root=0)
        out2 = g.bcast(np.ones(8), root=0)
        assert not np.array_equal(out1, np.ones(8))
        assert np.array_equal(out2, np.ones(8))


class TestCorruptionInsideProducts:
    """Every collective of a product is a ``Group`` call, so a scripted
    corruption lands on a block a real ``mfbc`` is moving: with the checksum
    guard it is detected at that site and the driver's ladder re-runs the
    batch to bit-identical scores; without it the damage reaches the scores.
    """

    #: (pinned plan, scripted step, the collective it fires in) at p = 8.
    #: Under 1D-B every product leaves C on the strips the next one reads,
    #: so its only re-blockings carry seed frontiers, whose corruption (a
    #: zero distance raised for every path alike) leaves the scores alone;
    #: 1D-A re-blocks the adjacency onto its column strips in every
    #: product, and step 7 is the second product's
    CASES = [
        pytest.param(Plan(8, 1, 1, "B", "AB"), 3, "bcast", id="1d-replicate"),
        pytest.param(Plan(8, 1, 1, "A", "AB"), 7, "alltoall", id="1d-redistribute"),
        pytest.param(Plan(1, 2, 4, "A", "AC"), 5, "sparse_reduce", id="2d-reduce"),
        pytest.param(Plan(2, 2, 2, "B", "AC"), 5, "bcast", id="3d-bcast"),
    ]

    @staticmethod
    def _run(graph, plan, faults):
        # explicit everything: ambient elastic/check legs must not repair or
        # flag the corruption before the path under test does
        m = Machine(8, faults=faults, elastic="off", check="off")
        engine = DistributedEngine(m, policy=PinnedPolicy(plan))
        return m, mfbc(graph, batch_size=8, engine=engine).scores

    @pytest.mark.parametrize("plan, step, site", CASES)
    def test_detected_and_retried_to_fault_free_scores(
        self, small_undirected, plan, step, site
    ):
        _, ref = self._run(small_undirected, plan, "off")
        m, scores = self._run(
            small_undirected, plan, f"corrupt@{step},checksum:1"
        )
        assert [(e.kind, e.action, e.site) for e in m.faults.events] == [
            ("corrupt", "injected", site),
            ("corrupt", "detected", site),
            ("batch", "recovered", "mfbc"),
        ]
        assert m.faults.events[-1].detail["error"] == "CorruptPayload"
        assert_fired(m)
        assert np.array_equal(scores, ref)

    @pytest.mark.parametrize("plan, step, site", CASES)
    def test_unguarded_corruption_reaches_the_scores(
        self, small_undirected, plan, step, site
    ):
        _, ref = self._run(small_undirected, plan, "off")
        m, scores = self._run(small_undirected, plan, f"corrupt@{step}")
        assert [(e.kind, e.action, e.site) for e in m.faults.events] == [
            ("corrupt", "injected", site)
        ]
        assert_fired(m)
        assert not np.array_equal(scores, ref)


# ---------------------------------------------------------------------------
# stragglers + memory pressure
# ---------------------------------------------------------------------------


class TestStragglersAndMemory:
    def test_scripted_straggler_skews_target_rank(self):
        m = Machine(4, faults="straggle@2:1,skew:1.0")
        g = Group(m, np.arange(4))
        g.bcast(np.ones(4))
        before = m.ledger.time.copy()
        g.bcast(np.ones(4))
        skew = m.ledger.time - before
        # rank 1 got between 0.5 and 2.0 modeled seconds of extra time
        assert skew[1] > 0.4
        ev = m.faults.events[-1]
        assert ev.kind == "straggle" and ev.rank == 1

    def test_limit_caps_injections(self):
        m = Machine(4, faults="seed:0,straggle:1,limit:3")
        g = Group(m, np.arange(4))
        for _ in range(10):
            g.bcast(np.ones(4))
        assert m.faults.injected == 3


# ---------------------------------------------------------------------------
# mfbc retry loop
# ---------------------------------------------------------------------------


class TestMfbcRetry:
    def test_crash_retried_to_bit_identical_scores(self, small_undirected):
        ref = mfbc(small_undirected, batch_size=8).scores
        m = Machine(4, faults="seed:3,crash:0.02,limit:2")
        res = mfbc(
            small_undirected, batch_size=8, engine=DistributedEngine(m), retries=3
        )
        assert np.array_equal(res.scores, ref)
        actions = [(e.kind, e.action) for e in m.faults.events]
        assert ("crash", "injected") in actions
        assert ("batch", "recovered") in actions

    def test_retries_zero_propagates_failure(self, small_undirected):
        # elastic="off": this test asserts the *non-elastic* abort path even
        # under the CI ladder leg's ambient REPRO_ELASTIC; step 9 is the
        # second batch's first product
        m = Machine(4, faults="crash@9", elastic="off")
        with pytest.raises(RankFailure):
            mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(m),
                retries=0,
            )
        assert_fired(m)

    def test_exhausted_retries_abandon_with_event(
        self, small_undirected, monkeypatch
    ):
        import sys

        mfbc_mod = sys.modules["repro.core.mfbc"]

        def always_crash(*args, **kwargs):
            raise RankFailure(0, 0, "mfbf")

        monkeypatch.setattr(mfbc_mod, "mfbf", always_crash)
        # inert plan still records tolerance; elastic off so the synthetic
        # failure walks the retry ladder, not recovery
        m = Machine(4, faults="seed:0", elastic="off")
        with pytest.raises(RankFailure):
            mfbc_mod.mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(m),
                retries=2,
            )
        actions = [(e.kind, e.action) for e in m.faults.events]
        assert actions.count(("batch", "recovered")) == 2
        assert actions[-1] == ("batch", "abandoned")

    def test_backoff_charged_to_modeled_clock(self, small_undirected, monkeypatch):
        import sys

        mfbc_mod = sys.modules["repro.core.mfbc"]
        real_mfbf = mfbc_mod.mfbf

        def run(failures):
            calls = {"n": 0}

            def flaky(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] <= failures:
                    raise RankFailure(0, 0, "mfbf")
                return real_mfbf(*args, **kwargs)

            monkeypatch.setattr(mfbc_mod, "mfbf", flaky)
            # the synthetic mfbf fault must be the only one: opt out of any
            # ambient REPRO_FAULTS plan (the CI fault leg sets one) and of
            # ambient elastic recovery (the ladder leg), which would skip
            # retry
            m = Machine(4, faults="off", elastic="off")
            mfbc_mod.mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(m),
                retries=1,
                max_batches=1,
            )
            return m.ledger.critical_time()

        # one retry: the backoff is its cap, base·2^(retries-1) = the 0.05 s
        # base itself
        assert run(1) - run(0) >= 0.05

    def test_retry_keeps_memory_accounting(self):
        # a retry starts after the failed attempt's blocks were released, so
        # the retried run's accounting is the fault-free run's — the pinned
        # adjacency stays charged, and so does the peak
        g = rmat_graph(7, 8, seed=1)

        def run(faults):
            m = Machine(4, faults=faults, elastic="off", memory_words="off")
            engine = DistributedEngine(m)  # held: it pins the adjacency
            mfbc(g, sources=np.arange(64), batch_size=32, engine=engine)
            return m, engine

        # step 10: the second batch's first product re-blocks the frontier
        (ref, _ref_engine), (m, _engine) = run("off"), run(
            "seed:0,corrupt@10,checksum:1"
        )
        assert ("batch", "recovered") in [
            (e.kind, e.action) for e in m.faults.events
        ]
        assert_fired(m)
        assert m.memory_used() == ref.memory_used() > 0
        assert m.memory_peak() == ref.memory_peak()

    def test_invalid_retry_arguments(self, small_undirected):
        with pytest.raises(ValueError, match="retries"):
            mfbc(small_undirected, retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            RecoveryLadder(
                DistributedEngine(Machine(2)), small_undirected, retry_backoff=-0.1
            )


# ---------------------------------------------------------------------------
# end-to-end acceptance: crash → checkpoint → resume
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_crash_checkpoint_resume_reexecutes_only_remaining_batches(
        self, small_undirected
    ):
        """The ISSUE's resume bar: a run killed by an injected rank crash at
        batch k, resumed via ``resume_from=``, produces bit-identical scores
        while re-executing only batches ≥ k (asserted via obs batch spans)."""
        ref = mfbc(small_undirected, batch_size=8).scores

        store = MemoryCheckpointStore()
        # step 13: the third batch's first product (each batch after the
        # first issues four collectives)
        m = Machine(4, faults="crash@13", elastic="off")
        with pytest.raises(RankFailure):
            mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(m),
                retries=0,
                checkpoint=store,
            )
        assert_fired(m)
        state = store.load()
        assert state is not None and state.batch_index == 2  # died mid-run

        session = obs.enable()
        try:
            res = mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(Machine(4)),
                resume_from=store,
            )
        finally:
            obs.disable()

        assert np.array_equal(res.scores, ref)
        assert res.stats.sources_processed == small_undirected.n
        batch_indices = [
            sp.args["index"] for sp in session.tracer.find("batch")
        ]
        assert batch_indices  # the resumed run did execute batches...
        assert min(batch_indices) == state.batch_index  # ...but only ≥ k
        assert batch_indices == sorted(batch_indices)

    def test_fault_report_renders(self, small_undirected):
        m = Machine(4, faults="seed:3,crash:0.02,limit:2", elastic="off")
        mfbc(
            small_undirected, batch_size=8, engine=DistributedEngine(m), retries=3
        )
        report = format_report("faults", m.metrics)
        # the attribution table groups counts by (kind, site) with one
        # column per recovery outcome
        assert report.startswith("run events (faults.*):\n")
        assert "kind" in report and "injected" in report
        crash_rows = [r for r in fault_attribution(m.metrics) if r["kind"] == "crash"]
        # the injected crashes are attributed to a site, once per plan event
        assert crash_rows and sum(r["injected"] for r in crash_rows) == m.faults.injected
        assert format_report("faults", Machine(4, faults="off").metrics) == ""

    def test_fault_events_mirrored_to_obs(self, small_undirected):
        session = obs.enable()
        try:
            m = Machine(4, faults="seed:3,crash:0.02,limit:2")
            mfbc(
                small_undirected,
                batch_size=8,
                engine=DistributedEngine(m),
                retries=3,
            )
        finally:
            obs.disable()
        fault_spans = [sp for sp in session.tracer.spans if sp.cat == "fault"]
        assert len(fault_spans) == len(m.faults.events)
        # counted once, in the machine's registry, not the session's
        assert m.metrics.total("faults.injected") == m.faults.injected >= 1
        assert not session.metrics.series("faults.injected")
