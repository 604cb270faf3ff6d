"""repro.memory: spill-to-disk store, relief eviction, the shrink rung.

Covers the checksummed :class:`SpillStore` (round-trip bit-exactness,
write-then-verify torn-write handling, private per-store directories), DistMat
block eviction and lazy fault-in, the registry and the store across pinned
adjacency swaps, :class:`RecoveryLadder`'s one
memory rung, and the pressured-run bar: a seed-graph MFBC run under a
per-rank budget well below the unpressured peak completes
**bit-identically** through relief eviction and the shrink rung, with its
tracked peak under the budget and spill traffic visible on the ledger and
the memory report.

Every machine built here opts out of ambient ``REPRO_FAULTS`` /
``REPRO_ELASTIC`` / ``REPRO_MEMORY`` (the CI ladder leg sets
them) unless the test is specifically about them.
"""

import os

import numpy as np
import pytest

from repro.analysis.report import fault_attribution, format_report, memory_attribution
from repro.core import mfbc, mfbc_per_source
from repro.core.approx import adaptive_bc
from repro.core.ladder import RUNGS, RecoveryLadder
from repro.dist import DistributedEngine
from repro.faults import FaultPlan
from repro.faults.plan import payload_checksum
from repro.graphs import rmat_graph
from repro.machine import Machine, MemoryLimitExceeded
from repro.memory import SpillError, SpillStore

from conftest import KERNELS, assert_fired, kernel, random_weight_spmat

#: explicit "effectively unlimited" budget — opts a machine out of the CI
#: leg's ambient REPRO_MEMORY without disabling the accounting
UNLIMITED = 1 << 40


def quiet(p, **kw):
    """A machine opted out of ambient faults/elastic/memory env defaults."""
    kw.setdefault("faults", "off")
    kw.setdefault("elastic", "off")
    kw.setdefault("memory_words", UNLIMITED)
    return Machine(p, **kw)


def seed_graph():
    return rmat_graph(scale=7, avg_degree=8, seed=1)


def run_mfbc(g, machine, *, batch=64):
    engine = DistributedEngine(machine)
    return mfbc(g, batch_size=batch, engine=engine).scores


# ---------------------------------------------------------------------------
# SpillStore: segments, torn writes, shared directories
# ---------------------------------------------------------------------------


class TestSpillStore:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        blk = random_weight_spmat(rng, 12, 9, 0.3)
        store = SpillStore(tmp_path, machine=quiet(1))
        seg = store.spill("a-0-0", blk)
        assert seg is not None and seg.words == blk.words()
        back = store.fetch(seg)
        assert payload_checksum(back) == payload_checksum(blk)
        np.testing.assert_array_equal(back.rows, blk.rows)
        np.testing.assert_array_equal(back.cols, blk.cols)
        for name in blk.monoid.field_names:
            np.testing.assert_array_equal(back.vals[name], blk.vals[name])
        snap = store.snapshot()
        assert snap["spilled_blocks"] == 1 and snap["restored_blocks"] == 1
        assert snap["torn_writes"] == 0

    def test_spill_charges_ledger_spill_category(self, tmp_path, rng):
        machine = quiet(2)
        store = SpillStore(tmp_path, machine=machine)
        blk = random_weight_spmat(rng, 10, 10, 0.3)
        seg = store.spill("k", blk, rank=1)
        store.fetch(seg, rank=1)
        cat = machine.ledger.category_words.get("spill", 0.0)
        assert cat == pytest.approx(2.0 * blk.words())

    def test_torn_write_leaves_block_resident(self, tmp_path, rng):
        # rate 1 with limit 1: the first write tears, the retry succeeds
        machine = Machine(
            1, faults="seed:0,tear:1,limit:1", elastic="off",
            memory_words=UNLIMITED,
        )
        store = SpillStore(tmp_path, machine=machine)
        blk = random_weight_spmat(rng, 8, 8, 0.3)
        assert store.spill("k", blk) is None  # torn: caller keeps it resident
        assert store.snapshot()["torn_writes"] == 1
        sigs = [(e.kind, e.action) for e in machine.faults.events]
        assert ("tear", "injected") in sigs and ("tear", "detected") in sigs
        seg = store.spill("k", blk)  # injection budget spent: durable now
        assert seg is not None
        assert payload_checksum(store.fetch(seg)) == payload_checksum(blk)

    def test_fetch_raises_when_no_generation_durable(self, tmp_path, rng):
        blk = random_weight_spmat(rng, 6, 6, 0.3)
        store = SpillStore(tmp_path, machine=quiet(1))
        seg = store.spill("k", blk)
        with open(seg.path, "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(SpillError, match="not durable"):
            store.fetch(seg)

    def test_two_stores_share_a_directory(self, tmp_path, rng):
        # keys restart at m0-... in every process: two stores on one
        # --spill-dir must neither overwrite nor delete each other's segments
        a_blk = random_weight_spmat(rng, 6, 6, 0.3)
        b_blk = random_weight_spmat(rng, 7, 5, 0.3)
        a, b = (SpillStore(tmp_path, machine=quiet(1)) for _ in range(2))
        a_seg = a.spill("m0-b0-0", a_blk)
        b_seg = b.spill("m0-b0-0", b_blk)
        b.drop("m0-b0-0")
        assert payload_checksum(a.fetch(a_seg)) == payload_checksum(a_blk)
        with pytest.raises(SpillError):
            b.fetch(b_seg)  # drop removed the segment, in its own store only


#: ``machine.memory.snapshot()`` after ``TestSnapshotPin``'s script (the
#: values the per-object ints gave before the counts moved to the registry)
SNAPSHOT_AFTER_SCRIPT = {
    "registered": 2,
    "reliefs": 1,
    "relieved_words": 240,
    "spilled_blocks": 2,
    "restored_blocks": 1,
    "spilled_words": 489,
    "restored_words": 249,
    "torn_writes": 1,
}


class TestSnapshotPin:
    def test_scripted_sequence_pins_the_whole_snapshot(self, tmp_path):
        """A relief whose first spill write tears, a direct spill, a
        ``peek`` of a spilled tile (which counts nothing) and a fault-in,
        on one budgeted machine: the whole memory snapshot after."""
        machine = Machine(
            4, memory_words=10_000, faults="tear@1", elastic="off",
            check="off", spill_dir=str(tmp_path),
        )
        mat = DistributedEngine(machine).adjacency(rmat_graph(6, 8, seed=0))
        need = machine.memory_words - int(machine.memory_used(0)) + 1
        machine.allocate(0, need)  # one word over budget: a relief on rank 0
        machine.free(0, need)
        assert mat.spill_blocks(machine.memory.store(), rank=1) > 0
        i, j = min(k for k in mat._spilled if mat.layout.ranks2d[k] == 1)
        mat.peek(i, j)
        mat.block(i, j)
        assert_fired(machine)
        snap = machine.memory.snapshot()
        assert snap == SNAPSHOT_AFTER_SCRIPT
        assert {k: type(v) for k, v in snap.items()} == dict.fromkeys(snap, int)
        # every count is a sum of the machine's one registry
        m = machine.metrics
        assert m.total("faults.evicted", kind="spill") == snap["reliefs"]
        assert m.total("faults.detected", kind="tear") == snap["torn_writes"]
        assert m.total("memory.spill.words", op="unspill") == snap["restored_words"]


# ---------------------------------------------------------------------------
# DistMat eviction + MemoryManager relief
# ---------------------------------------------------------------------------


class TestEvictionAndRelief:
    def test_spilled_blocks_fault_back_in_bit_identically(self, tmp_path):
        g = seed_graph()
        machine = quiet(4, spill_dir=str(tmp_path))
        engine = DistributedEngine(machine)
        mat = engine.adjacency(g)
        before = payload_checksum(engine.gather(mat))
        store = machine.memory.store()
        freed = sum(mat.spill_blocks(store, rank=r) for r in range(4))
        assert freed > 0
        # gather touches every block: each one faults back in from disk
        assert payload_checksum(engine.gather(mat)) == before
        snap = machine.memory.snapshot()
        assert snap["spilled_blocks"] > 0 and snap["restored_blocks"] > 0

    def test_relieve_frees_lru_blocks_on_rank(self):
        g = seed_graph()
        machine = quiet(4)
        engine = DistributedEngine(machine)
        engine.adjacency(g)  # registered spillable by the engine
        used = machine.memory_used(0)
        assert used > 0
        freed = machine.memory.relieve(0, 1)
        assert freed > 0
        assert machine.memory_used(0) < used
        assert machine.memory.snapshot()["reliefs"] == 1

    def test_relief_skips_matrices_from_before_a_shrink(self):
        """A pinned matrix from before ``Machine.shrink`` holds no charged
        words on the shrunken machine: relief neither spills it nor counts
        its blocks as freed (nor charges spill I/O for them)."""
        machine = quiet(4)
        engine = DistributedEngine(machine)
        engine.adjacency(rmat_graph(6, 8, seed=0))
        machine.shrink([3])
        machine.reset_memory()
        assert machine.memory.relieve(0, 1) == 0
        assert machine.memory.snapshot()["reliefs"] == 0
        assert machine.ledger.category_words.get("spill", 0.0) == 0.0
        assert machine.memory._live() == []

    def test_repinned_adjacency_stays_registered_and_leaves_no_segments(self, tmp_path):
        """Releasing and re-pinning the adjacency (what ``update_graph``
        does) keeps both new pinned matrices in the relief registry even
        when they reuse a collected matrix's ``id``, and a collected matrix
        takes its spilled segments out of the store."""
        import gc

        g = seed_graph()
        machine = quiet(4, memory_words=6000, spill_dir=str(tmp_path))
        engine = DistributedEngine(machine)
        store = machine.memory.store()
        for _ in range(3):
            mfbc(g, batch_size=64, engine=engine)
            mat = engine.adjacency(g)
            live = machine.memory._live()
            assert any(m is mat for m in live)
            assert any(m is mat.transpose() for m in live)
            engine.release_invariants()
            del mat, live
            gc.collect()
            spilled = sum(len(m._spilled) for m in machine.memory._live())
            assert len(os.listdir(store.directory)) == spilled
        assert machine.metrics.total("faults.evicted", kind="spill") > 0

    def test_register_replaces_an_entry_whose_referent_is_gone(self):
        import weakref

        class Collected:
            pass

        machine = quiet(4)
        mat = DistributedEngine(machine).adjacency(seed_graph())
        gone = Collected()
        # a collected matrix's entry under the id the new matrix reuses
        machine.memory._registry[id(mat)] = weakref.ref(gone)
        del gone
        machine.memory.register(mat)
        assert any(m is mat for m in machine.memory._live())

    def test_allocation_failure_raises_after_relief_exhausted(self):
        machine = quiet(2, memory_words=1000)
        with pytest.raises(MemoryLimitExceeded, match="budget"):
            machine.allocate(0, 2000)
        # the failed allocation must not stay charged
        assert machine.memory_used(0) == 0


# ---------------------------------------------------------------------------
# RecoveryLadder: the shrink rung's progression
# ---------------------------------------------------------------------------


class TestMemoryLadder:
    def test_rung_progression_shrink_exhaust(self):
        machine = quiet(2)
        g = seed_graph()
        engine = DistributedEngine(machine)
        engine.adjacency(g)
        ladder = RecoveryLadder(engine, g)
        exc = MemoryLimitExceeded("boom")
        assert ladder.advance(exc, index=0, width=8) == "shrink_batch"
        assert engine.sweep_width(g, 8) == 4
        assert ladder.advance(exc, index=0, width=4) == "shrink_batch"
        assert engine.sweep_width(g, 8) == 2
        assert ladder.advance(exc, index=0, width=2) == "shrink_batch"
        assert engine.sweep_width(g, 8) == 1
        # width 1: relief already spilled what it could, nothing narrows
        # further, so the caller re-raises
        assert ladder.advance(exc, index=0, width=1) is None
        assert ladder.rungs_taken == ["shrink_batch"] * 3

    def test_rungs_recorded_on_fault_plan(self):
        machine = Machine(
            2, faults=FaultPlan(seed=0), elastic="off", memory_words=UNLIMITED
        )
        g = seed_graph()
        engine = DistributedEngine(machine)
        engine.adjacency(g)
        ladder = RecoveryLadder(engine, g, site="mfbc")
        ladder.advance(MemoryLimitExceeded("boom"), index=0, width=4)
        ladder.advance(MemoryLimitExceeded("boom"), index=0, width=2)
        sigs = [(e.kind, e.action, e.site) for e in machine.faults.events]
        assert sigs.count(("mem", "degraded", "mfbc")) == 2

    def test_relieved_run_ledger_is_kernel_independent(self, tmp_path):
        # the oracle chain's "same ledger across kernels under memory
        # pressure" link: a run whose allocations evict to the spill store
        # charges the same under the generic oracle as under the dispatched
        # kernels
        g = seed_graph()
        probe = quiet(4)
        run_mfbc(g, probe)
        budget = int(probe.memory_peak() * 0.6)
        runs = {}
        for mode in KERNELS:
            machine = quiet(
                4, memory_words=budget, spill_dir=str(tmp_path / mode)
            )
            with kernel(mode):
                scores = run_mfbc(g, machine)
            assert machine.memory.snapshot()["spilled_blocks"] > 0
            runs[mode] = (scores, machine.ledger.snapshot())
        np.testing.assert_array_equal(runs["generic"][0], runs["auto"][0])
        assert runs["generic"][1] == runs["auto"][1]

    def test_doc_table_is_the_rung_table(self):
        # docs/robustness.md, "The recovery ladder": the numbered rows of
        # its table are the code's rungs, in the code's order
        doc = os.path.join(
            os.path.dirname(__file__), "..", "docs", "robustness.md"
        )
        names = []
        with open(doc, encoding="utf-8") as fh:
            for line in fh:
                cells = [c.strip() for c in line.split("|")]
                if len(cells) > 3 and cells[1].isdigit():
                    names.append(cells[2].strip("`"))
        assert names == [name for name, _ in RUNGS]


# ---------------------------------------------------------------------------
# end-to-end: pressured MFBC completes bit-identically under budget
# ---------------------------------------------------------------------------


class TestPressuredRuns:
    def _baseline(self, tmp_path=None):
        g = seed_graph()
        m0 = quiet(4)
        ref = run_mfbc(g, m0)
        return g, ref, m0.memory_peak()

    def test_spill_ladder_bit_identical_under_budget(self, tmp_path):
        g, ref, peak0 = self._baseline()
        budget = int(peak0 * 0.6)
        machine = quiet(4, memory_words=budget, spill_dir=str(tmp_path))
        scores = run_mfbc(g, machine)
        np.testing.assert_array_equal(scores, ref)
        assert machine.memory_peak() <= budget
        snap = machine.memory.snapshot()
        assert snap["reliefs"] > 0
        assert snap.get("spilled_blocks", 0) > 0
        assert machine.ledger.category_words.get("spill", 0.0) > 0

    def test_tight_budget_descends_ladder_bit_identically(self, tmp_path):
        g, ref, peak0 = self._baseline()
        budget = int(peak0 * 0.45)
        machine = Machine(
            4, faults=FaultPlan(seed=0), elastic="off",
            memory_words=budget, spill_dir=str(tmp_path),
        )
        scores = run_mfbc(g, machine)
        np.testing.assert_array_equal(scores, ref)
        assert machine.memory_peak() <= budget
        acted = machine.memory.snapshot()["reliefs"] > 0 or any(
            e.kind == "mem" and e.action == "degraded"
            for e in machine.faults.events
        )
        assert acted

    def test_injected_memory_pressure_tightens_and_completes(self, tmp_path):
        # the squeeze is a smaller budget; the attached plan records relief
        g, ref, peak0 = self._baseline()
        machine = Machine(
            4, faults="seed:1", elastic="off",
            memory_words=int(peak0 * 0.6), spill_dir=str(tmp_path),
        )
        scores = run_mfbc(g, machine)
        kinds = {e.kind for e in machine.faults.events}
        assert kinds & {"mem", "spill"}, kinds
        np.testing.assert_array_equal(scores, ref)
        assert machine.memory_peak() <= machine.memory_words

    @pytest.mark.parametrize("elastic", ["off", "on"])
    def test_torn_spill_writes_never_corrupt_scores(self, tmp_path, elastic):
        g, ref, peak0 = self._baseline()
        machine = Machine(
            4, faults="seed:3,tear:1,limit:4", elastic=elastic,
            memory_words=int(peak0 * 0.6), spill_dir=str(tmp_path),
        )
        scores = run_mfbc(g, machine)
        np.testing.assert_array_equal(scores, ref)
        store = machine.memory._store
        assert store is not None and store.snapshot()["torn_writes"] >= 1

    def test_infeasible_budget_is_terminal(self, tmp_path):
        g = seed_graph()
        machine = quiet(4, memory_words=50, spill_dir=str(tmp_path))
        with pytest.raises(MemoryLimitExceeded):
            run_mfbc(g, machine)


class TestValidationReads:
    """Checking reads spilled tiles from their segments, uncharged, and
    leaves them spilled: it moves neither the ledger nor the memory
    accounting."""

    def test_a_peek_leaves_the_tile_spilled_and_charges_nothing(self, tmp_path):
        machine = quiet(4, spill_dir=str(tmp_path))
        mat = DistributedEngine(machine).adjacency(seed_graph())
        want = mat.gather(charge=False)  # every tile resident
        store = machine.memory.store()
        assert sum(mat.spill_blocks(store, rank=r) for r in range(4)) > 0
        spilled, used = dict(mat._spilled), machine.memory_used()
        led, mem = machine.ledger.snapshot(), machine.memory.snapshot()
        assert mat.gather(charge=False, peek=True).equals(want)
        assert all(mat.peek(*ij).nnz == seg.nnz for ij, seg in spilled.items())
        assert mat._spilled == spilled and machine.memory_used() == used
        assert machine.ledger.snapshot() == led and machine.memory.snapshot() == mem

    @pytest.mark.parametrize("budget", [3000, 4000])
    def test_check_levels_keep_the_ledger_and_memory_accounting(self, tmp_path, budget):
        runs = {}
        for check in ("off", "cheap", "full"):
            machine = quiet(4, memory_words=budget, check=check,
                            spill_dir=str(tmp_path / check))
            scores = mfbc(rmat_graph(7, 8, seed=0), batch_size=16, sources=np.arange(32),
                          engine=DistributedEngine(machine)).scores
            runs[check] = (scores.tobytes(), machine.ledger.snapshot(),
                           machine.memory.snapshot())
        assert runs["off"][2]["restored_blocks"] > 0  # the budget spills
        assert runs["cheap"] == runs["off"] and runs["full"] == runs["off"]


class TestRestingReadOrder:
    """When a 2D plan step reads its resting operands' tiles: every operand,
    flipped (resting on the transposed grid) or not, when a step reads it.
    Under a budget that order decides when a spilled tile of the pinned
    adjacency faults in, so it moves the modeled clock: these numbers pin
    it."""

    # re-pinned when equal-weight MFBF became a masked BFS: fewer ops and
    # smaller products, so fewer reliefs (the words of BC's re-blockings too);
    # again when MFBr stopped forming pairs that cannot count (AB 24 -> 5
    # reliefs, BC 22 -> 1; the unbudgeted peak is 7 639 words/rank)
    @pytest.mark.parametrize(
        "variant, time, words, reliefs, relieved",
        [
            ("2D-AB(2x2)", 0.0038293682499999913, 191003.0, 5, 2676),
            ("2D-BC(2x2)", 0.0035679832499999928, 171471.0, 1, 1116),
        ],
        ids=["2D-AB(2x2)", "2D-BC(2x2)"],
    )
    def test_budgeted_2d_ledger(self, tmp_path, variant, time, words, reliefs, relieved):
        from repro.spgemm import PinnedPolicy
        from repro.spgemm.selector import enumerate_plans

        (plan,) = [p for p in enumerate_plans(4) if p.describe() == variant]
        machine = Machine(
            4, memory_words=4500, faults="off", elastic="off", check="off",
            spill_dir=str(tmp_path),
        )
        engine = DistributedEngine(machine, policy=PinnedPolicy(plan))
        g = rmat_graph(7, 8, seed=np.random.default_rng(3))
        mfbc(g, batch_size=16, sources=np.arange(32), engine=engine)
        snap = machine.ledger.snapshot()
        memory = machine.memory.snapshot()
        assert (snap["time"], snap["words"]) == (time, words)
        assert machine.memory_peak() == 4490
        assert (memory["reliefs"], memory["relieved_words"]) == (reliefs, relieved)


class TestSpilledMaskTiles:
    """A product's mask is read where it rests, tile by tile: a spilled tile
    of T faults in when a frame reads it, and a tile no frame reads stays in
    the store."""

    def test_budgeted_ca_mfbc_reads_spilled_t_tiles(self, tmp_path):
        from repro.check import check_ledger
        from repro.spgemm import PinnedPolicy

        g = seed_graph()
        runs = []
        for budget, spill in ((UNLIMITED, False), (3000, True)):
            machine = Machine(
                16, memory_words=budget, faults="off", elastic="off", check="off",
                spill_dir=str(tmp_path / str(spill)),
            )
            engine = DistributedEngine(machine, policy=PinnedPolicy.ca_mfbc(p=16, c=4))
            inner, spilled = engine.spgemm, []

            def spgemm(a, b, spec, *, mask=None):
                # every tile of the mask (T, or MFBr's pending set) leaves for the store
                if spill and mask is not None:
                    store = machine.memory.store()
                    spilled.append(sum(mask.spill_blocks(store, r) for r in range(16)))
                return inner(a, b, spec, mask=mask)

            engine.spgemm = spgemm
            scores = mfbc(g, batch_size=32, sources=np.arange(64), engine=engine).scores
            runs.append((scores, machine, sum(spilled)))
        (ref, _, _), (scores, machine, spilled) = runs
        np.testing.assert_array_equal(scores, ref)
        assert check_ledger(machine) == []
        assert machine.memory_peak() <= 3000
        memory = machine.memory.snapshot()
        # pinned: frames read in place restore less than was spilled; a
        # gathered mask would restore every spilled tile.  Re-pinned when
        # MFBr's products were masked to its pending vertices, a smaller Z
        # subset than Z (spilled 281 495 -> 157 038 words, restored 1 451
        # blocks / 266 494 words -> 1 103 / 145 097); again when the 3D layers
        # began to step in lockstep: the run's second shrink_batch rung fires
        # in MFBr rather than in a layer's re-blocking, so a different sweep
        # is retried (restored 1 103 blocks / 145 097 words -> 1 109 / 147 601)
        assert spilled == 157038
        assert (memory["restored_blocks"], memory["restored_words"]) == (1109, 147601)


class TestMfbrTemporaries:
    """MFBr drops each temporary once it has been read — the successor seed
    and counts, each product and its valid part, the ready set — so the
    modeled peak is its working set, not whichever temporaries the loop
    still binds when the next product allocates."""

    def test_budgeted_mfbc_peak(self):
        machine = Machine(4, memory_words=20_000, faults="off", elastic="off")
        engine = DistributedEngine(machine)
        mfbc(seed_graph(), batch_size=16, sources=np.arange(16), engine=engine)
        # 12 801 words/rank while each temporary stayed bound until rebound
        assert machine.memory_peak() == 9481
        assert machine.memory.snapshot()["reliefs"] == 0


# ---------------------------------------------------------------------------
# one ladder for every driver: the budget table, and rungs that compose
# ---------------------------------------------------------------------------


def _rungs(machine):
    return [
        (e.detail["rung"], e.site)
        for e in machine.faults.events
        if (e.kind, e.action) == ("mem", "degraded")
    ]


class TestBudgetTable:
    """Every driver completes under a per-rank budget — 16 sources of the
    seed graph on p=3, whose unbudgeted peak is ~14k words/rank (so 16 000
    no longer squeezes it) — past relief taking the shrink rung only,
    bit-identically to the unbudgeted run.  (A retry made
    *inside* the ``except`` block kept the failed sweep's blocks charged
    through its traceback: ``mfbc_per_source`` and ``adaptive_bc`` raised.)"""

    SOURCES = np.arange(16)

    def _run(self, driver, g, machine):
        engine = DistributedEngine(machine)
        if driver == "mfbc":
            return mfbc(
                g, batch_size=16, sources=self.SOURCES, engine=engine
            ).scores
        if driver == "mfbc_per_source":
            return mfbc_per_source(g, self.SOURCES, engine=engine)
        return adaptive_bc(
            g, epsilon=0.3, delta=0.3, batch_size=16, max_samples=32,
            engine=engine,
        ).scores

    @pytest.mark.parametrize("budget", [16_000, 8_000, 4_000])
    @pytest.mark.parametrize(
        "driver", ["mfbc", "mfbc_per_source", "adaptive_bc"]
    )
    def test_driver_completes_bit_identically(self, driver, budget):
        g = seed_graph()
        ref = self._run(driver, g, quiet(3))
        machine = Machine(
            3, memory_words=budget, faults="seed:1", elastic="off"
        )
        out = self._run(driver, g, machine)
        np.testing.assert_array_equal(out, ref)
        assert machine.memory_peak() <= budget
        # the shrink rung only, noted with its caller's site; no elastic /
        # retry / abandoned note
        rungs = _rungs(machine)
        assert {r for r, _ in rungs} <= {"shrink_batch"}
        assert {site for _, site in rungs} <= {driver}
        assert not [e for e in machine.faults.events if e.kind == "batch"]

    def test_service_answers_a_wave_under_budget(self):
        from repro.serve import BCService

        g = seed_graph()
        waves = (self.SOURCES, self.SOURCES + 16)
        refs = [
            mfbc_per_source(g, src, engine=DistributedEngine(quiet(3)))
            for src in waves
        ]
        # re-tuned when MFBr stopped forming pairs that cannot count (the
        # unbudgeted peak fell ~24k -> ~14k words/rank): 16 000 no longer
        # squeezes the sweep
        machine = Machine(
            3, memory_words=9_500, faults="seed:1", elastic="off"
        )
        # the window only closes early once max_batch queries are pending,
        # so each wave's 16 queries share one sweep
        shrinks = []
        with BCService(
            g, machine=machine, max_batch=16, batch_window=5.0
        ) as svc:
            for src, ref in zip(waves, refs):
                ids = [svc.submit("bc_source", source=int(s)) for s in src]
                rows = [svc.result(qid, timeout=120.0) for qid in ids]
                np.testing.assert_array_equal(np.vstack(rows), ref)
                shrinks.append(len(_rungs(machine)))
            stats = svc.stats()
        assert stats["failed"] == 0 and stats["batches"] == 2
        rungs = _rungs(machine)
        assert rungs and {site for _, site in rungs} == {"serve"}
        # the second wave starts at the width the first one found
        assert shrinks[0] > 0 and shrinks[1] == shrinks[0]

    def _budgeted(self, budget=4_000):
        machine = Machine(3, memory_words=budget, faults="seed:1", elastic="off")
        return machine, DistributedEngine(machine)

    def _mfbc(self, g, engine, sources=SOURCES, batch_size=16):
        return mfbc(g, batch_size=batch_size, sources=sources, engine=engine)

    def test_a_second_run_starts_at_the_width_that_fit(self):
        g = seed_graph()
        ref = self._mfbc(g, DistributedEngine(quiet(3))).scores
        machine, engine = self._budgeted()
        first = self._mfbc(g, engine)
        shrinks = len(_rungs(machine))
        second = self._mfbc(g, engine)
        assert shrinks > 0 and len(_rungs(machine)) == shrinks
        np.testing.assert_array_equal(first.scores, ref)
        np.testing.assert_array_equal(second.scores, ref)
        # the second run sweeps at the width the first one ended at
        width = first.stats.batches[-1].sources
        assert {b.sources for b in second.stats.batches} == {width}

    def test_releasing_the_pin_forgets_the_width(self):
        g = seed_graph()
        machine, engine = self._budgeted()
        shrinks = []
        for release in (False, False, True):
            if release:
                engine.release_invariants()
            self._mfbc(g, engine)
            shrinks.append(len(_rungs(machine)) - sum(shrinks))
        assert shrinks[0] > 0 and shrinks == [shrinks[0], 0, shrinks[0]]

    def test_approx_queries_share_the_width(self):
        from repro.core.approx import approximate_bc

        g = seed_graph()
        machine, engine = self._budgeted()
        shrinks = []
        for seed in (1, 2):
            approximate_bc(g, 16, seed=seed, engine=engine)
            shrinks.append(len(_rungs(machine)))
        assert shrinks[0] > 0 and shrinks[1] == shrinks[0]

    def test_a_narrow_run_does_not_lower_the_width(self):
        g = seed_graph()
        engine = DistributedEngine(quiet(3))
        self._mfbc(g, engine, sources=np.array([0]), batch_size=1)
        wide = self._mfbc(g, engine)
        assert [b.sources for b in wide.stats.batches] == [16]


class TestRungsCompose:
    def _flaky_mfbf(self, monkeypatch, failures):
        """Make the next ``len(failures)`` sweeps raise, in order (``None``:
        that sweep runs)."""
        import sys

        mfbc_mod = sys.modules["repro.core.mfbc"]
        real = mfbc_mod.mfbf
        pending = list(failures)

        def flaky(*args, **kwargs):
            failure = pending.pop(0) if pending else None
            if failure is not None:
                raise failure
            return real(*args, **kwargs)

        monkeypatch.setattr(mfbc_mod, "mfbf", flaky)

    def _mfbc(self, g, retries):
        machine = Machine(
            4, faults=FaultPlan(seed=0), elastic="off", memory_words=UNLIMITED
        )
        res = mfbc(
            g, batch_size=8, sources=np.arange(8), retries=retries,
            engine=DistributedEngine(machine),
        )
        backoffs = [
            (e.detail["attempt"], e.detail["backoff_s"])
            for e in machine.faults.events
            if (e.kind, e.action) == ("batch", "recovered")
        ]
        return res.scores, backoffs

    def test_oom_rung_does_not_reset_the_retry_budget(self, monkeypatch):
        from repro.faults import CorruptPayload

        g = seed_graph()
        ref, _ = self._mfbc(g, retries=2)
        # two corruptions in one batch, an OOM rung between them: with one
        # retry the second corruption is terminal ...
        storm = lambda: [
            CorruptPayload("bcast", 1),
            MemoryLimitExceeded("boom"),
            CorruptPayload("bcast", 2),
        ]
        self._flaky_mfbf(monkeypatch, storm())
        with pytest.raises(CorruptPayload):
            self._mfbc(g, retries=1)
        # ... and with two it completes on the same attempt numbers and
        # jitter draws as the storm without the OOM in the middle
        self._flaky_mfbf(monkeypatch, storm())
        scores, backoffs = self._mfbc(g, retries=2)
        np.testing.assert_array_equal(scores, ref)
        self._flaky_mfbf(
            monkeypatch, [CorruptPayload("bcast", 1), CorruptPayload("bcast", 2)]
        )
        _, plain = self._mfbc(g, retries=2)
        assert [a for a, _ in backoffs] == [1, 2]
        # the drivers' 0.05 s base, capped at base·2^(retries-1)
        assert all(0.05 <= b <= 0.1 for _, b in backoffs)
        assert backoffs == plain

    def test_abandoned_note_lists_only_its_own_batch_rungs(self, monkeypatch):
        # batch 0 shrinks 2 -> 1 and completes in two sub-sweeps; batch 1
        # starts at the recorded width 1, runs out of memory and is
        # abandoned: its note names no rung, not batch 0's shrink
        g = seed_graph()
        machine = Machine(
            4, faults=FaultPlan(seed=0), elastic="off", memory_words=UNLIMITED
        )
        self._flaky_mfbf(
            monkeypatch,
            [MemoryLimitExceeded("boom"), None, None, MemoryLimitExceeded("boom")],
        )
        with pytest.raises(MemoryLimitExceeded):
            mfbc(
                g, batch_size=2, sources=np.arange(4), retries=0,
                engine=DistributedEngine(machine),
            )
        notes = [
            (e.action, e.detail.get("rungs"))
            for e in machine.faults.events
            if e.kind == "mem"
        ]
        assert notes == [("degraded", None), ("abandoned", "none")]

    def test_service_wave_survives_crash_and_squeeze(self):
        # one bc_source wave hit by a memory squeeze *and* a rank crash,
        # with elastic recovery and cheap checking on: the shrink rung is
        # taken inside the sweep, the crash is recovered by _handle_fault
        # through the same ladder, and the answers do not move
        from repro.check import check_ledger
        from repro.serve import BCService

        g = seed_graph()
        src = np.arange(16)
        ref = mfbc_per_source(g, src, engine=DistributedEngine(quiet(4)))
        # the squeeze lands at step 6 and halves the sweep; step 13 crashes
        # a product of the second half-sweep (budget re-tuned 12 000 -> 7 000
        # with MFBr's narrowed products: the unbudgeted peak fell 16 071 ->
        # 9 481 words/rank)
        machine = Machine(
            4, memory_words=7_000, faults="seed:1,crash@13:1",
            elastic="on", check="cheap",
        )
        with BCService(
            g, machine=machine, max_batch=16, batch_window=5.0
        ) as svc:
            ids = [svc.submit("bc_source", source=int(s)) for s in src]
            rows = [svc.result(qid, timeout=120.0) for qid in ids]
            stats = svc.stats()
        np.testing.assert_array_equal(np.vstack(rows), ref)
        assert stats["failed"] == 0 and stats["recoveries"] == 1
        assert_fired(machine)
        assert machine.p == 3 and check_ledger(machine) == []
        notes = [(e.kind, e.action, e.site) for e in machine.faults.events]
        assert ("mem", "degraded", "serve") in notes
        # the served recovery leaves the drivers' note, with the serve site
        assert ("batch", "recovered", "serve") in notes
        assert notes.index(("mem", "degraded", "serve")) < notes.index(
            ("batch", "recovered", "serve")
        )


# ---------------------------------------------------------------------------
# observability: memory report and attribution
# ---------------------------------------------------------------------------


class TestMemoryReport:
    def test_attribution_rows_and_report_render(self, tmp_path):
        # counted in the machine's registry with no trace session on
        g = seed_graph()
        probe = quiet(4)
        run_mfbc(g, probe)
        machine = quiet(
            4, memory_words=int(probe.memory_peak() * 0.6),
            spill_dir=str(tmp_path),
        )
        run_mfbc(g, machine)
        rows = memory_attribution(machine.metrics)
        events = {r["event"] for r in rows}
        assert "spill.spill" in events and events <= {"spill.spill", "spill.unspill"}
        spilled = [r for r in rows if r["event"] == "spill.spill"]
        assert sum(r["words"] for r in spilled) > 0
        text = format_report("memory", machine.metrics)
        assert "memory pressure" in text and "spill.spill" in text
        # the reliefs that spilled are run events, in the faults report
        reliefs = [r for r in fault_attribution(machine.metrics) if r["kind"] == "spill"]
        assert sum(r["evicted"] for r in reliefs) == machine.memory.snapshot()["reliefs"] > 0

    def test_report_empty_without_pressure(self):
        machine = quiet(4)
        run_mfbc(seed_graph(), machine)
        assert memory_attribution(machine.metrics) == []
        assert format_report("memory", machine.metrics) == ""
        assert format_report("faults", machine.metrics) == ""

    def test_inert_fault_plan_reports_the_same(self):
        # every run event goes through one emitter, so attaching a plan that
        # injects nothing must not move a row of either report; the off-spellings are explicit
        # because the CI ladder leg sets an ambient REPRO_FAULTS.  The budget
        # is the smallest round one the run completes in: a product's output
        # stays on its plan's layout, and at the narrowest sweep 1D-B's row
        # strips hold the one frontier row on a single rank (the home grid
        # split its columns two ways), which needs 6 992 words there
        g = rmat_graph(8, 8, seed=0)
        reports = []
        for faults in ("off", "seed:0"):
            machine = Machine(
                4, memory_words=7000, elastic="off", check="off", faults=faults
            )
            engine = DistributedEngine(machine)
            mfbc(g, engine=engine, batch_size=32, max_batches=2)
            reports.append(
                [format_report(name, machine.metrics) for name in ("faults", "memory")]
            )
        faults, memory = reports[0]
        assert "evicted" in faults and "shrink_batch" in faults and "spill.spill" in memory
        assert reports[1] == reports[0]
