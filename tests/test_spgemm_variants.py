"""Every distributed SpGEMM variant must equal the sequential kernel.

This is the load-bearing equivalence of the whole mini-CTF layer: the full
§5.2 algorithm space — 1D A/B/C, 2D AB/AC/BC over every factorization, and
all nine 3D nestings — run on real partitioned data and must reproduce the
node-local product bit-for-bit, for single-field and multpath monoids alike.
"""

import functools
import math
import sys
import zlib

import numpy as np
import pytest

from repro.algebra import (
    MULTPATH,
    REAL_PLUS_TIMES,
    TROPICAL,
    MatMulSpec,
    bellman_ford_action,
)
from repro.algebra.matmul import MASK_RULES
from repro.dist import DistMat, DistributedEngine, Layout
from repro.dist.distmat import axis_block
from repro.machine import executor
from repro.graphs import rmat_graph
from repro.machine.grid import near_square_shape
from repro.machine import CostParams, Machine
from repro.sparse import SpMat, spgemm
from repro.sparse.spgemm import DEFAULT_CHUNK
from repro.spgemm import Plan, execute_plan
from repro.spgemm.selector import PinnedPolicy, enumerate_plans
from repro.spgemm.variants import _block_diag, _step_product, _task_products

from conftest import KERNELS, WEIGHT, assert_bits, kernel, random_weight_spmat, ruled

SPEC = TROPICAL.matmul_spec()
BF = MatMulSpec(MULTPATH, bellman_ford_action, "bf")
PLUS = REAL_PLUS_TIMES.matmul_spec()


def home(p):
    pr, pc = near_square_shape(p)
    return np.arange(p).reshape(pr, pc)


def dist_pair(rng, machine, m, k, n, da=0.2, db=0.2):
    a = random_weight_spmat(rng, m, k, da)
    b = random_weight_spmat(rng, k, n, db)
    h = home(machine.p)
    return (
        a,
        b,
        DistMat.distribute(a, machine, h, charge=False),
        DistMat.distribute(b, machine, h, charge=False),
    )


class TestAllPlansMatchSequential:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 12])
    def test_square_operands(self, rng, p):
        machine = Machine(p)
        a, b, da, db = dist_pair(rng, machine, 26, 26, 26)
        ref = spgemm(a, b, SPEC).matrix
        for plan in enumerate_plans(p):
            c, ops = execute_plan(plan, da, db, SPEC)
            assert c.gather(charge=False).equals(ref), plan.describe()
            assert ops >= 0

    @pytest.mark.parametrize("p", [4, 8, 12])
    def test_rectangular_operands(self, rng, p):
        machine = Machine(p)
        a, b, da, db = dist_pair(rng, machine, 7, 33, 19)
        ref = spgemm(a, b, SPEC).matrix
        for plan in enumerate_plans(p):
            c, _ = execute_plan(plan, da, db, SPEC)
            assert c.gather(charge=False).equals(ref), plan.describe()

    def test_multpath_operand(self, rng):
        """Frontier-style product: multpath rows times weight adjacency."""
        p = 4
        machine = Machine(p)
        n = 30
        adj = random_weight_spmat(rng, n, n, 0.2)
        rows = np.zeros(3, dtype=np.int64)
        cols = np.array([2, 7, 11])
        f = SpMat(1, n, rows, cols, MULTPATH.make([1.0, 2.0, 2.0], [1, 1, 2]), MULTPATH)
        ref = spgemm(f, adj, BF).matrix
        h = home(p)
        df = DistMat.distribute(f, machine, h, charge=False)
        dadj = DistMat.distribute(adj, machine, h, charge=False)
        for plan in enumerate_plans(p):
            c, _ = execute_plan(plan, df, dadj, BF)
            assert c.gather(charge=False).equals(ref), plan.describe()

    @pytest.mark.parametrize("rule", MASK_RULES)
    @pytest.mark.parametrize("p", [4, 8, 12])
    def test_every_plan_under_every_rule(self, rng, p, rule):
        """Every plan gives the generic kernel's bits and ops under each mask
        rule, its mask resting on a layout no plan puts C on (one row of
        uneven column tiles).  Weights and multiplicities are small
        integers: ties are common and sums exact in any order."""
        m, k, n = 7, 33, 19
        a = random_weight_spmat(rng, m, k, 0.3)
        a = SpMat(m, k, a.rows, a.cols,
                  MULTPATH.make(rng.integers(1, 4, a.nnz), rng.integers(1, 4, a.nnz)), MULTPATH)
        b = random_weight_spmat(rng, k, n, 0.3)
        b = SpMat(k, n, b.rows, b.cols, {"w": rng.integers(1, 4, b.nnz).astype(float)}, WEIGHT)
        # most of the unmasked product's keys, with its weights on some of
        # them and others on the rest, and keys it has none on
        full = spgemm(a, b, BF, kernel="generic").matrix
        part = full.filter(lambda v: rng.random(len(v["w"])) < 0.7)
        w = part.vals["w"] + (rng.random(part.nnz) < 0.4)
        extra = random_weight_spmat(rng, m, n, 0.2)
        extra = extra.filter(lambda v, keys=extra.keys(): ~np.isin(keys, full.keys()))
        mask = SpMat(m, n, np.concatenate([part.rows, extra.rows]),
                     np.concatenate([part.cols, extra.cols]),
                     {"w": np.concatenate([w, extra.vals["w"]])}, WEIGHT)
        spec = ruled(BF, rule)
        want = spgemm(a, b, spec, mask=mask, kernel="generic")
        assert 0 < want.ops < spgemm(a, b, BF).ops
        machine = Machine(p, faults="off", elastic="off", check="off", memory_words="off")
        inner = np.sort(rng.choice(np.arange(1, n), p - 1, replace=False))
        cuts = np.concatenate([[0], inner, [n]])
        dmask = DistMat.distribute(mask, machine, home(p), charge=False).redistribute(
            Layout(np.arange(p).reshape(1, p), [0, m], cuts)
        )
        da, db = (DistMat.distribute(x, machine, home(p), charge=False) for x in (a, b))
        for plan in enumerate_plans(p):
            c, ops = execute_plan(plan, da, db, spec, mask=dmask)
            assert c.layout != dmask.layout, plan.describe()
            assert_bits(c.gather(charge=False), want.matrix)
            assert ops == want.ops, plan.describe()

    def test_empty_frontier(self, rng):
        p = 4
        machine = Machine(p)
        n = 12
        adj = random_weight_spmat(rng, n, n, 0.3)
        f = SpMat.empty(2, n, MULTPATH)
        h = home(p)
        df = DistMat.distribute(f, machine, h, charge=False)
        dadj = DistMat.distribute(adj, machine, h, charge=False)
        for plan in enumerate_plans(p):
            c, ops = execute_plan(plan, df, dadj, BF)
            assert c.nnz == 0 and ops == 0, plan.describe()


class TestPlanValidation:
    def test_wrong_machine_size(self, rng):
        machine = Machine(4)
        a, b, da, db = dist_pair(rng, machine, 8, 8, 8)
        with pytest.raises(ValueError, match="does not cover"):
            execute_plan(Plan(8, 1, 1, "A", "AB"), da, db, SPEC)

    def test_inner_dim_mismatch(self, rng):
        machine = Machine(2)
        h = home(2)
        a = DistMat.distribute(random_weight_spmat(rng, 4, 5, 0.5), machine, h)
        b = DistMat.distribute(random_weight_spmat(rng, 6, 4, 0.5), machine, h)
        with pytest.raises(ValueError, match="inner dimension"):
            execute_plan(Plan(2, 1, 1, "A", "AB"), a, b, SPEC)

    def test_plan_invalid_variant(self):
        with pytest.raises(ValueError, match="x must be"):
            Plan(1, 2, 2, "Q", "AB")
        with pytest.raises(ValueError, match="yz must be"):
            Plan(1, 2, 2, "A", "XY")
        with pytest.raises(ValueError, match="positive"):
            Plan(0, 2, 2, "A", "AB")

    def test_plan_kind(self):
        assert Plan(4, 1, 1, "A", "AB").kind == "1d"
        assert Plan(1, 2, 2, "A", "AB").kind == "2d"
        assert Plan(2, 2, 1, "B", "AC").kind == "3d"
        assert "1D" in Plan(4, 1, 1, "C", "AB").describe()
        assert "2D" in Plan(1, 2, 2, "A", "BC").describe()
        assert "3D" in Plan(2, 2, 2, "B", "AC").describe()

    @pytest.mark.parametrize("p", range(1, 17))
    def test_every_plan_has_its_own_name(self, p):
        """The name is what spans and selection counters key on: two plans
        that run differently never share one (one rank's three 1D plans
        included)."""
        names = [plan.describe() for plan in enumerate_plans(p)]
        assert len(set(names)) == len(names)
        if p == 1:
            assert names == ["1D-A(p=1)", "1D-B(p=1)", "1D-C(p=1)"]


class TestCostAccounting:
    def test_communication_charged(self, rng):
        machine = Machine(4)
        a, b, da, db = dist_pair(rng, machine, 20, 20, 20, 0.4, 0.4)
        w0 = machine.ledger.critical_words()
        execute_plan(Plan(1, 2, 2, "A", "AB"), da, db, SPEC)
        assert machine.ledger.critical_words() > w0
        assert machine.ledger.critical_msgs() > 0

    def test_compute_charged(self, rng):
        machine = Machine(4)
        a, b, da, db = dist_pair(rng, machine, 20, 20, 20, 0.4, 0.4)
        execute_plan(Plan(1, 2, 2, "A", "AB"), da, db, SPEC)
        assert machine.ledger.compute_ops > 0

    def test_pinned_operand_replicates_once(self, rng):
        """A pinned operand keeps its replicas: the second product with it
        charges no replicate words (1D-B and 3D B-AB)."""
        for plan in (Plan(8, 1, 1, "B", "AB"), Plan(2, 2, 2, "B", "AB")):
            machine = Machine(8)
            engine = DistributedEngine(machine, policy=PinnedPolicy(plan))
            adj = engine.adjacency(rmat_graph(5, 4, seed=0))
            frontier = DistMat.distribute(
                random_weight_spmat(rng, 6, adj.nrows, 0.3), machine, engine.home_ranks2d
            )
            moved = []
            for _ in range(2):
                before = machine.ledger.category_words.get("replicate", 0.0)
                engine.spgemm(frontier, adj, SPEC)
                moved.append(machine.ledger.category_words.get("replicate", 0.0) - before)
            assert moved[0] > 0.0 and moved[1] == 0.0, plan.describe()
            assert len(adj._replicas) == 1

    def test_p1_output_no_comm(self, rng):
        machine = Machine(1, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1e9))
        a, b, da, db = dist_pair(rng, machine, 10, 10, 10, 0.4, 0.4)
        execute_plan(Plan(1, 1, 1, "A", "AB"), da, db, SPEC)
        assert machine.ledger.critical_words() == 0.0


# ---------------------------------------------------------------------------
# 1D-B: the p strip products as one kernel call over A's packed strips
# ---------------------------------------------------------------------------


def _column(p):
    return np.arange(p).reshape(p, 1)


def _strip_operands(rng, machine, spec):
    """A 13-row A on ``machine.p`` strips, some of them empty (no entry in a
    row ≡ 1 mod 3) and, past 13 strips, some with no rows at all; and a
    whole 30 × 30 B.  Sums (multiplicities, plus-times values) are
    non-integer floats, so a row reduced in other pieces shows in the bits."""
    m, n = 13, 30
    b = random_weight_spmat(rng, n, n, 0.3)
    a = random_weight_spmat(rng, m, n, 0.35)
    a = a.filter(lambda v, rows=a.rows: rows % 3 != 1)
    if spec is BF:
        a = SpMat(m, n, a.rows, a.cols, MULTPATH.make(a.vals["w"], rng.random(a.nnz)), MULTPATH)
    elif spec is PLUS:
        a, b = (
            SpMat(*x.shape, x.rows, x.cols, {"w": rng.random(x.nnz) + 0.5}, PLUS.monoid)
            for x in (a, b)
        )
    layout = Layout.even(_column(machine.p), m, n)
    da = DistMat.distribute(a, machine, home(machine.p), charge=False).redistribute(layout)
    return da, b


def _rule(kind: str) -> str:
    """The mask rule of one masking case."""
    return "complement" if kind.endswith("complement") else "keep"


def _masks(rng, kind):
    """``(mask, rule)`` of the 13 × 30 output for one masking case."""
    if kind == "none":
        return None, "keep"
    if kind.startswith("empty"):
        return SpMat.empty(13, 30, WEIGHT), _rule(kind)
    return random_weight_spmat(rng, 13, 30, 0.5), _rule(kind)


def _chunked_calls(monkeypatch, chunk):
    """Run the executor's products at ``chunk``; returns the list that gets
    one ``1`` per kernel call they make."""
    calls = []
    chunked = functools.partial(spgemm, chunk=chunk)
    monkeypatch.setattr(executor, "spgemm", lambda *a, **k: calls.append(1) or chunked(*a, **k))
    return calls


class TestStripProduct:
    """A 1D-B step's product over A's packed strips (the step product's
    zero-copy case) gives every strip's product bit for bit and charges
    each rank its strip's ops, in strip order."""

    @pytest.mark.parametrize("route", KERNELS)
    @pytest.mark.parametrize("spec", [BF, SPEC, PLUS], ids=["bf", "tropical", "plus"])
    @pytest.mark.parametrize(
        "masking", ["none", "mask", "complement", "empty", "empty-complement"]
    )
    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 300, 40], ids=["one", "groups", "cut"])
    def test_equals_the_per_strip_products(self, rng, monkeypatch, route, spec, masking, chunk):
        p = 16  # more strips than rows: some strips are empty by their splits
        machine = Machine(p, faults="off", elastic="off", check="off", memory_words="off")
        da, b = _strip_operands(rng, machine, spec)
        mask, rule = _masks(rng, masking)
        spec = ruled(spec, rule)
        cuts = da.layout.row_splits.tolist()
        # only the executor's product runs at the chunk: the references at the default
        calls = _chunked_calls(monkeypatch, chunk)
        with kernel(route):
            ref = [
                spgemm(
                    da.block(r, 0),
                    b,
                    spec,
                    mask=None if mask is None else axis_block(mask, 0, cuts[r], cuts[r + 1]),
                )
                for r in range(p)
            ]
            led = machine.ledger
            before = led.time.copy(), led.compute_per_rank.copy()
            c, per_strip = _step_product(
                machine, np.arange(p), da.packed(), da.layout.row_splits, b, spec, mask
            )
        ops = int(per_strip.sum())
        assert calls == [1]  # one kernel call of one pair, at every chunk
        assert any(da.block(r, 0).nnz == 0 for r in range(p))
        out = DistMat(machine, da.layout, c, spec.monoid)
        for r, res in enumerate(ref):
            assert_bits(out.block(r, 0), res.matrix)
            assert int(res.row_ops.sum()) == res.ops
        # each rank is charged its own strip's ops, and only those
        want = np.array([float(res.ops) for res in ref])
        assert np.array_equal(led.compute_per_rank - before[1], want)
        assert np.array_equal(led.time, before[0] + want / machine.cost.compute_rate)
        assert led.compute_ops == sum(res.ops for res in ref)
        assert ops == sum(res.ops for res in ref)

    @pytest.mark.parametrize("masked", [False, True])
    def test_one_kernel_call_per_product(self, rng, monkeypatch, masked):
        p = 16
        machine = Machine(p)
        a, b, da, db = dist_pair(rng, machine, 40, 30, 30)
        da = da.redistribute(Layout.even(_column(p), 40, 30))
        calls = []
        original = executor.spgemm
        monkeypatch.setattr(
            executor, "spgemm", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        mask = random_weight_spmat(rng, 40, 30, 0.5) if masked else None
        dmask = None if mask is None else DistMat.distribute(mask, machine, home(p), charge=False)
        c, _ = execute_plan(Plan(p, 1, 1, "B", "AB"), da, db, SPEC, mask=dmask)
        assert len(calls) == 1
        assert c.gather(charge=False).equals(spgemm(a, b, SPEC, mask=mask).matrix)


# ---------------------------------------------------------------------------
# every plan step: one kernel call over the stacked tasks
# ---------------------------------------------------------------------------

variants = sys.modules[_task_products.__module__]


def _per_task(machine, tasks, spec, *, masks=None, diag=None):
    """The reference the step product replaces: one kernel call per task,
    then one charge of the tasks' ops in task order."""

    def right(y):
        if diag is None:
            return y
        return diag.mat.block(*(int(b) for b in (*diag.rows[y : y + 2], *diag.cols[y : y + 2])))

    results = [
        spgemm(x, right(y), spec, mask=None if masks is None else masks[t])
        for t, (_, x, y) in enumerate(tasks)
    ]
    machine.charge_compute([rank for rank, _, _ in tasks], [res.ops for res in results])
    return [res.matrix for res in results], sum(res.ops for res in results)


def _charges(monkeypatch, machine):
    """Every ``charge_compute`` of ``machine`` from now on, as ``(ranks, ops)``."""
    seen = []
    original = machine.charge_compute

    def recording(ranks, ops):
        seen.append((np.asarray(ranks).tolist(), np.broadcast_to(
            np.asarray(ops, dtype=float), np.shape(ranks)).tolist()))
        return original(ranks, ops)

    monkeypatch.setattr(machine, "charge_compute", recording)
    return seen


def _valued(rng, mat, spec, left):
    """``mat``'s pattern with values of ``spec``'s left (or right) operand:
    non-integer sums, so a row reduced in other pieces shows in the bits."""
    if spec is BF and left:
        return SpMat(*mat.shape, mat.rows, mat.cols,
                     MULTPATH.make(mat.vals["w"], rng.random(mat.nnz)), MULTPATH)
    if spec is PLUS:
        return SpMat(*mat.shape, mat.rows, mat.cols, {"w": rng.random(mat.nnz) + 0.5},
                     PLUS.monoid)
    return mat


def _step_tasks(rng, spec):
    """Six tasks on three right operands: the first shared by three tasks,
    one left operand empty and one with no rows, ranks out of order."""
    ys = [random_weight_spmat(rng, k, n, 0.3) for k, n in ((30, 30), (20, 25), (30, 12))]
    ys = [_valued(rng, y, spec, left=False) for y in ys]
    plan = [(5, 6, 0), (2, 4, 0), (7, 5, 1), (0, 7, 0), (3, 0, 2), (1, 6, 2)]
    tasks = []
    for t, (rank, m, y) in enumerate(plan):
        x = random_weight_spmat(rng, m, ys[y].nrows, 0.0 if t == 1 else 0.35)
        tasks.append((rank, _valued(rng, x, spec, left=True), y))
    return tasks, ys


def _step_masks(rng, tasks, ys, kind):
    """Per-task masks (each of its task's output shape) for one masking case."""
    if kind == "none":
        return None, "keep"
    shapes = [(x.nrows, ys[y].ncols) for _, x, y in tasks]
    if kind.startswith("empty"):
        return [SpMat.empty(*shape, WEIGHT) for shape in shapes], _rule(kind)
    return [random_weight_spmat(rng, *shape, 0.5) for shape in shapes], _rule(kind)


class TestStepProduct:
    """A plan step's stacked product gives every task's product bit for bit
    and issues the per-task charges, in task order, in one call."""

    @pytest.mark.parametrize("route", KERNELS)
    @pytest.mark.parametrize("spec", [BF, SPEC, PLUS], ids=["bf", "tropical", "plus"])
    @pytest.mark.parametrize(
        "masking", ["none", "mask", "complement", "empty", "empty-complement"]
    )
    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 300, 40], ids=["one", "groups", "cut"])
    def test_equals_the_per_task_products(self, rng, monkeypatch, route, spec, masking, chunk):
        tasks, ys = _step_tasks(rng, spec)
        masks, rule = _step_masks(rng, tasks, ys, masking)
        spec = ruled(spec, rule)
        # only the executor's product runs at the chunk: the references at the default
        calls = _chunked_calls(monkeypatch, chunk)
        # the right operands named per task (distinct objects, one shared by
        # three tasks), or as the caller's block diagonal
        for operands in ("named", "diagonal"):
            diag = _block_diag(ys) if operands == "diagonal" else None
            named = tasks if diag else [(rank, x, ys[y]) for rank, x, y in tasks]
            outs = []
            for run in (_per_task, _task_products):
                calls.clear()
                machine = Machine(8, faults="off", elastic="off", check="off",
                                  memory_words="off")
                seen = _charges(monkeypatch, machine)
                with kernel(route):
                    prods, ops = run(machine, named, spec, masks=masks, diag=diag)
                outs.append((prods, ops, seen, machine.ledger.snapshot()))
            (want, want_ops, want_seen, want_led), (got, got_ops, seen, led) = outs
            assert len(got) == len(want) == len(tasks)
            for g, w in zip(got, want):
                assert_bits(g, w)
            assert got_ops == want_ops and seen == want_seen and led == want_led
            assert len(seen) == 1
            assert calls == [1]  # one kernel call of one pair, at every chunk

    def test_a_step_without_tasks_charges_nothing(self, monkeypatch):
        machine = Machine(4)
        seen = _charges(monkeypatch, machine)
        assert _task_products(machine, [], SPEC) == ([], 0)
        assert seen == [([], [])] and machine.ledger.compute_ops == 0

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize(
        "p, plan",
        [(4, Plan(4, 1, 1, x, "AB")) for x in "AC"]
        + [(6, Plan(1, 2, 3, "A", yz)) for yz in ("AB", "BC", "AC")]
        + [(8, Plan(2, 2, 2, x, yz)) for x in "ABC" for yz in ("AB", "BC", "AC")],
        ids=lambda v: v.describe() if isinstance(v, Plan) else str(v),
    )
    def test_plans_match_the_per_task_products(self, rng, monkeypatch, p, plan, masked):
        """Every plan computes, charges and issues what it did with one kernel
        call per task — empty tasks and shared or distinct right operands
        included — in at most one call per step."""
        a = _valued(rng, random_weight_spmat(rng, 14, 23, 0.25), BF, left=True)
        b = random_weight_spmat(rng, 23, 17, 0.25)
        mask = random_weight_spmat(rng, 14, 17, 0.5) if masked else None
        runs = []
        for local in (_per_task, _task_products):
            monkeypatch.setattr(variants, "_task_products", local)
            machine = Machine(p, faults="off", elastic="off", check="off", memory_words="off")
            da, db = (DistMat.distribute(x, machine, home(p), charge=False) for x in (a, b))
            seen = _charges(monkeypatch, machine)
            calls = []
            original = executor.spgemm
            monkeypatch.setattr(
                executor, "spgemm", lambda *a, **k: calls.append(1) or original(*a, **k)
            )
            dmask = None
            if mask is not None:
                dmask = DistMat.distribute(mask, machine, home(p), charge=False)
            c, ops = execute_plan(plan, da, db, ruled(BF, "complement" if masked else "keep"),
                                  mask=dmask)
            monkeypatch.setattr(executor, "spgemm", original)
            runs.append((c, ops, seen, machine.ledger.snapshot(), len(calls)))
        (want, want_ops, want_seen, want_led, _), (got, ops, seen, led, calls) = runs
        assert got.layout == want.layout
        for ij in np.ndindex(*got.grid_shape):
            assert_bits(got.block(*ij), want.block(*ij))
        assert ops == want_ops and seen == want_seen and led == want_led
        steps = math.lcm(plan.p2, plan.p3)
        assert calls <= {"1d": 1, "2d": steps, "3d": plan.p1 * steps}[plan.kind]

    def test_a_stationary_b_delivered_anew_is_not_memoized(self, rng):
        """A pinned B the plan re-blocks arrives by an all-to-all in every
        product, which a fault may corrupt, so its diagonal is built from
        what arrived each time: under silent corruption three products
        equal those of the same B unpinned (no memo), bit for bit."""
        plan = Plan(1, 4, 2, "A", "AC")  # p = 8 rests on 2 × 4: B is re-blocked
        frontier = random_weight_spmat(rng, 12, 32, 0.3)
        runs = []
        for pinned in (True, False):
            machine = Machine(8, faults="seed:5,corrupt:0.5")
            engine = DistributedEngine(machine, policy=PinnedPolicy(plan))
            adj = engine.adjacency(rmat_graph(5, 8, seed=0))
            if not pinned:
                adj._replicas = None
            f = DistMat.distribute(frontier, machine, engine.home_ranks2d)
            runs.append([engine.spgemm(f, adj, SPEC)[0].gather(charge=False) for _ in range(3)])
            assert machine.faults.injected > 0
        for got, want in zip(*runs):
            assert_bits(got, want)

    def test_ca_mfbc_step_calls_and_memoized_diagonal(self, rng, monkeypatch):
        """CA-MFBC's ``Plan(4, 2, 2, "B", "AC")`` at p = 16 makes at most one
        kernel call per step, two a product, and the layers' one stationary
        block diagonal is built once, with the pinned adjacency's replicas.
        The layers hold one replica of each block, so the diagonal has one
        operand per block of a layer, which every layer's cell shares."""
        plan = Plan(4, 2, 2, "B", "AC")
        machine = Machine(16)
        engine = DistributedEngine(machine, policy=PinnedPolicy(plan))
        adj = engine.adjacency(rmat_graph(6, 8, seed=0))
        frontier = DistMat.distribute(
            random_weight_spmat(rng, 24, adj.nrows, 0.2), machine, engine.home_ranks2d
        )
        calls = []
        original = executor.spgemm
        monkeypatch.setattr(
            executor, "spgemm", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        held = []
        for _ in range(2):
            calls.clear()
            c, _ = engine.spgemm(frontier, adj, SPEC)
            assert 0 < len(calls) <= 2
            held.append(adj._replicas["diag", plan])
        assert held[0] is held[1]
        diag, which = held[0]
        assert len(diag.rows) == 2 * 2 + 1
        assert which == {(l, i, j): 2 * i + j for l, i, j in np.ndindex(4, 2, 2)}
        want = spgemm(frontier.gather(charge=False), adj.gather(charge=False), SPEC).matrix
        assert_bits(c.gather(charge=False), want)


# ---------------------------------------------------------------------------
# golden ledger: what each §5.2 plan kind charges, pinned
# ---------------------------------------------------------------------------


def _golden_operands():
    """One fixed multpath frontier × weight adjacency (arithmetic patterns,
    so the operands depend on no random generator)."""
    n = 48
    i = np.arange(n)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([(7 * i + 3) % n, (11 * i + 5) % n, (i * i + 1) % n])
    adj = SpMat(n, n, rows, cols, {"w": 1.0 + (13 * np.arange(3 * n)) % 5}, WEIGHT)
    r = np.repeat(np.arange(6), 4)
    t = np.tile(np.arange(4), 6)
    vals = MULTPATH.make(1.0 + (r + t) % 3, 1 + (r * t) % 2)
    return SpMat(6, n, r, (5 * r + 9 * t) % n, vals, MULTPATH), adj


#: p -> (2D grid, 3D grid) the golden plans run on
_GOLDEN_GRIDS = {8: ((2, 4), (2, 2, 2)), 16: ((4, 4), (4, 2, 2))}


def _golden_plans(p):
    """The 15 plan kinds of §5.2: 1D A/B/C, 2D AB/BC/AC, 3D X×YZ."""
    (p2, p3), (q1, q2, q3) = _GOLDEN_GRIDS[p]
    plans = [Plan(p, 1, 1, x, "AB") for x in "ABC"]
    plans += [Plan(1, p2, p3, "A", yz) for yz in ("AB", "BC", "AC")]
    plans += [Plan(q1, q2, q3, x, yz) for x in "ABC" for yz in ("AB", "BC", "AC")]
    return plans


# Recorded at the commit before the collectives moved behind ``Group``
# (``ledger.snapshot()`` plus ``category_words``); the refactor had to
# reproduce every number, and so must any later change to a variant or to a
# collective's charging convention (docs/performance_model.md §6).  Re-pinned
# once on purpose when C stopped going back to the home grid (layout
# persistence): every entry lost exactly its trailing ``redistribute`` and
# nothing else (the 2D plans, whose output grid is the home grid, kept
# every number).  The 3D rows were re-pinned again when the layers began to
# step in lockstep (one re-blocking per operand, each step's collectives
# side by side across layers); every 1D and 2D row kept every number.
# fmt: off
GOLDEN_LEDGER = {
    (8, '1D-A(p=8)'): {'time': 9.411500000000001e-06, 'comm_time': 9.397500000000001e-06, 'words': 318.0, 'msgs': 9.0, 'total_words': 2544.0, 'total_msgs': 72.0, 'compute_ops': 71.0, 'category_words': {'replicate': 1536.0, 'redistribute': 1008.0}},
    (8, '1D-B(p=8)'): {'time': 1.0111999999999999e-05, 'comm_time': 1.01e-05, 'words': 880.0, 'msgs': 9.0, 'total_words': 7040.0, 'total_msgs': 72.0, 'compute_ops': 71.0, 'category_words': {'replicate': 6816.0, 'redistribute': 224.0}},
    (8, '1D-C(p=8)'): {'time': 1.614125e-05, 'comm_time': 1.612625e-05, 'words': 901.0, 'msgs': 15.0, 'total_words': 7208.0, 'total_msgs': 120.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 872.0, 'reduce': 4224.0, 'input': 2112.0}},
    (8, '2D-AB(2x4)'): {'time': 2.4526999999999997e-05, 'comm_time': 2.4514999999999995e-05, 'words': 412.0, 'msgs': 24.0, 'total_words': 2472.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 2472.0}},
    (8, '2D-BC(2x4)'): {'time': 2.7898749999999994e-05, 'comm_time': 2.7878749999999998e-05, 'words': 703.0, 'msgs': 27.0, 'total_words': 4704.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 888.0, 'bcast': 1704.0, 'reduce': 2112.0}},
    (8, '2D-AC(2x4)'): {'time': 2.7518e-05, 'comm_time': 2.7495e-05, 'words': 396.0, 'msgs': 27.0, 'total_words': 1984.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 160.0, 'bcast': 768.0, 'reduce': 1056.0}},
    (8, '3D-A,AB(2x2x2)'): {'time': 1.680925e-05, 'comm_time': 1.680125e-05, 'words': 641.0, 'msgs': 16.0, 'total_words': 4112.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1256.0, 'replicate': 384.0, 'bcast': 2472.0}},
    (8, '3D-A,BC(2x2x2)'): {'time': 1.682875e-05, 'comm_time': 1.681375e-05, 'words': 651.0, 'msgs': 16.0, 'total_words': 4400.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1256.0, 'replicate': 384.0, 'bcast': 1704.0, 'reduce': 1056.0}},
    (8, '3D-A,AC(2x2x2)'): {'time': 1.6660250000000004e-05, 'comm_time': 1.664625e-05, 'words': 517.0, 'msgs': 16.0, 'total_words': 3464.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1256.0, 'replicate': 384.0, 'bcast': 768.0, 'reduce': 1056.0}},
    (8, '3D-B,AB(2x2x2)'): {'time': 1.7229e-05, 'comm_time': 1.7215e-05, 'words': 972.0, 'msgs': 16.0, 'total_words': 7048.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1552.0, 'replicate': 1704.0, 'bcast': 3792.0}},
    (8, '3D-B,BC(2x2x2)'): {'time': 1.73565e-05, 'comm_time': 1.73425e-05, 'words': 1074.0, 'msgs': 16.0, 'total_words': 7720.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1552.0, 'replicate': 1704.0, 'bcast': 3408.0, 'reduce': 1056.0}},
    (8, '3D-B,AC(2x2x2)'): {'time': 1.6858e-05, 'comm_time': 1.684e-05, 'words': 672.0, 'msgs': 16.0, 'total_words': 4568.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1424.0, 'replicate': 1704.0, 'bcast': 384.0, 'reduce': 1056.0}},
    (8, '3D-C,AB(2x2x2)'): {'time': 1.678125e-05, 'comm_time': 1.6766250000000002e-05, 'words': 613.0, 'msgs': 16.0, 'total_words': 4160.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1016.0, 'bcast': 2088.0, 'reduce': 1056.0}},
    (8, '3D-C,BC(2x2x2)'): {'time': 1.686625e-05, 'comm_time': 1.685125e-05, 'words': 681.0, 'msgs': 16.0, 'total_words': 4480.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 584.0, 'bcast': 1704.0, 'reduce': 2192.0}},
    (8, '3D-C,AC(2x2x2)'): {'time': 1.6750750000000002e-05, 'comm_time': 1.673375e-05, 'words': 587.0, 'msgs': 16.0, 'total_words': 3688.0, 'total_msgs': 128.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1112.0, 'bcast': 384.0, 'reduce': 2192.0}},
    (16, '1D-A(p=16)'): {'time': 1.234925e-05, 'comm_time': 1.234125e-05, 'words': 273.0, 'msgs': 12.0, 'total_words': 4368.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'replicate': 3072.0, 'redistribute': 1296.0}},
    (16, '1D-B(p=16)'): {'time': 1.3101999999999998e-05, 'comm_time': 1.3089999999999998e-05, 'words': 872.0, 'msgs': 12.0, 'total_words': 13952.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'replicate': 13632.0, 'redistribute': 320.0}},
    (16, '1D-C(p=16)'): {'time': 2.108775e-05, 'comm_time': 2.1078750000000002e-05, 'words': 863.0, 'msgs': 20.0, 'total_words': 13808.0, 'total_msgs': 320.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1136.0, 'reduce': 8448.0, 'input': 4224.0}},
    (16, '2D-AB(4x4)'): {'time': 3.2461e-05, 'comm_time': 3.2455e-05, 'words': 364.0, 'msgs': 32.0, 'total_words': 4176.0, 'total_msgs': 480.0, 'compute_ops': 71.0, 'category_words': {'bcast': 4176.0}},
    (16, '2D-BC(4x4)'): {'time': 3.670225e-05, 'comm_time': 3.668625e-05, 'words': 549.0, 'msgs': 36.0, 'total_words': 6624.0, 'total_msgs': 576.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1104.0, 'bcast': 3408.0, 'reduce': 2112.0}},
    (16, '2D-AC(4x4)'): {'time': 3.6436e-05, 'comm_time': 3.642e-05, 'words': 336.0, 'msgs': 36.0, 'total_words': 3136.0, 'total_msgs': 544.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 256.0, 'bcast': 768.0, 'reduce': 2112.0}},
    (16, '3D-A,AB(4x2x2)'): {'time': 2.0626999999999997e-05, 'comm_time': 2.062e-05, 'words': 496.0, 'msgs': 20.0, 'total_words': 5736.0, 'total_msgs': 320.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1728.0, 'replicate': 768.0, 'bcast': 3240.0}},
    (16, '3D-A,BC(4x2x2)'): {'time': 2.05155e-05, 'comm_time': 2.05075e-05, 'words': 406.0, 'msgs': 20.0, 'total_words': 5160.0, 'total_msgs': 312.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1632.0, 'replicate': 768.0, 'bcast': 1704.0, 'reduce': 1056.0}},
    (16, '3D-A,AC(4x2x2)'): {'time': 2.0536999999999997e-05, 'comm_time': 2.0524999999999997e-05, 'words': 420.0, 'msgs': 20.0, 'total_words': 5088.0, 'total_msgs': 312.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1728.0, 'replicate': 768.0, 'bcast': 1536.0, 'reduce': 1056.0}},
    (16, '3D-B,AB(4x2x2)'): {'time': 2.114475e-05, 'comm_time': 2.113875e-05, 'words': 911.0, 'msgs': 20.0, 'total_words': 13120.0, 'total_msgs': 304.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2512.0, 'replicate': 3408.0, 'bcast': 7200.0}},
    (16, '3D-B,BC(4x2x2)'): {'time': 2.1196749999999997e-05, 'comm_time': 2.118875e-05, 'words': 951.0, 'msgs': 20.0, 'total_words': 13696.0, 'total_msgs': 304.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2416.0, 'replicate': 3408.0, 'bcast': 6816.0, 'reduce': 1056.0}},
    (16, '3D-B,AC(4x2x2)'): {'time': 2.071475e-05, 'comm_time': 2.070375e-05, 'words': 563.0, 'msgs': 20.0, 'total_words': 7360.0, 'total_msgs': 288.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2512.0, 'replicate': 3408.0, 'bcast': 384.0, 'reduce': 1056.0}},
    (16, '3D-C,AB(4x2x2)'): {'time': 2.0516749999999996e-05, 'comm_time': 2.050875e-05, 'words': 407.0, 'msgs': 20.0, 'total_words': 5368.0, 'total_msgs': 312.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1168.0, 'bcast': 2088.0, 'reduce': 2112.0}},
    (16, '3D-C,BC(4x2x2)'): {'time': 2.0599e-05, 'comm_time': 2.0589999999999998e-05, 'words': 472.0, 'msgs': 20.0, 'total_words': 5688.0, 'total_msgs': 320.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 736.0, 'bcast': 1704.0, 'reduce': 3248.0}},
    (16, '3D-C,AC(4x2x2)'): {'time': 2.054725e-05, 'comm_time': 2.053625e-05, 'words': 429.0, 'msgs': 20.0, 'total_words': 4864.0, 'total_msgs': 312.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1232.0, 'bcast': 384.0, 'reduce': 3248.0}},
}
# fmt: on


class TestGoldenLedger:
    @pytest.mark.parametrize("p", sorted(_GOLDEN_GRIDS))
    def test_every_plan_kind_charges_the_pinned_ledger(self, p):
        f, adj = _golden_operands()
        ref = spgemm(f, adj, BF).matrix
        for plan in _golden_plans(p):
            machine = Machine(
                p, faults="off", elastic="off", check="off", memory_words="off"
            )
            h = home(p)
            df = DistMat.distribute(f, machine, h, charge=False)
            dadj = DistMat.distribute(adj, machine, h, charge=False)
            c, _ = execute_plan(plan, df, dadj, BF)
            assert c.gather(charge=False).equals(ref), plan.describe()
            snap = machine.ledger.snapshot()
            snap["category_words"] = machine.ledger.category_words
            assert snap == GOLDEN_LEDGER[p, plan.describe()], plan.describe()


# ---------------------------------------------------------------------------
# golden sequence: the *order* of every collective a plan kind issues
# ---------------------------------------------------------------------------


def _golden_mask():
    """One fixed structural mask of C's shape (6 × 48): an arithmetic
    pattern keeping about half of every row."""
    r = np.repeat(np.arange(6), 48)
    c = np.tile(np.arange(48), 6)
    keep = (3 * r + 5 * c) % 7 < 4
    return SpMat(6, 48, r[keep], c[keep], {"w": np.ones(int(keep.sum()))}, WEIGHT)


def _charges_of(plan, p, mask, resting=None):
    """Run one golden product; return its ordered ``(category, ranks, words,
    weight)`` charges and its ops total.  The mask rests on ``resting`` (a
    rank grid; the home grid by default)."""
    f, adj = _golden_operands()
    machine = Machine(p, faults="off", elastic="off", check="off", memory_words="off")
    charges = []
    charge = machine.charge_collective

    def recording(ranks, words, weight, category):
        charges.append(
            (category, tuple(int(r) for r in ranks), float(words), float(weight))
        )
        charge(ranks, words, weight, category)

    machine.charge_collective = recording
    h = home(p)
    df = DistMat.distribute(f, machine, h, charge=False)
    dadj = DistMat.distribute(adj, machine, h, charge=False)
    held = None
    if mask is not None:
        held = DistMat.distribute(mask, machine, h if resting is None else resting, charge=False)
    c, ops = execute_plan(plan, df, dadj, BF, mask=held)
    assert c.gather(charge=False).equals(spgemm(f, adj, BF, mask=mask).matrix)
    return charges, ops


# (p, plan, masked) -> (charges, CRC-32 of the ordered charge list, ops).
# Recorded at the commit before §5.2 was written once over ``_DIMS``; the
# ledger's max-merge cannot see the order of two collectives over the same
# ranks, but the fault plan's step counter, the ambient ``REPRO_FAULTS`` CI
# legs and ``repro trace`` all depend on it.  Re-pinned with the ledger above
# when C stopped going home: each 1D and 3D sequence is its old one minus the
# final home re-blocking.  The 3D rows again with the lockstep layers.
# fmt: off
GOLDEN_SEQUENCE = {
    (8, '1D-A(p=8)', False): (2, 3636644272, 71),
    (8, '1D-A(p=8)', True): (2, 3636644272, 36),
    (8, '1D-B(p=8)', False): (2, 2785482997, 71),
    (8, '1D-B(p=8)', True): (2, 2785482997, 36),
    (8, '1D-C(p=8)', False): (4, 1135954060, 71),
    (8, '1D-C(p=8)', True): (4, 3547094620, 36),
    (8, '2D-AB(2x4)', False): (24, 1843729238, 71),
    (8, '2D-AB(2x4)', True): (24, 1843729238, 36),
    (8, '2D-BC(2x4)', False): (25, 2470384900, 71),
    (8, '2D-BC(2x4)', True): (25, 2160061789, 36),
    (8, '2D-AC(2x4)', False): (25, 3409249977, 71),
    (8, '2D-AC(2x4)', True): (24, 2298339776, 36),
    (8, '3D-A,AB(2x2x2)', False): (22, 3389195122, 71),
    (8, '3D-A,AB(2x2x2)', True): (22, 3389195122, 36),
    (8, '3D-A,BC(2x2x2)', False): (22, 1748661528, 71),
    (8, '3D-A,BC(2x2x2)', True): (22, 2843489537, 36),
    (8, '3D-A,AC(2x2x2)', False): (22, 1367941370, 71),
    (8, '3D-A,AC(2x2x2)', True): (22, 2632750135, 36),
    (8, '3D-B,AB(2x2x2)', False): (22, 4178830672, 71),
    (8, '3D-B,AB(2x2x2)', True): (22, 4178830672, 36),
    (8, '3D-B,BC(2x2x2)', False): (22, 247669935, 71),
    (8, '3D-B,BC(2x2x2)', True): (22, 1929100728, 36),
    (8, '3D-B,AC(2x2x2)', False): (22, 4095842718, 71),
    (8, '3D-B,AC(2x2x2)', True): (22, 1202806269, 36),
    (8, '3D-C,AB(2x2x2)', False): (22, 1385821554, 71),
    (8, '3D-C,AB(2x2x2)', True): (22, 695255688, 36),
    (8, '3D-C,BC(2x2x2)', False): (22, 2376180231, 71),
    (8, '3D-C,BC(2x2x2)', True): (22, 2174225707, 36),
    (8, '3D-C,AC(2x2x2)', False): (22, 2452977851, 71),
    (8, '3D-C,AC(2x2x2)', True): (22, 3063823063, 36),
    (16, '1D-A(p=16)', False): (2, 3495969956, 71),
    (16, '1D-A(p=16)', True): (2, 3495969956, 36),
    (16, '1D-B(p=16)', False): (2, 1655385251, 71),
    (16, '1D-B(p=16)', True): (2, 1655385251, 36),
    (16, '1D-C(p=16)', False): (4, 965939904, 71),
    (16, '1D-C(p=16)', True): (4, 3538926522, 36),
    (16, '2D-AB(4x4)', False): (30, 649733104, 71),
    (16, '2D-AB(4x4)', True): (30, 649733104, 36),
    (16, '2D-BC(4x4)', False): (33, 3614880865, 71),
    (16, '2D-BC(4x4)', True): (32, 920053155, 36),
    (16, '2D-AC(4x4)', False): (31, 73218257, 71),
    (16, '2D-AC(4x4)', True): (30, 3451805739, 36),
    (16, '3D-A,AB(4x2x2)', False): (38, 3422398472, 71),
    (16, '3D-A,AB(4x2x2)', True): (38, 3422398472, 36),
    (16, '3D-A,BC(4x2x2)', False): (36, 2284131028, 71),
    (16, '3D-A,BC(4x2x2)', True): (35, 2970312340, 36),
    (16, '3D-A,AC(4x2x2)', False): (36, 1399083771, 71),
    (16, '3D-A,AC(4x2x2)', True): (35, 188362895, 36),
    (16, '3D-B,AB(4x2x2)', False): (34, 2808765575, 71),
    (16, '3D-B,AB(4x2x2)', True): (34, 2808765575, 36),
    (16, '3D-B,BC(4x2x2)', False): (34, 3004123222, 71),
    (16, '3D-B,BC(4x2x2)', True): (34, 2180823049, 36),
    (16, '3D-B,AC(4x2x2)', False): (30, 3324080079, 71),
    (16, '3D-B,AC(4x2x2)', True): (30, 2698696405, 36),
    (16, '3D-C,AB(4x2x2)', False): (36, 3830440512, 71),
    (16, '3D-C,AB(4x2x2)', True): (36, 1024817792, 36),
    (16, '3D-C,BC(4x2x2)', False): (38, 1850006040, 71),
    (16, '3D-C,BC(4x2x2)', True): (36, 2473900128, 36),
    (16, '3D-C,AC(4x2x2)', False): (36, 3402945794, 71),
    (16, '3D-C,AC(4x2x2)', True): (34, 39644465, 36),
}
# fmt: on


class TestGoldenSequence:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("p", sorted(_GOLDEN_GRIDS))
    def test_every_plan_kind_issues_the_pinned_collectives_in_order(self, p, masked):
        mask = _golden_mask() if masked else None
        for plan in _golden_plans(p):
            charges, ops = _charges_of(plan, p, mask)
            got = (len(charges), zlib.crc32(repr(charges).encode()), ops)
            assert got == GOLDEN_SEQUENCE[p, plan.describe(), masked], (
                f"{plan.describe()} masked={masked}:\n"
                + "\n".join(map(repr, charges))
            )

    @pytest.mark.parametrize("p", sorted(_GOLDEN_GRIDS))
    @pytest.mark.parametrize("resting", ["strips", "transposed"])
    def test_a_mask_is_read_where_it_rests_uncharged(self, p, resting, monkeypatch):
        """A mask resting on another layout than the home grid — row strips,
        or a grid unlike every plan's — gives each plan kind the pinned
        collectives and ops, and is never gathered."""
        gather = DistMat.gather

        def guarded(self, *args, **kwargs):
            # the golden mask is the one 6 × 48 WEIGHT matrix
            assert (self.monoid, self.shape) != (WEIGHT, (6, 48)), "a mask was gathered"
            return gather(self, *args, **kwargs)

        monkeypatch.setattr(DistMat, "gather", guarded)
        grid = {"strips": np.arange(p).reshape(p, 1), "transposed": home(p).T[::-1]}[resting]
        for plan in _golden_plans(p):
            charges, ops = _charges_of(plan, p, _golden_mask(), resting=grid)
            got = (len(charges), zlib.crc32(repr(charges).encode()), ops)
            assert got == GOLDEN_SEQUENCE[p, plan.describe(), True], plan.describe()


# ---------------------------------------------------------------------------
# 3D layers in lockstep: one kernel call per step, one move per operand
# ---------------------------------------------------------------------------


class TestLockstepLayers:
    @pytest.mark.parametrize("p", sorted(_GOLDEN_GRIDS))
    def test_one_call_per_step_and_one_move_per_operand(self, p, monkeypatch):
        """Every 3D plan runs step ``t`` of all its layers as one
        ``run_spgemm`` call of one product, and re-blocks each operand at
        most once: X onto layer 0 (before its fiber broadcasts), every other
        operand straight onto the stacked layer grids.  Nothing else is
        exchanged."""
        f, adj = _golden_operands()
        calls, moved = [], []
        run = executor.LocalExecutor.run_spgemm
        exchange = DistMat._exchange

        def counted(self, pairs, *args, **kwargs):
            calls.append(len(pairs))
            return run(self, pairs, *args, **kwargs)

        def traced(self, layout):
            moved.append(self)
            return exchange(self, layout)

        monkeypatch.setattr(executor.LocalExecutor, "run_spgemm", counted)
        monkeypatch.setattr(DistMat, "_exchange", traced)
        for plan in _golden_plans(p):
            if plan.kind != "3d":
                continue
            machine = Machine(p, faults="off", elastic="off", check="off", memory_words="off")
            df, dadj = (DistMat.distribute(x, machine, home(p), charge=False) for x in (f, adj))
            calls.clear()
            moved.clear()
            execute_plan(plan, df, dadj, BF)
            assert calls and len(calls) <= math.lcm(plan.p2, plan.p3), plan.describe()
            assert set(calls) == {1}, plan.describe()
            assert all(any(m is o for o in (df, dadj)) for m in moved), plan.describe()
            for name, operand in (("A", df), ("B", dadj)):
                if name != plan.x:
                    assert sum(m is operand for m in moved) <= 1, (plan.describe(), name)
