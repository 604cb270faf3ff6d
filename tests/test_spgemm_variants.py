"""Every distributed SpGEMM variant must equal the sequential kernel.

This is the load-bearing equivalence of the whole mini-CTF layer: the full
§5.2 algorithm space — 1D A/B/C, 2D AB/AC/BC over every factorization, and
all nine 3D nestings — run on real partitioned data and must reproduce the
node-local product bit-for-bit, for single-field and multpath monoids alike.
"""

import functools
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
from repro.dist import DistMat, Layout
from repro.dist.distmat import axis_block
from repro.machine import executor
from repro.machine.grid import near_square_shape
from repro.machine import CostParams, Machine
from repro.sparse import SpMat, spgemm
from repro.sparse.spgemm import DEFAULT_CHUNK
from repro.spgemm import Plan, execute_plan
from repro.spgemm.selector import enumerate_plans
from repro.spgemm.variants import _strip_product

from conftest import KERNELS, WEIGHT, assert_bits, kernel, random_weight_spmat

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

    @pytest.mark.parametrize("p", [4, 8])
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

    def test_replication_cache_amortizes(self, rng):
        """Second product with the same cached operand replicates for free."""
        machine = Machine(8)
        a, b, da, db = dist_pair(rng, machine, 24, 24, 24, 0.3, 0.3)
        cache: dict = {}
        plan = Plan(2, 2, 2, "B", "AB")
        execute_plan(plan, da, db, SPEC, replication_cache=cache)
        w1 = machine.ledger.total_words
        execute_plan(plan, da, db, SPEC, replication_cache=cache)
        w2 = machine.ledger.total_words - w1
        assert w2 < w1  # replication traffic absent the second time

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


def _masks(rng, kind):
    """``(mask, complement)`` of the 13 × 30 output for one masking case."""
    if kind == "none":
        return None, False
    if kind.startswith("empty"):
        return SpMat.empty(13, 30, WEIGHT), kind.endswith("complement")
    return random_weight_spmat(rng, 13, 30, 0.5), kind == "complement"


class TestStripProduct:
    """The packed product gives every strip's product bit for bit and charges
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
        mask, complement = _masks(rng, masking)
        cuts = da.layout.row_splits.tolist()
        # the executor's products run at the chunk the strips are grouped by
        monkeypatch.setattr(executor, "spgemm", functools.partial(spgemm, chunk=chunk))
        with kernel(route):
            ref = [
                spgemm(
                    da.blocks[r][0],
                    b,
                    spec,
                    mask=None if mask is None else axis_block(mask, 0, cuts[r], cuts[r + 1]),
                    mask_complement=complement,
                    chunk=chunk,
                )
                for r in range(p)
            ]
            charges = []
            machine.charge_compute = lambda ranks, ops: charges.append((list(ranks), ops))
            c, ops = _strip_product(
                machine, da, b, spec, mask, complement, np.arange(p), chunk=chunk
            )
        assert any(blk.nnz == 0 for row in da.blocks for blk in row)
        out = DistMat(machine, da.layout, c, spec.monoid)
        for r, res in enumerate(ref):
            assert_bits(out.blocks[r][0], res.matrix)
            assert int(res.row_ops.sum()) == res.ops
        assert charges == [([r], float(res.ops)) for r, res in enumerate(ref)]
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
        c, _ = execute_plan(Plan(p, 1, 1, "B", "AB"), da, db, SPEC, mask=mask)
        assert len(calls) == 1
        assert c.gather(charge=False).equals(spgemm(a, b, SPEC, mask=mask).matrix)


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
# every number).
# fmt: off
GOLDEN_LEDGER = {
    (8, '1D-A(p=8)'): {'time': 9.411500000000001e-06, 'comm_time': 9.397500000000001e-06, 'words': 318.0, 'msgs': 9.0, 'total_words': 2544.0, 'total_msgs': 72.0, 'compute_ops': 71.0, 'category_words': {'replicate': 1536.0, 'redistribute': 1008.0}},
    (8, '1D-B(p=8)'): {'time': 1.0111999999999999e-05, 'comm_time': 1.01e-05, 'words': 880.0, 'msgs': 9.0, 'total_words': 7040.0, 'total_msgs': 72.0, 'compute_ops': 71.0, 'category_words': {'replicate': 6816.0, 'redistribute': 224.0}},
    (8, '1D-C(p=8)'): {'time': 1.614125e-05, 'comm_time': 1.612625e-05, 'words': 901.0, 'msgs': 15.0, 'total_words': 7208.0, 'total_msgs': 120.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 872.0, 'reduce': 4224.0, 'input': 2112.0}},
    (8, '2D-AB(2x4)'): {'time': 2.4526999999999997e-05, 'comm_time': 2.4514999999999995e-05, 'words': 412.0, 'msgs': 24.0, 'total_words': 2472.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 2472.0}},
    (8, '2D-BC(2x4)'): {'time': 2.7898749999999994e-05, 'comm_time': 2.7878749999999998e-05, 'words': 703.0, 'msgs': 27.0, 'total_words': 4704.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 888.0, 'bcast': 1704.0, 'reduce': 2112.0}},
    (8, '2D-AC(2x4)'): {'time': 2.7518e-05, 'comm_time': 2.7495e-05, 'words': 396.0, 'msgs': 27.0, 'total_words': 1984.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 160.0, 'bcast': 768.0, 'reduce': 1056.0}},
    (8, '3D-A,AB(2x2x2)'): {'time': 2.8262249999999992e-05, 'comm_time': 2.8241249999999997e-05, 'words': 993.0, 'msgs': 27.0, 'total_words': 4112.0, 'total_msgs': 152.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1256.0, 'replicate': 384.0, 'bcast': 2472.0}},
    (8, '3D-A,BC(2x2x2)'): {'time': 3.2587999999999994e-05, 'comm_time': 3.2554999999999996e-05, 'words': 1244.0, 'msgs': 31.0, 'total_words': 5252.0, 'total_msgs': 168.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2108.0, 'replicate': 384.0, 'bcast': 1704.0, 'reduce': 1056.0}},
    (8, '3D-A,AC(2x2x2)'): {'time': 3.2095249999999994e-05, 'comm_time': 3.206624999999999e-05, 'words': 853.0, 'msgs': 31.0, 'total_words': 3688.0, 'total_msgs': 168.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1480.0, 'replicate': 384.0, 'bcast': 768.0, 'reduce': 1056.0}},
    (8, '3D-B,AB(2x2x2)'): {'time': 2.8939000000000002e-05, 'comm_time': 2.8915000000000004e-05, 'words': 1532.0, 'msgs': 27.0, 'total_words': 7272.0, 'total_msgs': 152.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1776.0, 'replicate': 1704.0, 'bcast': 3792.0}},
    (8, '3D-B,BC(2x2x2)'): {'time': 3.3669499999999987e-05, 'comm_time': 3.3642499999999995e-05, 'words': 2114.0, 'msgs': 31.0, 'total_words': 9552.0, 'total_msgs': 168.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 3384.0, 'replicate': 1704.0, 'bcast': 3408.0, 'reduce': 1056.0}},
    (8, '3D-B,AC(2x2x2)'): {'time': 3.2283e-05, 'comm_time': 3.2250000000000005e-05, 'words': 1000.0, 'msgs': 31.0, 'total_words': 5096.0, 'total_msgs': 168.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1952.0, 'replicate': 1704.0, 'bcast': 384.0, 'reduce': 1056.0}},
    (8, '3D-C,AB(2x2x2)'): {'time': 3.12985e-05, 'comm_time': 3.12775e-05, 'words': 1022.0, 'msgs': 30.0, 'total_words': 5080.0, 'total_msgs': 176.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1936.0, 'bcast': 2088.0, 'reduce': 1056.0}},
    (8, '3D-C,BC(2x2x2)'): {'time': 3.585200000000001e-05, 'comm_time': 3.5825000000000003e-05, 'words': 1460.0, 'msgs': 34.0, 'total_words': 6672.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2776.0, 'bcast': 1704.0, 'reduce': 2192.0}},
    (8, '3D-C,AC(2x2x2)'): {'time': 3.520650000000001e-05, 'comm_time': 3.517750000000001e-05, 'words': 942.0, 'msgs': 34.0, 'total_words': 4688.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2112.0, 'bcast': 384.0, 'reduce': 2192.0}},
    (16, '1D-A(p=16)'): {'time': 1.234925e-05, 'comm_time': 1.234125e-05, 'words': 273.0, 'msgs': 12.0, 'total_words': 4368.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'replicate': 3072.0, 'redistribute': 1296.0}},
    (16, '1D-B(p=16)'): {'time': 1.3101999999999998e-05, 'comm_time': 1.3089999999999998e-05, 'words': 872.0, 'msgs': 12.0, 'total_words': 13952.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'replicate': 13632.0, 'redistribute': 320.0}},
    (16, '1D-C(p=16)'): {'time': 2.108775e-05, 'comm_time': 2.1078750000000002e-05, 'words': 863.0, 'msgs': 20.0, 'total_words': 13808.0, 'total_msgs': 320.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1136.0, 'reduce': 8448.0, 'input': 4224.0}},
    (16, '2D-AB(4x4)'): {'time': 3.2461e-05, 'comm_time': 3.2455e-05, 'words': 364.0, 'msgs': 32.0, 'total_words': 4176.0, 'total_msgs': 480.0, 'compute_ops': 71.0, 'category_words': {'bcast': 4176.0}},
    (16, '2D-BC(4x4)'): {'time': 3.670225e-05, 'comm_time': 3.668625e-05, 'words': 549.0, 'msgs': 36.0, 'total_words': 6624.0, 'total_msgs': 576.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1104.0, 'bcast': 3408.0, 'reduce': 2112.0}},
    (16, '2D-AC(4x4)'): {'time': 3.6436e-05, 'comm_time': 3.642e-05, 'words': 336.0, 'msgs': 36.0, 'total_words': 3136.0, 'total_msgs': 544.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 256.0, 'bcast': 768.0, 'reduce': 2112.0}},
    (16, '3D-A,AB(4x2x2)'): {'time': 5.7640500000000005e-05, 'comm_time': 5.76175e-05, 'words': 1294.0, 'msgs': 56.0, 'total_words': 6600.0, 'total_msgs': 512.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 2592.0, 'replicate': 768.0, 'bcast': 3240.0}},
    (16, '3D-A,BC(4x2x2)'): {'time': 6.559524999999999e-05, 'comm_time': 6.556124999999998e-05, 'words': 1249.0, 'msgs': 64.0, 'total_words': 6972.0, 'total_msgs': 536.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 3444.0, 'replicate': 768.0, 'bcast': 1704.0, 'reduce': 1056.0}},
    (16, '3D-A,AC(4x2x2)'): {'time': 6.55775e-05, 'comm_time': 6.554250000000001e-05, 'words': 1234.0, 'msgs': 64.0, 'total_words': 6400.0, 'total_msgs': 536.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 3040.0, 'replicate': 768.0, 'bcast': 1536.0, 'reduce': 1056.0}},
    (16, '3D-B,AB(4x2x2)'): {'time': 5.9092749999999994e-05, 'comm_time': 5.9068749999999996e-05, 'words': 2455.0, 'msgs': 56.0, 'total_words': 13824.0, 'total_msgs': 496.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 3216.0, 'replicate': 3408.0, 'bcast': 7200.0}},
    (16, '3D-B,BC(4x2x2)'): {'time': 6.832474999999999e-05, 'comm_time': 6.829374999999998e-05, 'words': 3435.0, 'msgs': 64.0, 'total_words': 17712.0, 'total_msgs': 528.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 6432.0, 'replicate': 3408.0, 'bcast': 6816.0, 'reduce': 1056.0}},
    (16, '3D-B,AC(4x2x2)'): {'time': 5.725674999999999e-05, 'comm_time': 5.722374999999999e-05, 'words': 979.0, 'msgs': 56.0, 'total_words': 8240.0, 'total_msgs': 512.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 3392.0, 'replicate': 3408.0, 'bcast': 384.0, 'reduce': 1056.0}},
    (16, '3D-C,AB(4x2x2)'): {'time': 6.93265e-05, 'comm_time': 6.92975e-05, 'words': 1038.0, 'msgs': 68.0, 'total_words': 8328.0, 'total_msgs': 696.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 4128.0, 'bcast': 2088.0, 'reduce': 2112.0}},
    (16, '3D-C,BC(4x2x2)'): {'time': 7.792599999999999e-05, 'comm_time': 7.789499999999997e-05, 'words': 1516.0, 'msgs': 76.0, 'total_words': 9896.0, 'total_msgs': 736.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 4944.0, 'bcast': 1704.0, 'reduce': 3248.0}},
    (16, '3D-C,AC(4x2x2)'): {'time': 7.727449999999999e-05, 'comm_time': 7.72425e-05, 'words': 994.0, 'msgs': 76.0, 'total_words': 7952.0, 'total_msgs': 728.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 4320.0, 'bcast': 384.0, 'reduce': 3248.0}},
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


def _charges_of(plan, p, mask):
    """Run one golden product; return its ordered ``(category, ranks, words,
    weight)`` charges and its ops total."""
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
    c, ops = execute_plan(plan, df, dadj, BF, mask=mask)
    assert c.gather(charge=False).equals(spgemm(f, adj, BF, mask=mask).matrix)
    return charges, ops


# (p, plan, masked) -> (charges, CRC-32 of the ordered charge list, ops).
# Recorded at the commit before §5.2 was written once over ``_DIMS``; the
# ledger's max-merge cannot see the order of two collectives over the same
# ranks, but the fault plan's step counter, the ambient ``REPRO_FAULTS`` CI
# legs and ``repro trace`` all depend on it.  Re-pinned with the ledger above
# when C stopped going home: each 1D and 3D sequence is its old one minus the
# final home re-blocking.
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
    (8, '3D-A,AB(2x2x2)', False): (23, 346229750, 71),
    (8, '3D-A,AB(2x2x2)', True): (23, 346229750, 36),
    (8, '3D-A,BC(2x2x2)', False): (25, 1837763396, 71),
    (8, '3D-A,BC(2x2x2)', True): (25, 2429185874, 36),
    (8, '3D-A,AC(2x2x2)', False): (25, 2422628692, 71),
    (8, '3D-A,AC(2x2x2)', True): (25, 988033121, 36),
    (8, '3D-B,AB(2x2x2)', False): (23, 2530609409, 71),
    (8, '3D-B,AB(2x2x2)', True): (23, 2530609409, 36),
    (8, '3D-B,BC(2x2x2)', False): (25, 983190404, 71),
    (8, '3D-B,BC(2x2x2)', True): (25, 4266120511, 36),
    (8, '3D-B,AC(2x2x2)', False): (25, 4221408443, 71),
    (8, '3D-B,AC(2x2x2)', True): (25, 2072498019, 36),
    (8, '3D-C,AB(2x2x2)', False): (24, 1799150530, 71),
    (8, '3D-C,AB(2x2x2)', True): (24, 282455096, 36),
    (8, '3D-C,BC(2x2x2)', False): (26, 1650076442, 71),
    (8, '3D-C,BC(2x2x2)', True): (26, 3089431334, 36),
    (8, '3D-C,AC(2x2x2)', False): (26, 4165193140, 71),
    (8, '3D-C,AC(2x2x2)', True): (26, 2973638718, 36),
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
    (16, '3D-A,AB(4x2x2)', False): (41, 1561665741, 71),
    (16, '3D-A,AB(4x2x2)', True): (41, 1561665741, 36),
    (16, '3D-A,BC(4x2x2)', False): (43, 3474194987, 71),
    (16, '3D-A,BC(4x2x2)', True): (42, 2485319986, 36),
    (16, '3D-A,AC(4x2x2)', False): (43, 3879986127, 71),
    (16, '3D-A,AC(4x2x2)', True): (42, 3495055669, 36),
    (16, '3D-B,AB(4x2x2)', False): (37, 461935946, 71),
    (16, '3D-B,AB(4x2x2)', True): (37, 461935946, 36),
    (16, '3D-B,BC(4x2x2)', False): (41, 3469065096, 71),
    (16, '3D-B,BC(4x2x2)', True): (41, 268058511, 36),
    (16, '3D-B,AC(4x2x2)', False): (37, 3190129254, 71),
    (16, '3D-B,AC(4x2x2)', True): (37, 158376454, 36),
    (16, '3D-C,AB(4x2x2)', False): (42, 323283656, 71),
    (16, '3D-C,AB(4x2x2)', True): (42, 3390992904, 36),
    (16, '3D-C,BC(4x2x2)', False): (48, 3891343138, 71),
    (16, '3D-C,BC(4x2x2)', True): (46, 1277490345, 36),
    (16, '3D-C,AC(4x2x2)', False): (46, 1290167563, 71),
    (16, '3D-C,AC(4x2x2)', True): (44, 586528055, 36),
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
