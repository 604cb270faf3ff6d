"""Every distributed SpGEMM variant must equal the sequential kernel.

This is the load-bearing equivalence of the whole mini-CTF layer: the full
§5.2 algorithm space — 1D A/B/C, 2D AB/AC/BC over every factorization, and
all nine 3D nestings — run on real partitioned data and must reproduce the
node-local product bit-for-bit, for single-field and multpath monoids alike.
"""

import zlib

import numpy as np
import pytest

from repro.algebra import MULTPATH, TROPICAL, MatMulSpec, bellman_ford_action
from repro.dist import DistMat
from repro.machine.grid import near_square_shape
from repro.machine import CostParams, Machine
from repro.sparse import SpMat, spgemm
from repro.spgemm import Plan, execute_plan
from repro.spgemm.selector import enumerate_plans

from conftest import WEIGHT, random_weight_spmat

SPEC = TROPICAL.matmul_spec()
BF = MatMulSpec(MULTPATH, bellman_ford_action, "bf")


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
            c, ops = execute_plan(plan, da, db, SPEC, home(p))
            assert c.gather(charge=False).equals(ref), plan.describe()
            assert ops >= 0

    @pytest.mark.parametrize("p", [4, 8])
    def test_rectangular_operands(self, rng, p):
        machine = Machine(p)
        a, b, da, db = dist_pair(rng, machine, 7, 33, 19)
        ref = spgemm(a, b, SPEC).matrix
        for plan in enumerate_plans(p):
            c, _ = execute_plan(plan, da, db, SPEC, home(p))
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
            c, _ = execute_plan(plan, df, dadj, BF, h)
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
            c, ops = execute_plan(plan, df, dadj, BF, h)
            assert c.nnz == 0 and ops == 0, plan.describe()


class TestPlanValidation:
    def test_wrong_machine_size(self, rng):
        machine = Machine(4)
        a, b, da, db = dist_pair(rng, machine, 8, 8, 8)
        with pytest.raises(ValueError, match="does not cover"):
            execute_plan(Plan(8, 1, 1, "A", "AB"), da, db, SPEC, home(4))

    def test_inner_dim_mismatch(self, rng):
        machine = Machine(2)
        h = home(2)
        a = DistMat.distribute(random_weight_spmat(rng, 4, 5, 0.5), machine, h)
        b = DistMat.distribute(random_weight_spmat(rng, 6, 4, 0.5), machine, h)
        with pytest.raises(ValueError, match="inner dimension"):
            execute_plan(Plan(2, 1, 1, "A", "AB"), a, b, SPEC, h)

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
        execute_plan(Plan(1, 2, 2, "A", "AB"), da, db, SPEC, home(4))
        assert machine.ledger.critical_words() > w0
        assert machine.ledger.critical_msgs() > 0

    def test_compute_charged(self, rng):
        machine = Machine(4)
        a, b, da, db = dist_pair(rng, machine, 20, 20, 20, 0.4, 0.4)
        execute_plan(Plan(1, 2, 2, "A", "AB"), da, db, SPEC, home(4))
        assert machine.ledger.compute_ops > 0

    def test_replication_cache_amortizes(self, rng):
        """Second product with the same cached operand replicates for free."""
        machine = Machine(8)
        a, b, da, db = dist_pair(rng, machine, 24, 24, 24, 0.3, 0.3)
        cache: dict = {}
        plan = Plan(2, 2, 2, "B", "AB")
        execute_plan(plan, da, db, SPEC, home(8), replication_cache=cache)
        w1 = machine.ledger.total_words
        execute_plan(plan, da, db, SPEC, home(8), replication_cache=cache)
        w2 = machine.ledger.total_words - w1
        assert w2 < w1  # replication traffic absent the second time

    def test_p1_output_no_comm(self, rng):
        machine = Machine(1, cost=CostParams(alpha=1.0, beta=1.0, compute_rate=1e9))
        a, b, da, db = dist_pair(rng, machine, 10, 10, 10, 0.4, 0.4)
        execute_plan(Plan(1, 1, 1, "A", "AB"), da, db, SPEC, home(1))
        assert machine.ledger.critical_words() == 0.0


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
# collective's charging convention (docs/performance_model.md §6).
# fmt: off
GOLDEN_LEDGER = {
    (8, '1D-A(p=8)'): {'time': 1.2506500000000001e-05, 'comm_time': 1.2492500000000001e-05, 'words': 394.0, 'msgs': 12.0, 'total_words': 3152.0, 'total_msgs': 96.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1616.0, 'replicate': 1536.0}},
    (8, '1D-B(p=8)'): {'time': 1.3206999999999999e-05, 'comm_time': 1.3195e-05, 'words': 956.0, 'msgs': 12.0, 'total_words': 7648.0, 'total_msgs': 96.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 832.0, 'replicate': 6816.0}},
    (8, '1D-C(p=8)'): {'time': 1.923625e-05, 'comm_time': 1.922125e-05, 'words': 977.0, 'msgs': 18.0, 'total_words': 7816.0, 'total_msgs': 144.0, 'compute_ops': 71.0, 'category_words': {'input': 2112.0, 'redistribute': 1480.0, 'reduce': 4224.0}},
    (8, '2D-AB(2x4)'): {'time': 2.4526999999999997e-05, 'comm_time': 2.4514999999999995e-05, 'words': 412.0, 'msgs': 24.0, 'total_words': 2472.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 2472.0}},
    (8, '2D-BC(2x4)'): {'time': 2.7898749999999994e-05, 'comm_time': 2.7878749999999998e-05, 'words': 703.0, 'msgs': 27.0, 'total_words': 4704.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'bcast': 1704.0, 'redistribute': 888.0, 'reduce': 2112.0}},
    (8, '2D-AC(2x4)'): {'time': 2.7518e-05, 'comm_time': 2.7495e-05, 'words': 396.0, 'msgs': 27.0, 'total_words': 1984.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'bcast': 768.0, 'redistribute': 160.0, 'reduce': 1056.0}},
    (8, '3D-A,AB(2x2x2)'): {'time': 3.1357249999999995e-05, 'comm_time': 3.133625e-05, 'words': 1069.0, 'msgs': 30.0, 'total_words': 4720.0, 'total_msgs': 176.0, 'compute_ops': 71.0, 'category_words': {'bcast': 2472.0, 'redistribute': 1864.0, 'replicate': 384.0}},
    (8, '3D-A,BC(2x2x2)'): {'time': 3.568299999999999e-05, 'comm_time': 3.565e-05, 'words': 1320.0, 'msgs': 34.0, 'total_words': 5860.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 1704.0, 'redistribute': 2716.0, 'reduce': 1056.0, 'replicate': 384.0}},
    (8, '3D-A,AC(2x2x2)'): {'time': 3.519025e-05, 'comm_time': 3.516124999999999e-05, 'words': 929.0, 'msgs': 34.0, 'total_words': 4296.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 768.0, 'redistribute': 2088.0, 'reduce': 1056.0, 'replicate': 384.0}},
    (8, '3D-B,AB(2x2x2)'): {'time': 3.2034e-05, 'comm_time': 3.201e-05, 'words': 1608.0, 'msgs': 30.0, 'total_words': 7880.0, 'total_msgs': 176.0, 'compute_ops': 71.0, 'category_words': {'bcast': 3792.0, 'redistribute': 2384.0, 'replicate': 1704.0}},
    (8, '3D-B,BC(2x2x2)'): {'time': 3.676449999999998e-05, 'comm_time': 3.673749999999999e-05, 'words': 2190.0, 'msgs': 34.0, 'total_words': 10160.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 3408.0, 'redistribute': 3992.0, 'reduce': 1056.0, 'replicate': 1704.0}},
    (8, '3D-B,AC(2x2x2)'): {'time': 3.5378e-05, 'comm_time': 3.534500000000001e-05, 'words': 1076.0, 'msgs': 34.0, 'total_words': 5704.0, 'total_msgs': 192.0, 'compute_ops': 71.0, 'category_words': {'bcast': 384.0, 'redistribute': 2560.0, 'reduce': 1056.0, 'replicate': 1704.0}},
    (8, '3D-C,AB(2x2x2)'): {'time': 3.44235e-05, 'comm_time': 3.44025e-05, 'words': 1122.0, 'msgs': 33.0, 'total_words': 5880.0, 'total_msgs': 200.0, 'compute_ops': 71.0, 'category_words': {'bcast': 2088.0, 'redistribute': 2736.0, 'reduce': 1056.0}},
    (8, '3D-C,BC(2x2x2)'): {'time': 3.897700000000001e-05, 'comm_time': 3.8950000000000005e-05, 'words': 1560.0, 'msgs': 37.0, 'total_words': 7472.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'bcast': 1704.0, 'redistribute': 3576.0, 'reduce': 2192.0}},
    (8, '3D-C,AC(2x2x2)'): {'time': 3.833150000000001e-05, 'comm_time': 3.830250000000001e-05, 'words': 1042.0, 'msgs': 37.0, 'total_words': 5488.0, 'total_msgs': 216.0, 'compute_ops': 71.0, 'category_words': {'bcast': 384.0, 'redistribute': 2912.0, 'reduce': 2192.0}},
    (16, '1D-A(p=16)'): {'time': 1.639925e-05, 'comm_time': 1.639125e-05, 'words': 313.0, 'msgs': 16.0, 'total_words': 5008.0, 'total_msgs': 256.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1936.0, 'replicate': 3072.0}},
    (16, '1D-B(p=16)'): {'time': 1.7166999999999997e-05, 'comm_time': 1.7154999999999998e-05, 'words': 924.0, 'msgs': 16.0, 'total_words': 14784.0, 'total_msgs': 256.0, 'compute_ops': 71.0, 'category_words': {'redistribute': 1152.0, 'replicate': 13632.0}},
    (16, '1D-C(p=16)'): {'time': 2.5137750000000002e-05, 'comm_time': 2.5128750000000002e-05, 'words': 903.0, 'msgs': 24.0, 'total_words': 14448.0, 'total_msgs': 384.0, 'compute_ops': 71.0, 'category_words': {'input': 4224.0, 'redistribute': 1776.0, 'reduce': 8448.0}},
    (16, '2D-AB(4x4)'): {'time': 3.2461e-05, 'comm_time': 3.2455e-05, 'words': 364.0, 'msgs': 32.0, 'total_words': 4176.0, 'total_msgs': 480.0, 'compute_ops': 71.0, 'category_words': {'bcast': 4176.0}},
    (16, '2D-BC(4x4)'): {'time': 3.670225e-05, 'comm_time': 3.668625e-05, 'words': 549.0, 'msgs': 36.0, 'total_words': 6624.0, 'total_msgs': 576.0, 'compute_ops': 71.0, 'category_words': {'bcast': 3408.0, 'redistribute': 1104.0, 'reduce': 2112.0}},
    (16, '2D-AC(4x4)'): {'time': 3.6436e-05, 'comm_time': 3.642e-05, 'words': 336.0, 'msgs': 36.0, 'total_words': 3136.0, 'total_msgs': 544.0, 'compute_ops': 71.0, 'category_words': {'bcast': 768.0, 'redistribute': 256.0, 'reduce': 2112.0}},
    (16, '3D-A,AB(4x2x2)'): {'time': 6.169050000000001e-05, 'comm_time': 6.16675e-05, 'words': 1334.0, 'msgs': 60.0, 'total_words': 7240.0, 'total_msgs': 576.0, 'compute_ops': 71.0, 'category_words': {'bcast': 3240.0, 'redistribute': 3232.0, 'replicate': 768.0}},
    (16, '3D-A,BC(4x2x2)'): {'time': 6.964524999999999e-05, 'comm_time': 6.961124999999999e-05, 'words': 1289.0, 'msgs': 68.0, 'total_words': 7612.0, 'total_msgs': 600.0, 'compute_ops': 71.0, 'category_words': {'bcast': 1704.0, 'redistribute': 4084.0, 'reduce': 1056.0, 'replicate': 768.0}},
    (16, '3D-A,AC(4x2x2)'): {'time': 6.96275e-05, 'comm_time': 6.959250000000002e-05, 'words': 1274.0, 'msgs': 68.0, 'total_words': 7040.0, 'total_msgs': 600.0, 'compute_ops': 71.0, 'category_words': {'bcast': 1536.0, 'redistribute': 3680.0, 'reduce': 1056.0, 'replicate': 768.0}},
    (16, '3D-B,AB(4x2x2)'): {'time': 6.314275e-05, 'comm_time': 6.311875e-05, 'words': 2495.0, 'msgs': 60.0, 'total_words': 14464.0, 'total_msgs': 560.0, 'compute_ops': 71.0, 'category_words': {'bcast': 7200.0, 'redistribute': 3856.0, 'replicate': 3408.0}},
    (16, '3D-B,BC(4x2x2)'): {'time': 7.237475e-05, 'comm_time': 7.234374999999998e-05, 'words': 3475.0, 'msgs': 68.0, 'total_words': 18352.0, 'total_msgs': 592.0, 'compute_ops': 71.0, 'category_words': {'bcast': 6816.0, 'redistribute': 7072.0, 'reduce': 1056.0, 'replicate': 3408.0}},
    (16, '3D-B,AC(4x2x2)'): {'time': 6.130674999999998e-05, 'comm_time': 6.127374999999999e-05, 'words': 1019.0, 'msgs': 60.0, 'total_words': 8880.0, 'total_msgs': 576.0, 'compute_ops': 71.0, 'category_words': {'bcast': 384.0, 'redistribute': 4032.0, 'reduce': 1056.0, 'replicate': 3408.0}},
    (16, '3D-C,AB(4x2x2)'): {'time': 7.34415e-05, 'comm_time': 7.34125e-05, 'words': 1130.0, 'msgs': 72.0, 'total_words': 9800.0, 'total_msgs': 760.0, 'compute_ops': 71.0, 'category_words': {'bcast': 2088.0, 'redistribute': 5600.0, 'reduce': 2112.0}},
    (16, '3D-C,BC(4x2x2)'): {'time': 8.204099999999998e-05, 'comm_time': 8.200999999999997e-05, 'words': 1608.0, 'msgs': 80.0, 'total_words': 11368.0, 'total_msgs': 800.0, 'compute_ops': 71.0, 'category_words': {'bcast': 1704.0, 'redistribute': 6416.0, 'reduce': 3248.0}},
    (16, '3D-C,AC(4x2x2)'): {'time': 8.138949999999998e-05, 'comm_time': 8.13575e-05, 'words': 1086.0, 'msgs': 80.0, 'total_words': 9424.0, 'total_msgs': 792.0, 'compute_ops': 71.0, 'category_words': {'bcast': 384.0, 'redistribute': 5792.0, 'reduce': 3248.0}},
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
            c, _ = execute_plan(plan, df, dadj, BF, h)
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
    c, ops = execute_plan(plan, df, dadj, BF, h, mask=mask)
    assert c.gather(charge=False).equals(spgemm(f, adj, BF, mask=mask).matrix)
    return charges, ops


# (p, plan, masked) -> (charges, CRC-32 of the ordered charge list, ops).
# Recorded at the commit before §5.2 was written once over ``_DIMS``; the
# ledger's max-merge cannot see the order of two collectives over the same
# ranks, but the fault plan's step counter, the ambient ``REPRO_FAULTS`` CI
# legs and ``repro trace`` all depend on it.
# fmt: off
GOLDEN_SEQUENCE = {
    (8, '1D-A(p=8)', False): (3, 546310306, 71),
    (8, '1D-A(p=8)', True): (3, 3179789982, 36),
    (8, '1D-B(p=8)', False): (3, 2886537782, 71),
    (8, '1D-B(p=8)', True): (3, 823829514, 36),
    (8, '1D-C(p=8)', False): (5, 302244153, 71),
    (8, '1D-C(p=8)', True): (5, 2577709714, 36),
    (8, '2D-AB(2x4)', False): (24, 1843729238, 71),
    (8, '2D-AB(2x4)', True): (24, 1843729238, 36),
    (8, '2D-BC(2x4)', False): (25, 2470384900, 71),
    (8, '2D-BC(2x4)', True): (25, 2160061789, 36),
    (8, '2D-AC(2x4)', False): (25, 3409249977, 71),
    (8, '2D-AC(2x4)', True): (24, 2298339776, 36),
    (8, '3D-A,AB(2x2x2)', False): (24, 3585000186, 71),
    (8, '3D-A,AB(2x2x2)', True): (24, 1220113606, 36),
    (8, '3D-A,BC(2x2x2)', False): (26, 3837669610, 71),
    (8, '3D-A,BC(2x2x2)', True): (26, 2099681006, 36),
    (8, '3D-A,AC(2x2x2)', False): (26, 1179499062, 71),
    (8, '3D-A,AC(2x2x2)', True): (26, 110865630, 36),
    (8, '3D-B,AB(2x2x2)', False): (24, 837735212, 71),
    (8, '3D-B,AB(2x2x2)', True): (24, 2902025488, 36),
    (8, '3D-B,BC(2x2x2)', False): (26, 2770218571, 71),
    (8, '3D-B,BC(2x2x2)', True): (26, 4117341851, 36),
    (8, '3D-B,AC(2x2x2)', False): (26, 365672155, 71),
    (8, '3D-B,AC(2x2x2)', True): (26, 714526732, 36),
    (8, '3D-C,AB(2x2x2)', False): (25, 728905897, 71),
    (8, '3D-C,AB(2x2x2)', True): (25, 4005869140, 36),
    (8, '3D-C,BC(2x2x2)', False): (27, 2172471680, 71),
    (8, '3D-C,BC(2x2x2)', True): (27, 242599412, 36),
    (8, '3D-C,AC(2x2x2)', False): (27, 2112192780, 71),
    (8, '3D-C,AC(2x2x2)', True): (27, 2315655559, 36),
    (16, '1D-A(p=16)', False): (3, 754737087, 71),
    (16, '1D-A(p=16)', True): (3, 3617510664, 36),
    (16, '1D-B(p=16)', False): (3, 387401216, 71),
    (16, '1D-B(p=16)', True): (3, 4131990585, 36),
    (16, '1D-C(p=16)', False): (5, 804365848, 71),
    (16, '1D-C(p=16)', True): (5, 3734626234, 36),
    (16, '2D-AB(4x4)', False): (30, 649733104, 71),
    (16, '2D-AB(4x4)', True): (30, 649733104, 36),
    (16, '2D-BC(4x4)', False): (33, 3614880865, 71),
    (16, '2D-BC(4x4)', True): (32, 920053155, 36),
    (16, '2D-AC(4x4)', False): (31, 73218257, 71),
    (16, '2D-AC(4x4)', True): (30, 3451805739, 36),
    (16, '3D-A,AB(4x2x2)', False): (42, 382427481, 71),
    (16, '3D-A,AB(4x2x2)', True): (42, 3987336174, 36),
    (16, '3D-A,BC(4x2x2)', False): (44, 1390699132, 71),
    (16, '3D-A,BC(4x2x2)', True): (43, 2705312496, 36),
    (16, '3D-A,AC(4x2x2)', False): (44, 972222429, 71),
    (16, '3D-A,AC(4x2x2)', True): (43, 1230164359, 36),
    (16, '3D-B,AB(4x2x2)', False): (38, 2906271465, 71),
    (16, '3D-B,AB(4x2x2)', True): (38, 1448649822, 36),
    (16, '3D-B,BC(4x2x2)', False): (42, 2676921298, 71),
    (16, '3D-B,BC(4x2x2)', True): (42, 4236380538, 36),
    (16, '3D-B,AC(4x2x2)', False): (38, 582339159, 71),
    (16, '3D-B,AC(4x2x2)', True): (38, 4039806502, 36),
    (16, '3D-C,AB(4x2x2)', False): (43, 2562902816, 71),
    (16, '3D-C,AB(4x2x2)', True): (43, 2606238145, 36),
    (16, '3D-C,BC(4x2x2)', False): (49, 2769668151, 71),
    (16, '3D-C,BC(4x2x2)', True): (47, 1776602898, 36),
    (16, '3D-C,AC(4x2x2)', False): (47, 784807859, 71),
    (16, '3D-C,AC(4x2x2)', True): (45, 2299776940, 36),
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
