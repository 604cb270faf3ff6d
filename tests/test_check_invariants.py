"""Unit tests for repro.check.invariants: each validator catches each break.

Clean objects built through the public constructors must validate clean
(the constructors canonicalize); broken ones are built by bypassing
canonicalization the same way a buggy kernel would — via the raw
``__slots__`` — and every rule must fire with the right ``rule`` tag.
"""

import numpy as np
import pytest
from hypothesis import given

from repro.algebra.monoid import MinMonoid
from repro.check import (
    CheckError,
    check_distmat,
    check_ledger,
    check_matrix,
    check_spmat,
    require_clean,
)
from repro.check import strategies as cst
from repro.dist.distmat import DistMat, Layout
from repro.machine import Machine
from repro.sparse import SpMat

W = MinMonoid()


def _raw_spmat(nrows, ncols, rows, cols, vals):
    """Build an SpMat without canonicalization (what a buggy kernel does)."""
    mat = SpMat.__new__(SpMat)
    mat.nrows = nrows
    mat.ncols = ncols
    mat.rows = np.asarray(rows, dtype=np.int64)
    mat.cols = np.asarray(cols, dtype=np.int64)
    mat.vals = {k: np.asarray(v, dtype=np.float64) for k, v in vals.items()}
    mat.monoid = W
    mat._rowptr = mat._keys = None
    return mat


def _rules(violations):
    return {v.rule for v in violations}


class TestCheckSpmat:
    @given(cst.spmats())
    def test_canonical_matrices_are_clean(self, mat):
        assert check_spmat(mat) == []

    def test_empty_is_clean(self):
        assert check_spmat(SpMat.empty(3, 4, W)) == []

    def test_unsorted(self):
        bad = _raw_spmat(3, 3, [2, 0], [0, 0], {"w": [1.0, 2.0]})
        assert "sorted" in _rules(check_spmat(bad))

    def test_duplicates(self):
        bad = _raw_spmat(3, 3, [1, 1], [2, 2], {"w": [1.0, 2.0]})
        assert "unique" in _rules(check_spmat(bad))

    def test_out_of_range(self):
        bad = _raw_spmat(3, 3, [0, 5], [0, 1], {"w": [1.0, 2.0]})
        assert "range" in _rules(check_spmat(bad))
        bad = _raw_spmat(3, 3, [0, 1], [-1, 1], {"w": [1.0, 2.0]})
        assert "range" in _rules(check_spmat(bad))

    def test_out_of_range_row_hidden_mid_array(self):
        # row extremes come from the two ends only once the order is proven
        bad = _raw_spmat(3, 3, [0, 7, 1], [0, 0, 0], {"w": [1.0, 2.0, 3.0]})
        assert _rules(check_spmat(bad)) == {"range"}
        bad = _raw_spmat(3, 3, [0, -2, 1], [0, 0, 0], {"w": [1.0, 2.0, 3.0]})
        assert _rules(check_spmat(bad)) == {"range"}
        bad = _raw_spmat(3, 3, [-1, 0], [0, 0], {"w": [1.0, 2.0]})
        assert _rules(check_spmat(bad)) == {"range"}

    def test_column_range_is_two_sided_for_any_integer_dtype(self):
        bad = _raw_spmat(3, 3, [0, 1], [0, 3], {"w": [1.0, 2.0]})
        assert _rules(check_spmat(bad)) == {"range"}
        bad = _raw_spmat(3, 3, [0, 1], [0, -1], {"w": [1.0, 2.0]})
        bad.cols = bad.cols.astype(np.int32)
        assert _rules(check_spmat(bad)) == {"dtype", "range"}

    def test_columns_descend_within_a_row(self):
        bad = _raw_spmat(3, 3, [0, 1, 1], [0, 2, 1], {"w": [1.0, 2.0, 3.0]})
        assert _rules(check_spmat(bad)) == {"sorted"}

    def test_stored_identity(self):
        bad = _raw_spmat(3, 3, [0, 1], [0, 1], {"w": [1.0, np.inf]})
        assert "identity" in _rules(check_spmat(bad))

    def test_wrong_fields(self):
        bad = _raw_spmat(2, 2, [0], [1], {"x": [1.0]})
        assert "fields" in _rules(check_spmat(bad))

    def test_wrong_dtype(self):
        bad = _raw_spmat(2, 2, [0], [1], {"w": [1.0]})
        bad.vals["w"] = bad.vals["w"].astype(np.float32)
        assert "dtype" in _rules(check_spmat(bad))

    def test_length_mismatch(self):
        bad = _raw_spmat(2, 2, [0, 1], [0, 1], {"w": [1.0]})
        assert "length" in _rules(check_spmat(bad))

    def test_stale_rowptr(self):
        mat = SpMat(3, 3, np.array([0, 2]), np.array([1, 0]), {"w": [1.0, 2.0]}, W)
        mat.row_pointer()
        mat._rowptr = mat._rowptr.copy()
        mat._rowptr[1] = 99
        assert "rowptr" in _rules(check_spmat(mat))

    def test_stale_keys(self):
        mat = SpMat(3, 3, np.array([0, 2]), np.array([1, 0]), {"w": [1.0, 2.0]}, W)
        assert check_spmat(mat) == [] and mat.keys() is mat.keys()
        mat._keys = mat._keys + 1
        assert "keys" in _rules(check_spmat(mat))

    def test_site_is_reported(self):
        bad = _raw_spmat(3, 3, [0, 5], [0, 1], {"w": [1.0, 2.0]})
        (v,) = check_spmat(bad, site="spgemm.result")
        assert v.site == "spgemm.result"
        assert "spgemm.result" in str(v)


class TestCheckDistmat:
    def _dist(self, machine=None, n=10, nnz=20, seed=0):
        machine = machine or Machine(4)
        rng = np.random.default_rng(seed)
        flat = rng.choice(n * n, size=nnz, replace=False)
        rows, cols = np.divmod(flat, n)
        local = SpMat(n, n, rows, cols, {"w": np.ones(nnz)}, W)
        ranks2d = np.arange(machine.p).reshape(2, 2)
        return DistMat.distribute(local, machine, ranks2d)

    def test_clean_distribution(self):
        assert check_distmat(self._dist(), deep=True) == []

    def test_rank_out_of_machine(self):
        d = self._dist()
        d.layout = Layout(d.layout.ranks2d + 10, d.layout.row_splits, d.layout.col_splits)
        assert "ranks" in _rules(check_distmat(d))

    def test_duplicate_owner(self):
        d = self._dist()
        d.layout = Layout(
            np.zeros_like(d.layout.ranks2d), d.layout.row_splits, d.layout.col_splits
        )
        assert "ranks" in _rules(check_distmat(d))

    def test_bad_splits(self):
        d = self._dist()
        # shifted by one: same block shapes, but row 0 belongs to no block
        d.layout = Layout(d.layout.ranks2d, d.layout.row_splits + 1, d.layout.col_splits)
        assert _rules(check_distmat(d)) == {"splits"}

    def test_block_shape_mismatch(self):
        d = self._dist()
        d._set_block(0, 0, SpMat.empty(1, 1, W))
        assert "shape" in _rules(check_distmat(d))

    def test_noncanonical_block_surfaces_with_block_site(self):
        d = self._dist()
        blk = d.block(1, 1)
        bad = _raw_spmat(
            blk.nrows, blk.ncols, [0, 0], [1, 1], {"w": [1.0, 2.0]}
        )
        d._set_block(1, 1, bad)
        out = check_distmat(d)
        assert "unique" in _rules(out)
        assert any("block[1,1]" in v.site for v in out)

    def test_deep_mode_does_not_charge(self):
        machine = Machine(4)
        d = self._dist(machine)
        before = machine.ledger.snapshot()
        check_distmat(d, deep=True)
        assert machine.ledger.snapshot() == before

    def test_check_matrix_dispatches(self):
        d = self._dist()
        assert check_matrix(d) == []
        assert check_matrix(d.block(0, 0)) == []
        assert _rules(check_matrix(object())) == {"type"}


class TestCheckLedger:
    def test_fresh_machine_is_clean(self):
        assert check_ledger(Machine(4)) == []

    def test_real_run_is_clean(self):
        from repro.core import mfbc
        from repro.dist import DistributedEngine
        from repro.graphs import rmat_graph

        machine = Machine(4, memory_words=10**9)
        mfbc(rmat_graph(4, 4, seed=0), engine=DistributedEngine(machine))
        assert check_ledger(machine) == []

    def test_negative_accumulator(self):
        m = Machine(4)
        m.ledger.words[2] = -1.0
        assert "nonneg" in _rules(check_ledger(m))

    def test_non_finite(self):
        m = Machine(4)
        m.ledger.time[0] = np.nan
        assert "finite" in _rules(check_ledger(m))

    def test_comm_time_exceeding_alpha_beta_bound(self):
        m = Machine(4)
        m.ledger.comm_time[1] = 5.0
        m.ledger.time[1] = 6.0
        out = _rules(check_ledger(m))
        assert "alpha-beta" in out

    def test_comm_time_exceeding_total_time(self):
        m = Machine(2)
        m.world()  # no charge
        m.ledger.comm_time[0] = 1.0
        m.ledger.words[0] = 1e12  # keep the α-β bound satisfied
        assert "comm<=time" in _rules(check_ledger(m))

    def test_category_sum_mismatch(self):
        m = Machine(4)
        m.charge_collective(np.arange(4), 100.0, category="bcast")
        m.ledger.category_words["bcast"] += 7.0
        assert "categories" in _rules(check_ledger(m))

    def test_charges_satisfy_closed_forms(self):
        m = Machine(8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            ranks = rng.choice(8, size=rng.integers(2, 9), replace=False)
            m.charge_collective(ranks, float(rng.integers(1, 1000)))
        for _ in range(20):
            s, d = rng.choice(8, size=2, replace=False)
            m.charge_pointtopoint(int(s), int(d), float(rng.integers(1, 100)))
        m.charge_compute(np.arange(8), 1e5)
        m.charge_overhead(1e-3)
        assert check_ledger(m) == []

    def test_peak_below_used(self):
        m = Machine(2)
        m.allocate(0, 100)
        m._mem_peak[0] = 5
        assert "mem-peak" in _rules(check_ledger(m))

    def test_theory_bound(self):
        from repro.core import mfbc
        from repro.dist import DistributedEngine
        from repro.graphs import rmat_graph

        g = rmat_graph(4, 4, seed=0)
        machine = Machine(4)
        res = mfbc(g, engine=DistributedEngine(machine))
        theory = {"n": g.n, "m": g.m, "p": 4, "batches": len(res.stats.batches)}
        assert check_ledger(machine, theory=theory) == []
        # an absurdly tight slack must trip the bound
        tight = dict(theory, slack=1e-9)
        assert "theory" in _rules(check_ledger(machine, theory=tight))


class TestRequireClean:
    def test_raises_with_all_violations(self):
        bad = _raw_spmat(3, 3, [0, 5], [0, 1], {"w": [np.inf, 1.0]})
        with pytest.raises(CheckError) as err:
            require_clean(check_spmat(bad), "operand A")
        assert "operand A" in str(err.value)
        assert len(err.value.violations) >= 2

    def test_empty_is_silent(self):
        require_clean([])
