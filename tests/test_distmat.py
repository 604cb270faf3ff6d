"""Layout and DistMat: distribution, gather, redistribution, elementwise parity."""

import gc
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.monoid import MinMonoid, PlusMonoid
from repro.algebra.multpath import MULTPATH
from repro.check import strategies as cst
from repro.dist import DistMat, Layout, even_splits
from repro.machine.grid import near_square_shape
from repro.machine import Machine
from repro.sparse import SpMat

from conftest import assert_bits, random_weight_spmat

W = MinMonoid()


def home_grid(p):
    pr, pc = near_square_shape(p)
    return np.arange(p).reshape(pr, pc)


def column(p):
    return np.arange(p).reshape(p, 1)


class TestEvenSplits:
    def test_boundaries(self):
        s = even_splits(10, 4)
        assert s[0] == 0 and s[-1] == 10 and len(s) == 5
        assert np.all(np.diff(s) >= 0)

    def test_more_parts_than_items(self):
        s = even_splits(2, 5)
        assert s[0] == 0 and s[-1] == 2 and len(s) == 6

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            even_splits(10, 0)


class TestLayout:
    def test_rejects_a_grid_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Layout(np.arange(4), [0, 2, 4], [0, 4])
        with pytest.raises(ValueError, match="2-dimensional"):
            Layout(np.arange(8).reshape(2, 2, 2), [0, 2, 4], [0, 2, 4])

    def test_rejects_split_lengths_off_the_grid(self):
        with pytest.raises(ValueError, match="split lengths"):
            Layout(home_grid(4), [0, 10], [0, 5, 10])
        with pytest.raises(ValueError, match="split lengths"):
            Layout(home_grid(4), [0, 5, 10], [0, 3, 6, 10])

    @pytest.mark.parametrize("grid", [home_grid(6), column(5), column(3).T])
    def test_even_is_even_splits(self, grid):
        layout = Layout.even(grid, 23, 17)
        pr, pc = grid.shape
        assert np.array_equal(layout.row_splits, even_splits(23, pr))
        assert np.array_equal(layout.col_splits, even_splits(17, pc))
        assert layout.shape == (23, 17)
        assert layout == Layout(grid, even_splits(23, pr), even_splits(17, pc))

    def test_equality_is_by_value(self):
        layout = Layout.even(home_grid(6), 23, 17)
        copy = Layout(
            layout.ranks2d.copy(), layout.row_splits.copy(), layout.col_splits.copy()
        )
        assert copy == layout and copy is not layout
        assert layout.T.T == layout
        assert layout.T != layout
        assert layout.T == Layout(layout.ranks2d.T, layout.col_splits, layout.row_splits)
        assert Layout(layout.ranks2d, [0, 1, 23], layout.col_splits) != layout
        assert Layout(layout.ranks2d[::-1], layout.row_splits, layout.col_splits) != layout

    def test_bounds_and_block_shapes(self):
        layout = Layout(np.array([[4, 5, 6], [7, 0, 1]]), [0, 3, 10], [0, 0, 2, 9])
        assert layout.bounds(0, 0) == (0, 3, 0, 0)
        assert layout.bounds(1, 2) == (3, 10, 2, 9)
        assert layout.bounds(0, 1) == (0, 3, 0, 2)
        assert layout.block_shapes == [[(3, 0), (3, 2), (3, 7)], [(7, 0), (7, 2), (7, 7)]]
        assert layout.shape == (10, 9)
        t = layout.T
        assert t.bounds(2, 1) == (2, 9, 3, 10)
        assert int(t.ranks2d[2, 1]) == 1


    def test_cut_of_a_block_inside_one_target(self, rng):
        blk = random_weight_spmat(rng, 4, 5, 0.5)
        layout = Layout(home_grid(4), [0, 4, 10], [0, 5, 12])
        # the frames agree: the block itself
        ((a, b, piece),) = layout.cut(blk, 0, 0)
        assert (a, b) == (0, 0) and piece is blk
        # inside target (1, 1) at offset (1, 2): one shifted piece
        ((a, b, piece),) = layout.cut(blk, 5, 7)
        assert (a, b) == (1, 1) and piece.shape == (6, 7)
        assert piece.equals(
            SpMat(6, 7, blk.rows + 1, blk.cols + 2, blk.vals, blk.monoid)
        )

    def test_block_of_the_full_frame_is_the_matrix(self, rng):
        mat = random_weight_spmat(rng, 7, 6, 0.4)
        assert mat.block(0, 7, 0, 6) is mat
        keep = (mat.rows >= 2) & (mat.rows < 5) & (mat.cols < 4)
        ref = SpMat(3, 4, mat.rows[keep] - 2, mat.cols[keep], {"w": mat.vals["w"][keep]}, W)
        assert mat.block(2, 5, 0, 4).equals(ref)


class TestDistributeGather:
    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_roundtrip(self, rng, p):
        mat = random_weight_spmat(rng, 23, 17, 0.3)
        machine = Machine(p)
        d = DistMat.distribute(mat, machine, home_grid(p))
        assert d.nnz == mat.nnz
        assert d.gather(charge=False).equals(mat)

    def test_distribution_charges(self, rng):
        mat = random_weight_spmat(rng, 20, 20, 0.3)
        machine = Machine(4)
        DistMat.distribute(mat, machine, home_grid(4))
        assert machine.ledger.critical_words() >= mat.words()

    def test_block_shapes_validated(self, rng):
        mat = random_weight_spmat(rng, 10, 10, 0.3)
        machine = Machine(4)
        d = DistMat.distribute(mat, machine, home_grid(4))
        wrong = d.blocks[0][0].block(0, 2, 0, 2)  # too small for its slot
        with pytest.raises(ValueError, match="shape"):
            DistMat(machine, d.layout, [[wrong, d.blocks[0][1]], d.blocks[1]], W)

    def test_memory_accounting(self, rng):
        mat = random_weight_spmat(rng, 20, 20, 0.5)
        machine = Machine(4)
        d = DistMat.distribute(mat, machine, home_grid(4))
        held = [machine.memory_used(r) for r in range(4)]
        assert sum(held) == d.words()
        for (i, j), owner in np.ndenumerate(d.layout.ranks2d):
            assert held[owner] == d.blocks[i][j].words()


class TestRedistribute:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_preserves_content(self, rng, p):
        mat = random_weight_spmat(rng, 19, 21, 0.3)
        machine = Machine(p)
        d = DistMat.distribute(mat, machine, home_grid(p))
        r = d.redistribute(Layout.even(column(p), *mat.shape))
        assert r.gather(charge=False).equals(mat)
        r2 = r.redistribute(Layout.even(column(p).T, *mat.shape))
        assert r2.gather(charge=False).equals(mat)

    def test_to_subgrid(self, rng):
        mat = random_weight_spmat(rng, 12, 12, 0.4)
        machine = Machine(8)
        d = DistMat.distribute(mat, machine, home_grid(8))
        sub = np.array([[4, 5], [6, 7]])
        r = d.redistribute(Layout.even(sub, *mat.shape))
        assert r.gather(charge=False).equals(mat)
        owners = set(r.layout.ranks2d.ravel().tolist())
        assert owners == {4, 5, 6, 7}

    def test_charges_alltoall(self, rng):
        mat = random_weight_spmat(rng, 16, 16, 0.5)
        machine = Machine(4)
        d = DistMat.distribute(mat, machine, home_grid(4), charge=False)
        w0 = machine.ledger.critical_words()
        d.redistribute(Layout.even(column(4), *mat.shape))
        assert machine.ledger.critical_words() > w0

    def test_identity_returns_self_and_touches_nothing(self, rng, monkeypatch):
        mat = random_weight_spmat(rng, 16, 16, 0.5)
        machine = Machine(4, faults="seed:1")
        d = DistMat.distribute(mat, machine, home_grid(4))
        step, held = machine.faults.step, machine.memory_peak()
        monkeypatch.setattr(
            machine, "group", lambda ranks: pytest.fail("a Group for a no-op")
        )
        monkeypatch.setattr(
            machine.executor, "run_tasks", lambda *a, **k: pytest.fail("packed a block")
        )
        # its own layout, an even one built afresh, and one of copied arrays
        assert d.redistribute(d.layout) is d
        assert d.redistribute(Layout.even(home_grid(4), *mat.shape)) is d
        copied = [a.copy() for a in (d.layout.ranks2d, d.layout.row_splits, d.layout.col_splits)]
        assert d.redistribute(Layout(*copied)) is d
        assert machine.faults.step == step and machine.memory_peak() == held

    def test_same_grid_other_splits_still_moves(self, rng):
        mat = random_weight_spmat(rng, 16, 16, 0.5)
        d = DistMat.distribute(mat, Machine(4), home_grid(4))
        r = d.redistribute(Layout(home_grid(4), [0, 3, 16], d.layout.col_splits))
        assert r is not d and r.gather(charge=False).equals(mat)

    def test_custom_splits(self, rng):
        mat = random_weight_spmat(rng, 10, 10, 0.5)
        machine = Machine(2)
        d = DistMat.distribute(mat, machine, np.array([[0, 1]]))
        r = d.redistribute(Layout(column(2), [0, 3, 10], [0, 10]))
        assert r.gather(charge=False).equals(mat)


class TestElementwiseParity:
    """DistMat blockwise ops must equal the same SpMat ops."""

    @pytest.fixture
    def pair(self, rng):
        a = random_weight_spmat(rng, 15, 15, 0.3)
        b = random_weight_spmat(rng, 15, 15, 0.3)
        machine = Machine(4)
        da = DistMat.distribute(a, machine, home_grid(4))
        db = DistMat.distribute(b, machine, home_grid(4))
        return a, b, da, db

    def test_combine(self, pair):
        a, b, da, db = pair
        assert da.combine(db).gather(charge=False).equals(a.combine(b))

    def test_filter(self, pair):
        a, _, da, _ = pair
        pred = lambda v: v["w"] > 10
        assert da.filter(pred).gather(charge=False).equals(a.filter(pred))

    def test_map(self, pair):
        a, _, da, _ = pair
        fn = lambda v: {"w": v["w"] * 2}
        assert da.map(fn).gather(charge=False).equals(a.map(fn))

    def test_zip_filter(self, pair):
        a, b, da, db = pair
        pred = lambda av, bv: av["w"] <= bv["w"]
        assert da.zip_filter(db, pred).gather(charge=False).equals(
            a.zip_filter(b, pred)
        )

    def test_zip_map(self, pair):
        a, b, da, db = pair
        fn = lambda av, bv: {"w": np.minimum(av["w"], bv["w"])}
        assert da.zip_map(db, fn).gather(charge=False).equals(a.zip_map(b, fn))

    def test_mismatched_layouts_auto_align(self, pair):
        """Operands on different layouts of the same machine are aligned
        automatically (charged), like CTF's distribution-oblivious ops."""
        a, b, da, db = pair
        moved = db.redistribute(Layout.even(column(4), *b.shape))
        w0 = da.machine.ledger.total_words
        out = da.combine(moved)
        assert out.gather(charge=False).equals(a.combine(b))
        assert da.machine.ledger.total_words > w0  # re-alignment was charged

    def test_sparser_operand_moves(self, rng):
        """The operand with fewer nonzeros moves onto the other's layout, in
        either argument position; on a tie ``other`` moves."""
        machine = Machine(4)
        dense = random_weight_spmat(rng, 12, 12, 0.6)
        sparse = random_weight_spmat(rng, 12, 12, 0.1)
        strips = Layout.even(column(4), 12, 12)
        on_home = DistMat.distribute(dense, machine, home_grid(4))
        on_strips = DistMat.distribute(sparse, machine, home_grid(4)).redistribute(strips)
        assert on_home.combine(on_strips).layout == on_home.layout
        assert on_strips.combine(on_home).layout == on_home.layout
        twin = DistMat.distribute(dense, machine, home_grid(4)).redistribute(strips)
        assert on_home.zip_map(twin, lambda x, y: x).layout == on_home.layout
        assert twin.zip_filter(on_home, lambda x, y: x["w"] > 0).layout == strips


class TestTranspose:
    def test_content(self, rng):
        a = random_weight_spmat(rng, 9, 13, 0.4)
        machine = Machine(4)
        da = DistMat.distribute(a, machine, home_grid(4))
        assert da.transpose().gather(charge=False).equals(a.transpose())

    def test_memoized_identity(self, rng):
        a = random_weight_spmat(rng, 9, 9, 0.4)
        machine = Machine(4)
        da = DistMat.distribute(a, machine, home_grid(4))
        t1 = da.transpose()
        t2 = da.transpose()
        assert t1 is t2
        assert t1.transpose() is da

    def test_released_pair_frees_without_the_cyclic_collector(self, rng):
        """A matrix and its memoized transpose are no reference cycle: their
        memory charges go when the last reference does, not whenever (and on
        whichever thread) the cyclic collector next runs finalizers."""
        machine = Machine(4)
        da = DistMat.distribute(random_weight_spmat(rng, 9, 9, 0.4), machine, home_grid(4))
        t = da.transpose()
        assert machine.memory_used() > 0 and t.transpose() is da
        gc.disable()
        try:
            del da, t
            assert machine.memory_used() == 0
        finally:
            gc.enable()


class TestExtractRanges:
    def test_col_range(self, rng):
        a = random_weight_spmat(rng, 10, 20, 0.4)
        machine = Machine(4)
        da = DistMat.distribute(a, machine, home_grid(4))
        sub = da.extract_col_range(5, 13)
        assert sub.gather(charge=False).equals(a.block(0, 10, 5, 13))

    def test_row_range(self, rng):
        a = random_weight_spmat(rng, 20, 10, 0.4)
        machine = Machine(4)
        da = DistMat.distribute(a, machine, home_grid(4))
        sub = da.extract_row_range(3, 18)
        assert sub.gather(charge=False).equals(a.block(3, 18, 0, 10))

    def test_empty_range(self, rng):
        a = random_weight_spmat(rng, 10, 10, 0.4)
        machine = Machine(2)
        da = DistMat.distribute(a, machine, np.array([[0, 1]]))
        sub = da.extract_col_range(4, 4)
        assert sub.ncols == 0 and sub.nnz == 0

    def test_bad_range_raises(self, rng):
        a = random_weight_spmat(rng, 10, 10, 0.4)
        machine = Machine(2)
        da = DistMat.distribute(a, machine, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            da.extract_col_range(5, 20)
        with pytest.raises(ValueError):
            da.extract_row_range(-1, 5)


# ---------------------------------------------------------------------------
# the packed form: one SpMat per matrix, blocks as views
# ---------------------------------------------------------------------------


#: (name, the SpMat op, the DistMat op): one per elementwise method
ELEMENTWISE = [
    ("combine", lambda x, y: x.combine(y), lambda x, y: x.combine(y)),
    ("filter", lambda x, y: x.filter(_over4), lambda x, y: x.filter(_over4)),
    ("map", lambda x, y: x.map(_minus1), lambda x, y: x.map(_minus1)),
    (
        "zip_filter",
        lambda x, y: x.zip_filter(y, _not_above),
        lambda x, y: x.zip_filter(y, _not_above),
    ),
    ("zip_map", lambda x, y: x.zip_map(y, _least), lambda x, y: x.zip_map(y, _least)),
]


def _over4(v):
    return v["w"] > 4


def _minus1(v):
    return {name: col - 1 for name, col in v.items()}


def _not_above(av, bv):
    return av["w"] <= bv["w"]


def _least(av, bv):
    return {name: np.minimum(col, bv[name]) for name, col in av.items()}


@st.composite
def packing_layouts(draw, shape):
    """A layout of ``shape``: strips, rows of tiles or grids, even or uneven
    (zero-width tiles included), possibly a transposed layout."""
    pr, pc = draw(st.sampled_from([(1, 1), (4, 1), (1, 3), (2, 2), (3, 2), (16, 1)]))
    transposed = draw(st.booleans())
    if transposed:
        pr, pc = pc, pr
    m, n = shape[::-1] if transposed else shape
    ranks2d = np.arange(pr * pc).reshape(pr, pc)
    if draw(st.booleans()):
        layout = Layout.even(ranks2d, m, n)
    else:
        cut = lambda size, parts: np.array(  # noqa: E731
            [0, *sorted(draw(st.lists(st.integers(0, size), min_size=parts - 1,
                                      max_size=parts - 1))), size]
        )
        layout = Layout(ranks2d, cut(m, pr), cut(n, pc))
    return layout.T if transposed else layout


class TestPackedElementwise:
    """Every elementwise op on the packed form equals the same op on each
    block pair, bit for bit, and charges what the blocks would."""

    @given(
        st.sampled_from([MinMonoid(), PlusMonoid(), MULTPATH]),
        st.integers(1, 11),
        st.integers(1, 11),
        st.sampled_from(range(len(ELEMENTWISE))),
        st.sampled_from(["blocks", "packed", "spilled"]),
        st.data(),
    )
    def test_equals_the_per_block_reference(self, monoid, m, n, which, held, data):
        a = data.draw(cst.spmats(monoid, shape=(m, n)))
        b = data.draw(cst.spmats(monoid, shape=(m, n)))
        layout = data.draw(packing_layouts((m, n)))
        _name, on_blocks, on_dist = ELEMENTWISE[which]
        with tempfile.TemporaryDirectory() as spill_dir:
            machine = Machine(
                16, faults="off", elastic="off", memory_words=1 << 40, spill_dir=spill_dir
            )
            da, db = (
                DistMat.distribute(x, machine, np.arange(16).reshape(4, 4)).redistribute(layout)
                for x in (a, b)
            )
            if held == "packed":
                da.packed()
            elif held == "spilled":
                # rank 0's blocks leave for the store; the op faults them in
                da.spill_blocks(machine.memory.store(), rank=0)
            out = on_dist(da, db)
            assert out.layout == layout
            pr, pc = layout.ranks2d.shape
            charged: dict[int, int] = {}
            for i in range(pr):
                for j in range(pc):
                    bounds = layout.bounds(i, j)
                    want = on_blocks(a.block(*bounds), b.block(*bounds))
                    assert_bits(out.blocks[i][j], want)
                    owner = int(layout.ranks2d[i, j])
                    if want.words():
                        charged[owner] = charged.get(owner, 0) + want.words()
            assert out._memcharge.charged == charged
            assert out.words() == sum(charged.values())
            assert out.gather(charge=False).equals(on_blocks(a, b))

    def test_strips_pack_to_the_global_matrix(self, rng):
        mat = random_weight_spmat(rng, 23, 17, 0.3)
        machine = Machine(4)
        d = DistMat.distribute(mat, machine, home_grid(4)).redistribute(
            Layout.even(column(4), *mat.shape)
        )
        assert_bits(d.packed(), mat)
        assert d.gather(charge=False) is d.packed()  # no merge on strips
        assert d.blocks[1][0] is d.blocks[1][0]  # a view is built once

    def test_block_assignment_unpacks(self, rng):
        mat = random_weight_spmat(rng, 12, 12, 0.4)
        machine = Machine(4)
        d = DistMat.distribute(mat, machine, home_grid(4))
        d.packed()
        empty = SpMat.empty(*d.layout.block_shapes[0][0], W)
        d.blocks[0][0] = empty
        assert d.blocks[0][0] is empty
        assert d.nnz == mat.nnz - mat.block(*d.layout.bounds(0, 0)).nnz

    def test_packed_shape_validated(self, rng):
        mat = random_weight_spmat(rng, 10, 10, 0.3)
        layout = Layout.even(column(2), 10, 11)
        with pytest.raises(ValueError, match="packed matrix has shape"):
            DistMat(Machine(2), layout, mat, W)


class TestPackedStructure:
    """Row and column ranges and gathers of the packed form equal the block
    form's, bit for bit."""

    @given(
        st.sampled_from([MinMonoid(), MULTPATH]),
        st.integers(1, 11),
        st.integers(1, 11),
        st.integers(0, 1),
        st.data(),
    )
    def test_ranges_and_gather(self, monoid, m, n, axis, data):
        mat = data.draw(cst.spmats(monoid, shape=(m, n)))
        layout = data.draw(packing_layouts((m, n)))
        size = (m, n)[axis]
        lo = data.draw(st.integers(0, size))
        hi = data.draw(st.integers(lo, size))
        machine = Machine(16)
        blocked = DistMat.distribute(mat, machine, np.arange(16).reshape(4, 4)).redistribute(
            layout
        )
        packed = DistMat(machine, layout, blocked.packed(), monoid)
        assert_bits(packed.gather(charge=False), mat)
        blocked = DistMat(machine, layout, [list(row) for row in packed.blocks], monoid)
        extract = ("extract_row_range", "extract_col_range")[axis]
        got = getattr(packed, extract)(lo, hi)
        want = getattr(blocked, extract)(lo, hi)
        assert got.layout == want.layout
        for got_row, want_row in zip(got.blocks, want.blocks):
            for got_blk, want_blk in zip(got_row, want_row):
                assert_bits(got_blk, want_blk)
        assert got._memcharge.charged == want._memcharge.charged


class TestElementwiseCallCount:
    """An elementwise op is one SpMat call, whatever the grid."""

    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("grid", [home_grid, column])
    @pytest.mark.parametrize("which", range(len(ELEMENTWISE)))
    def test_one_spmat_call_per_op(self, rng, monkeypatch, p, grid, which):
        a = random_weight_spmat(rng, 40, 30, 0.2)
        b = random_weight_spmat(rng, 40, 30, 0.2)
        machine = Machine(p)
        da, db = (DistMat.distribute(x, machine, grid(p)) for x in (a, b))
        calls = []
        for name in ("combine", "filter", "map", "zip_filter", "zip_map"):
            original = getattr(SpMat, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(SpMat, name, counting)
        name, _on_blocks, on_dist = ELEMENTWISE[which]
        on_dist(da, db)
        assert calls == [name]
