"""Canonical-by-construction producers vs the canonicalizing constructor.

Every internal :class:`SpMat` producer builds its result ``canonical=True``
from an argument about its inputs (see "Canonical-form contract" in
docs/performance_model.md).  Here each one is checked against the public
constructor — which sorts, folds and prunes from scratch — on the same
triples: the output must have zero ``check_spmat`` violations and ``.equals``
the reference.  The structural tests at the bottom pin that the hot
redistribution path performs no monoid reduction and that an ``mfbc`` run
stays off the canonicalizing constructor.
"""

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.centpath import CENTPATH
from repro.algebra.fields import concat_fields, take_fields
from repro.algebra import TROPICAL
from repro.algebra.monoid import MaxMonoid, MinMonoid, PlusMonoid
from repro.algebra.multpath import MULTPATH
from repro.check import check_spmat
from repro.check import strategies as cst
from repro.core import SequentialEngine, mfbc
from repro.dist import DistMat, DistributedEngine, Layout
from repro.dist.distmat import axis_block, even_splits
from repro.graphs import Graph, uniform_random_graph_nm
from repro.graphs.graph import WEIGHT_MONOID
from repro.machine import Machine
from repro.sparse import SpMat
from repro.sparse.spgemm import spgemm
from repro.spgemm.variants import _block_diag, _stacked, _task_products

#: one object per library monoid, so operands of a case share their monoid
MONOIDS = [MinMonoid(), PlusMonoid(), MaxMonoid(), MULTPATH, CENTPATH]
PLUS = MONOIDS[1]


def assert_canonical(out: SpMat, ref: SpMat) -> None:
    assert check_spmat(out) == []
    assert out.monoid is ref.monoid
    assert out.equals(ref)


def triples(mats):
    """Concatenated (rows, cols, vals) of ``mats`` — raw constructor input."""
    rows = np.concatenate([m.rows for m in mats])
    cols = np.concatenate([m.cols for m in mats])
    return rows, cols, concat_fields([m.vals for m in mats])


@st.composite
def same_space(draw, count=2, max_side=6):
    """``count`` canonical matrices sharing one shape and one monoid object
    (small sides, so supports overlap often)."""
    monoid = draw(st.sampled_from(MONOIDS))
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    return [draw(cst.spmats(monoid, shape=shape)) for _ in range(count)]


@st.composite
def masks(draw, n):
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


@st.composite
def splits(draw, n, parts=None):
    """Ascending boundaries of ``parts`` blocks (drawn when ``None``) over
    ``range(n)``; repeated boundaries make zero-width blocks."""
    k = parts or draw(st.integers(1, 4))
    inner = sorted(draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
    return np.array([0, *inner, n], dtype=np.int64)


# -- SpMat algebra ------------------------------------------------------------


@given(same_space())
def test_combine(pair):
    a, b = pair
    ref = SpMat(*a.shape, *triples([a, b]), a.monoid)
    assert_canonical(a.combine(b), ref)


@st.composite
def located_updates(draw, max_side=6):
    """``(state, update)`` in one space over one monoid object, the update's
    support drawn *relative to* the state's — empty, disjoint, a subset, or
    any — which are the cases ``combine`` tells apart.  Values are small
    signed integers and both zeros, so plus sums annihilate (1 ⊕ −1), weights
    tie and lose, and signed-zero payloads occur; the constructor prunes
    whatever is an identity."""
    monoid = draw(st.sampled_from(MONOIDS))
    nrows, ncols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = list(range(nrows * ncols))
    mine = draw(st.lists(st.sampled_from(cells), unique=True))
    pool = {
        "empty": [],
        "disjoint": sorted(set(cells) - set(mine)),
        "subset": mine,
        "any": cells,
    }[draw(st.sampled_from(["empty", "disjoint", "subset", "any"]))]
    theirs = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []

    def build(flat):
        vals = {
            name: np.array(
                draw(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                              min_size=len(flat), max_size=len(flat))),
            ).astype(dtype)
            for name, dtype in monoid.field_spec
        }
        rows, cols = np.divmod(np.array(flat, dtype=np.int64), ncols)
        return SpMat(nrows, ncols, rows, cols, vals, monoid)

    return build(mine), build(theirs)


def columns(m: SpMat) -> list[np.ndarray]:
    return [m.rows, m.cols, *m.vals.values()]


@given(located_updates(), st.booleans())
def test_combine_locates_the_update(pair, foreign):
    a, b = pair
    ref = SpMat(*a.shape, *triples([a, b]), a.monoid)
    if foreign:  # an equal monoid that is another object: re-pruned, same result
        b = SpMat(*b.shape, b.rows, b.cols, b.vals, copy.copy(b.monoid), canonical=True)
    for col in columns(a) + columns(b):
        col.flags.writeable = False  # a write into an operand raises
    out = a.combine(b)
    assert_canonical(out, ref)
    for col, want in zip(columns(out), columns(ref)):
        assert col.dtype == want.dtype and np.array_equal(col, want)
    assert np.array_equal(out.keys(), out.rows * out.ncols + out.cols)


def test_combine_prunes_an_annihilated_pair_among_hits_and_misses():
    a = SpMat(2, 3, [0, 0, 1], [0, 2, 1], {"w": [1.0, 2.0, 3.0]}, PLUS)
    b = SpMat(2, 3, [0, 0, 1, 1], [1, 2, 1, 2], {"w": [5.0, -2.0, 1.0, 7.0]}, PLUS)
    out = a.combine(b)
    assert_canonical(out, SpMat(2, 3, *triples([a, b]), PLUS))
    assert out.keys().tolist() == [0, 1, 4, 5] and out.vals["w"].tolist() == [1.0, 5.0, 4.0, 7.0]


def test_combine_keeps_signed_zeros_like_the_constructor():
    # (0, 0): the weights tie as −0.0 == 0.0 and the fold keeps the first
    # (self's) zero; the payload −0.0 + −0.0 stays negative
    a = SpMat(1, 3, [0, 0], [0, 1], MULTPATH.make([-0.0, 1.0], [-0.0, 2.0]), MULTPATH)
    b = SpMat(1, 3, [0, 0], [0, 2], MULTPATH.make([0.0, 1.0], [-0.0, 1.0]), MULTPATH)
    out, ref = a.combine(b), SpMat(1, 3, *triples([a, b]), MULTPATH)
    assert_canonical(out, ref)
    for name in MULTPATH.field_names:
        assert np.signbit(out.vals[name][0])
        assert np.array_equal(np.signbit(out.vals[name]), np.signbit(ref.vals[name]))


@given(cst.spmats(PLUS))
def test_combine_hits_identity(a):
    neg = a.map(lambda v: {"w": -v["w"]})
    assert_canonical(a.combine(neg), SpMat.empty(*a.shape, PLUS))


@given(cst.spmats())
def test_combine_with_empty_returns_the_operand(a):
    empty = SpMat.empty(*a.shape, a.monoid)
    assert a.combine(empty) is a
    assert empty.combine(a) is (a if a.nnz else empty)


def test_combine_across_monoid_objects_prunes_under_self():
    # same schema, different identity: min's entry 0.0 is plus's identity
    m = SpMat(2, 2, [0, 1], [0, 1], {"w": [0.0, 3.0]}, MinMonoid())
    for lhs in (SpMat.empty(2, 2, PLUS), SpMat(2, 2, [0], [1], {"w": [1.0]}, PLUS)):
        out = lhs.combine(m)
        assert_canonical(out, SpMat(2, 2, *triples([lhs, m]), PLUS))
        assert out.nnz == lhs.nnz + 1  # (0, 0) is not stored


@given(cst.spmats(), st.data())
def test_merged_disjoint_parts(a, data):
    owner = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=a.nnz, max_size=a.nnz)),
        dtype=np.int64,
    )
    parts = []
    for k in range(4):  # part 3 may be empty; subsequences stay canonical
        idx = (owner == k).nonzero()[0]
        parts.append((a.rows[idx], a.cols[idx], take_fields(a.vals, idx)))
    assert_canonical(SpMat._merged(*a.shape, parts, a.monoid), a)
    assert_canonical(SpMat._merged(*a.shape, [], a.monoid), SpMat.empty(*a.shape, a.monoid))


@given(same_space(count=3))
def test_merged_overlapping_parts_fall_back_to_reducing(mats):
    parts = [(m.rows, m.cols, m.vals) for m in mats]
    ref = SpMat(*mats[0].shape, *triples(mats), mats[0].monoid)
    assert_canonical(SpMat._merged(*mats[0].shape, parts, mats[0].monoid), ref)


@given(cst.spmats(), st.sampled_from(MONOIDS), st.data())
def test_map_prunes_identity(a, out_monoid, data):
    hit = data.draw(masks(a.nnz))
    fresh = data.draw(cst.values_for(out_monoid, a.nnz))
    new = {
        name: np.where(hit, out_monoid.identity[name], fresh[name]).astype(dt)
        for name, dt in out_monoid.field_spec
    }
    ref = SpMat(*a.shape, a.rows, a.cols, new, out_monoid)
    assert_canonical(a.map(lambda v: new, monoid=out_monoid), ref)
    assert ref.nnz == a.nnz - hit.sum()


def test_map_validates_length():
    a = SpMat(2, 2, [0, 1], [0, 1], {"w": [1.0, 2.0]}, PLUS)
    with pytest.raises(ValueError, match="length mismatch"):
        a.map(lambda v: {"w": v["w"][:1]})


@given(same_space())
def test_zip_map(pair):
    a, b = pair
    monoid = a.monoid
    new = monoid.combine(a.vals, a.align_values(b))
    ref = SpMat(*a.shape, a.rows, a.cols, new, monoid)
    assert_canonical(a.zip_map(b, monoid.combine), ref)


@given(cst.spmats(PLUS))
def test_zip_map_hits_identity(a):
    neg = a.map(lambda v: {"w": -v["w"]})
    assert_canonical(a.zip_map(neg, PLUS.combine), SpMat.empty(*a.shape, PLUS))


@given(same_space(), st.data())
def test_filter_and_zip_filter(pair, data):
    a, b = pair
    keep = data.draw(masks(a.nnz))
    idx = keep.nonzero()[0]
    ref = SpMat(*a.shape, a.rows[idx], a.cols[idx], take_fields(a.vals, idx), a.monoid)
    assert_canonical(a.filter(lambda v: keep), ref)
    stored = ~b.monoid.is_identity(a.align_values(b))
    idx = stored.nonzero()[0]
    ref = SpMat(*a.shape, a.rows[idx], a.cols[idx], take_fields(a.vals, idx), a.monoid)
    out = a.zip_filter(b, lambda v, o: ~b.monoid.is_identity(o))
    assert_canonical(out, ref)


@given(cst.spmats(), st.data())
def test_block(a, data):
    r0, r1 = sorted(data.draw(st.tuples(*[st.integers(0, a.nrows)] * 2)))
    c0, c1 = sorted(data.draw(st.tuples(*[st.integers(0, a.ncols)] * 2)))
    inside = (a.rows >= r0) & (a.rows < r1) & (a.cols >= c0) & (a.cols < c1)
    idx = inside.nonzero()[0]
    ref = SpMat(
        r1 - r0, c1 - c0, a.rows[idx] - r0, a.cols[idx] - c0,
        take_fields(a.vals, idx), a.monoid,
    )
    assert_canonical(a.block(r0, r1, c0, c1), ref)


@given(cst.spmats())
def test_transpose(a):
    ref = SpMat(a.ncols, a.nrows, a.cols, a.rows, a.vals, a.monoid)
    assert_canonical(a.transpose(), ref)
    assert_canonical(a.transpose().transpose(), a)


# -- a graph's adjacency ---------------------------------------------------------


@st.composite
def edge_lists(draw, max_n=8):
    """A graph from a raw edge list, directed or not, weighted or not:
    parallel edges (with different weights), self-loops and no edges at all
    are all drawn."""
    n = draw(st.integers(1, max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    weight = None
    if draw(st.booleans()):
        weight = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25]),
                                        min_size=len(edges), max_size=len(edges))))
    return Graph(n, src, dst, weight, directed=draw(st.booleans()))


@given(edge_lists())
def test_adjacency_is_canonical_as_built(g):
    """The edge list is sorted, unique and loop-free, so the adjacency needs
    no reducing constructor: bit for bit what that constructor makes of
    both orientations, built once per graph."""
    r, c, w = g._both_directions()
    ref = SpMat(g.n, g.n, r, c, {"w": w}, WEIGHT_MONOID)
    adj = g.adjacency()
    assert_canonical(adj, ref)
    assert [col.tobytes() for col in columns(adj)] == [col.tobytes() for col in columns(ref)]
    assert g.adjacency() is adj


@given(edge_lists())
def test_adjacency_transpose_is_memoized(g):
    adj = g.adjacency()
    t = adj.transpose()
    assert adj.transpose() is t
    if g.directed:
        assert_canonical(t, SpMat(g.n, g.n, adj.cols, adj.rows, adj.vals, adj.monoid))
        assert t.transpose() is adj
    else:  # symmetric: its own transpose, no copy
        assert t is adj


# -- redistribution -----------------------------------------------------------


@given(cst.spmats(), st.data())
def test_layout_cut(src, data):
    r0, c0 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    row_splits = data.draw(splits(src.nrows + r0 + data.draw(st.integers(0, 2))))
    col_splits = data.draw(splits(src.ncols + c0 + data.draw(st.integers(0, 2))))
    pr, pc = len(row_splits) - 1, len(col_splits) - 1
    layout = Layout(np.arange(pr * pc).reshape(pr, pc), row_splits, col_splits)
    pieces = layout.cut(src, r0, c0)
    assert [(a, b) for a, b, _ in pieces] == sorted((a, b) for a, b, _ in pieces)
    framed = SpMat(*layout.shape, src.rows + r0, src.cols + c0, src.vals, src.monoid)
    for a, b, piece in pieces:
        assert piece.nnz
        assert_canonical(piece, framed.block(*layout.bounds(a, b)))
    assert sum(piece.nnz for _, _, piece in pieces) == src.nnz


def assert_distributed(d: DistMat, mat: SpMat) -> None:
    """Every block of ``d`` is canonical and is the matching slice of ``mat``."""
    pr, pc = d.grid_shape
    for i in range(pr):
        for j in range(pc):
            assert_canonical(d.block(i, j), mat.block(*d.layout.bounds(i, j)))
    assert_canonical(d.gather(charge=False), mat)


@given(cst.spmats(max_side=9), st.integers(1, 8), st.data())
def test_redistribute_and_gather(mat, p, data):
    # sides below the grid's give zero-width blocks; grids() includes the
    # one-column (p × 1) and one-row layouts
    machine = Machine(p)
    d = DistMat.distribute(mat, machine, data.draw(cst.grids(p)), charge=False)
    assert_distributed(d, mat)
    ranks2d = data.draw(cst.grids(p))
    layout = Layout.even(ranks2d, *mat.shape)
    if data.draw(st.booleans()):  # uneven
        layout = Layout(
            ranks2d,
            data.draw(splits(mat.nrows, ranks2d.shape[0])),
            data.draw(splits(mat.ncols, ranks2d.shape[1])),
        )
    moved = d.redistribute(layout)
    assert_distributed(moved, mat)


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: type(m).__name__)
def test_one_column_grid_roundtrip(monoid):
    rng = np.random.default_rng(3)
    flat = np.sort(rng.choice(40 * 7, 60, replace=False))
    vals = {n: rng.integers(1, 9, 60).astype(dt) for n, dt in monoid.field_spec}
    mat = SpMat(40, 7, flat // 7, flat % 7, vals, monoid)
    machine = Machine(4)
    home = DistMat.distribute(mat, machine, np.arange(4).reshape(2, 2), charge=False)
    column = np.arange(4).reshape(4, 1)
    col1 = home.redistribute(Layout.even(column, *mat.shape))
    assert_distributed(col1, mat)
    assert_distributed(col1.redistribute(Layout.even(column.T, *mat.shape)), mat)


@given(
    cst.spmats(max_side=9),
    st.integers(1, 3),
    st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 2), (2, 3)]),
    st.booleans(),
    st.booleans(),
)
def test_stacked_layout(mat, p1, grid, flip, by_rows):
    """A plan's layers stacked along one axis: layer ``l``'s range of the
    matrix, blocked evenly on its own grid (transposed when ``flip``), sits
    at its offset in the stacked layout on the same ranks.  The layer
    outputs placed there are the matrix: every block stays the object its
    layer computed, and nothing is charged."""
    pr, pc = grid
    axis = 0 if by_rows else 1
    machine = Machine(p1 * pr * pc)
    layout = _stacked((p1, pr, pc), flip, axis, *mat.shape)
    ranks3d = np.arange(machine.p).reshape(p1, pr, pc)
    if p1 == 1:
        assert layout is Layout.even(ranks3d[0].T if flip else ranks3d[0], *mat.shape)
    cuts = even_splits(mat.shape[axis], p1)
    blocks = [[None] * layout.ranks2d.shape[1] for _ in range(layout.ranks2d.shape[0])]
    for l in range(p1):
        sub = axis_block(mat, axis, int(cuts[l]), int(cuts[l + 1]))
        out = DistMat.distribute(sub, machine, ranks3d[l].T if flip else ranks3d[l], charge=False)
        qr, qc = out.grid_shape
        for i, j in np.ndindex(qr, qc):
            at = (l * qr + i, j) if axis == 0 else (i, l * qc + j)
            assert layout.ranks2d[at] == out.layout.ranks2d[i, j]
            blocks[at[0]][at[1]] = out.block(i, j)
    stacked = DistMat(machine, layout, blocks, mat.monoid)
    assert_distributed(stacked, mat)
    assert machine.ledger.total_words == 0
    assert all(stacked.block(*ij) is blocks[ij[0]][ij[1]] for ij in np.ndindex(*stacked.grid_shape))


# -- a plan step's stacked product ------------------------------------------------


@st.composite
def diagonals(draw, max_side=5):
    """One to four matrices over one monoid object, zero-sided ones included."""
    monoid = draw(st.sampled_from(MONOIDS))
    count = draw(st.integers(1, 4))
    return [draw(cst.spmats(monoid, min_side=0, max_side=max_side)) for _ in range(count)]


@given(diagonals())
def test_block_diagonal_stack(mats):
    diag = _block_diag(mats)
    shifted = [
        SpMat(int(diag.rows[-1]), int(diag.cols[-1]), m.rows + r, m.cols + c, m.vals, m.monoid,
              canonical=True)
        for m, r, c in zip(mats, diag.rows, diag.cols)
    ]
    # the constructor sees the pieces last first
    ref = SpMat(*diag.mat.shape, *triples(shifted[::-1]), mats[0].monoid)
    assert_canonical(diag.mat, ref)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), min_size=1, max_size=5),
    st.data(),
)
def test_step_product_task_views(plan, data):
    """Every task's product is a view of the step's one stacked product."""
    spec = TROPICAL.matmul_spec()
    monoid = spec.monoid
    ys = [data.draw(cst.spmats(monoid, min_side=0, max_side=6)) for _ in range(3)]
    tasks = [
        (rank, data.draw(cst.spmats(monoid, shape=(m, ys[k].nrows))), ys[k])
        for rank, (m, k) in enumerate(plan)
    ]
    prods, _ = _task_products(Machine(len(tasks)), tasks, spec)
    for (_, x, y), out in zip(tasks, prods):
        want = spgemm(x, y, spec, kernel="generic").matrix
        assert_canonical(out, SpMat(*want.shape, *triples([want]), monoid))


@given(cst.spmats(max_side=9), st.integers(0, 1), st.data())
def test_packed_range(mat, axis, data):
    """A packed matrix's row or column range, re-keyed in one pass, against
    its tiles' keys in the range's layout, through the constructor."""
    ranks2d = data.draw(cst.grids(6))
    layout = Layout(
        ranks2d,
        data.draw(splits(mat.nrows, ranks2d.shape[0])),
        data.draw(splits(mat.ncols, ranks2d.shape[1])),
    )
    d = DistMat.distribute(mat, Machine(6), ranks2d, charge=False).redistribute(layout)
    d.packed()
    size = mat.shape[axis]
    lo = data.draw(st.integers(0, size))
    hi = data.draw(st.integers(lo, size))
    got = (d.extract_row_range, d.extract_col_range)[axis](lo, hi)
    part = axis_block(mat, axis, lo, hi)
    keys, vals = [], []
    for t, (i, j) in reversed(list(enumerate(np.ndindex(*ranks2d.shape)))):
        blk = part.block(*got.layout.bounds(i, j))
        keys.append(got.layout.offsets[t] + blk.rows * blk.ncols + blk.cols)
        vals.append(blk.vals)
    rows, cols = np.divmod(np.concatenate(keys), max(got.ncols, 1))
    ref = SpMat(*got.shape, rows, cols, concat_fields(vals), mat.monoid)
    assert_canonical(got.packed(), ref)


# -- structural regression: the property cannot silently rot -------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_redistribute_and_gather_reduce_nothing(monkeypatch, rng):
    flat = np.sort(rng.choice(64 * 48, 700, replace=False))
    mat = SpMat(64, 48, flat // 48, flat % 48, MULTPATH.make(np.ones(700), np.ones(700)), MULTPATH)
    machine = Machine(16)
    d = DistMat.distribute(mat, machine, np.arange(16).reshape(4, 4))
    cls = type(MULTPATH)
    calls = count_calls(monkeypatch, cls, "reduce_by_key")
    calls += count_calls(monkeypatch, cls, "_reduce_sorted")
    builds = count_calls(monkeypatch, SpMat, "_canonicalize")
    for ranks2d in (np.arange(16).reshape(1, 16), np.arange(16).reshape(16, 1),
                    np.arange(16).reshape(2, 8)):
        moved = d.redistribute(Layout.even(ranks2d, *mat.shape))
        assert moved.gather().equals(mat)
        assert moved.redistribute(d.layout).gather().equals(mat)
    assert calls == [] and builds == []


def assert_mfbc_stays_off_the_canonicalizing_constructor(monkeypatch, engine):
    g = uniform_random_graph_nm(96, 6.0, seed=5)
    builds = count_calls(monkeypatch, SpMat, "_canonicalize")
    result = mfbc(g, sources=np.arange(12), batch_size=6, engine=engine)
    assert result.scores.shape == (g.n,)
    # what is left builds from raw triples: each of the two batches' seed
    # frontier (the adjacency is canonical as built from the graph's sorted
    # edge list; an early version of the engine made 771 on this run)
    assert len(builds) <= 2


def test_mfbc_stays_off_the_canonicalizing_constructor(monkeypatch):
    assert_mfbc_stays_off_the_canonicalizing_constructor(
        monkeypatch, DistributedEngine(Machine(4))
    )


def test_sequential_mfbc_stays_off_the_canonicalizing_constructor(monkeypatch):
    assert_mfbc_stays_off_the_canonicalizing_constructor(monkeypatch, SequentialEngine())


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_dropped_graph_frees_its_matrices_without_the_cyclic_collector(directed):
    """A graph holds its adjacency, the adjacency its memoized transpose,
    and the transpose the adjacency only weakly (a symmetric one is its own
    transpose): no reference cycle, so dropping the graph frees both at
    once, not whenever the cyclic collector next runs."""
    g = uniform_random_graph_nm(64, 4.0, seed=3)
    if directed:
        g = Graph(g.n, g.src, g.dst, directed=True)
    gc.disable()
    try:
        mfbc(g, sources=np.arange(8), batch_size=4)
        adj = g.adjacency()
        held = [weakref.ref(m.vals["w"]) for m in (adj, adj.transpose())]
        del adj
        assert all(ref() is not None for ref in held)
        del g
        assert all(ref() is None for ref in held)
    finally:
        gc.enable()
