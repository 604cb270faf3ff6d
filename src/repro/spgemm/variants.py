"""Executable distributed SpGEMM algorithms on the simulated machine.

Every variant of §5.2 is implemented with *real block movement* — operands
are redistributed into the variant's native layouts, panels/pieces are
extracted, local products run through the vectorized kernel, and outputs are
reassembled — and every communication phase is a
:class:`~repro.machine.collectives.Group` call on the block it hands over:
``bcast`` along a grid row / column / fiber, ``sparse_reduce`` of the
partial products, ``DistMat.redistribute``'s all-to-all.  The group sizes
the payload, charges the ledger with the collective constants the analysis
uses, and returns what the receivers hold (through the fault plan's
delivery hook), which is what the local products then consume.

A piece or partial with no nonzeros is not sent — no collective, no
latency — in the 2D and 3D variants; the 1D variants always run their one
replication / reduction, even on an empty operand (a convention as old as
the variants, pinned by the golden ledger in
``tests/test_spgemm_variants.py``).

Layout conventions (C = A •⟨⊕,f⟩ B, A is m×k, B is k×n):

* 2D variants run on a ``pr × pc`` rank grid with ``L = lcm(pr, pc)``
  broadcast/reduction steps (CTF's step count):
  - **AB**: A blocked (m~pr, k~pc), B blocked (k~pr, n~pc), C stationary;
    per step the A piece broadcasts along its grid row and the B piece
    along its grid column.
  - **AC**: B stationary (k~pr, n~pc); A lives transposed-blocked
    (m~pc, k~pr) so each piece broadcast runs along a grid row; partial C
    chunks are sparse-reduced along grid columns.
  - **BC**: A stationary (m~pr, k~pc); B lives transposed-blocked
    (k~pc, n~pr); B pieces broadcast along grid columns; partial C chunks
    are sparse-reduced along grid rows.
* 1D variants degenerate: **A**/**B** replicate one operand with a single
  broadcast-class collective and block the others 1-dimensionally; **C**
  forms full-size local partials and sparse-reduces them.
* 3D variants nest: the 1D variant ``X`` runs over ``p1`` layers (replicating
  X or splitting/reducing), each layer running the 2D variant on its
  ``p2 × p3`` sub-grid.

Every local step — the ``p`` products of a 1D variant, the live grid
cells of a 2D step — is one kernel call (:func:`_step_product`): the
step's left operands stacked by rows against the block diagonal of its
right operands, each rank charged its own rows' ops.  1D-B's packed
strips against the replicated B already are that stack.

A replicated operand the engine pinned (MFBC's adjacency or its transpose)
keeps its replicas in its own memo (``DistMat._replicas``), so they are
charged once and reused by every later product — the amortization the
proof of Theorem 5.1 relies on.  The block diagonal of a stationary B
made from them is kept there too.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from repro.algebra.fields import concat_fields
from repro.algebra.matmul import MatMulSpec
from repro.dist.distmat import DistMat, Layout, axis_block, even_splits
from repro.machine.machine import Machine
from repro.obs import api as obs
# ``spgemm`` is not called here (local products go through
# machine.executor), but benchmarks/e2e/tracing.py patches the kernel under
# this module's name
from repro.sparse.spgemm import DEFAULT_CHUNK, _chunk_bounds, spgemm  # noqa: F401
from repro.sparse.spmatrix import SpMat
from repro.spgemm.plan import Plan

__all__ = ["execute_plan"]


def execute_plan(
    plan: Plan,
    a: DistMat,
    b: DistMat,
    spec: MatMulSpec,
    *,
    mask: DistMat | None = None,
) -> tuple[DistMat, int]:
    """Run ``C = A •⟨⊕,f⟩ B`` under ``plan``; return C and the op count.

    The operands may rest on any layout: each is re-blocked onto the
    plan's layout only where it is not already there.  C is returned where
    the plan computed it — the 1D strips, the 2D grid, or the 3D layers
    stacked along the dimension they split — so the next product or
    elementwise operation moves it only if it needs another blocking
    (layout persistence, §7.4).

    ``mask`` is an optional structural output mask with C's shape, read
    where it rests, on any layout; ``spec`` says how it decides.  Each
    variant reads the exact sub-mask covering every local product's output
    frame from the mask's own tiles
    (:meth:`DistMat.region`: a frame that is a tile is a view of that
    tile), uncharged — the sub-mask is consumed by the rank that assembles
    the matching C frame, the stationary-mask convention of GraphBLAS
    runtimes.  Masked results — and masked ``ops`` totals, because
    the join pairs are partitioned disjointly and each pair's survival is
    decided by the same mask — are identical across all plans.
    """
    machine = a.machine
    if plan.p != machine.p:
        raise ValueError(f"plan {plan} does not cover machine p={machine.p}")
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimension mismatch: {a.shape} × {b.shape}")
    if mask is not None and mask.shape != (a.nrows, b.ncols):
        raise ValueError(
            f"mask shape {mask.shape} != output shape {(a.nrows, b.ncols)}"
        )
    if mask is not None:
        mask = mask.region
    kind = plan.kind
    if kind == "1d":
        c, ops = _exec_1d(plan.x, machine, a, b, spec, mask)
    elif kind == "2d":
        ranks2d = np.arange(machine.p).reshape(plan.p2, plan.p3)
        c, ops = _exec_2d(
            plan.yz, ranks2d, machine, a, b, spec, mask,
            memo=(b, ("diag", plan.p2, plan.p3)),
        )
    else:
        ranks3d = np.arange(machine.p).reshape(plan.p1, plan.p2, plan.p3)
        c, ops = _exec_3d(plan.x, plan.yz, ranks3d, machine, a, b, spec, mask)
    return c, ops


# ---------------------------------------------------------------------------
# local helpers
# ---------------------------------------------------------------------------


class _Diag(NamedTuple):
    """Matrices on the diagonal of one: operand ``k`` holds rows
    ``[rows[k], rows[k + 1])`` and columns ``[cols[k], cols[k + 1])``."""

    mat: SpMat
    rows: np.ndarray
    cols: np.ndarray


def _placed(nrows: int, ncols: int, mats, roffs, coffs) -> SpMat:
    """``mats[t]`` placed at row ``roffs[t]`` and column ``coffs[t]`` of one
    ``nrows × ncols`` frame.  Each one's rows lie below the one before's,
    so the concatenated entries are in row-major order: canonical as
    placed."""
    return SpMat(
        nrows,
        ncols,
        np.concatenate([m.rows + r for m, r in zip(mats, roffs)]),
        np.concatenate([m.cols + c for m, c in zip(mats, coffs)]),
        concat_fields([m.vals for m in mats]),
        mats[0].monoid,
        canonical=True,
    )


def _block_diag(mats: list[SpMat]) -> _Diag:
    """``mats`` on the diagonal of one matrix, in order."""
    rows = np.zeros(len(mats) + 1, dtype=np.int64)
    cols = np.zeros(len(mats) + 1, dtype=np.int64)
    np.cumsum([m.nrows for m in mats], out=rows[1:])
    np.cumsum([m.ncols for m in mats], out=cols[1:])
    return _Diag(_placed(int(rows[-1]), int(cols[-1]), mats, rows, cols), rows, cols)


def _task_products(
    machine: Machine,
    tasks: list[tuple[int, SpMat, "SpMat | int"]],
    spec,
    *,
    masks: list[SpMat] | None = None,
    diag: _Diag | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[list[SpMat], int]:
    """Independent local products ``[(rank, x, y), ...]`` as one plan step;
    returns the products in task order and the total elementary operations.

    The ``x`` are stacked by rows against the block diagonal of the distinct
    ``y`` (``y`` is an operand index of ``diag`` when the caller passes that
    diagonal), ``masks[t]`` — task ``t``'s structural output mask, already
    sliced to its output frame — is placed over task ``t``'s frame, and
    :func:`_step_product` runs them.  Each product is a view of the step's
    result in its task's own frame.  On real hardware the per-rank kernels
    between two collectives run concurrently; the ledger charges them in
    task order.
    """
    ranks = [rank for rank, _, _ in tasks]
    if not tasks:
        # a step no rank works in still issues its (empty) charge, as every step does
        machine.charge_compute(ranks, [])
        return [], 0
    if diag is None:
        distinct = {id(y): y for _, _, y in tasks}
        index = {key: k for k, key in enumerate(distinct)}
        which = [index[id(y)] for _, _, y in tasks]
        diag = _block_diag(list(distinct.values()))
    else:
        which = [y for _, _, y in tasks]
    xs = [x for _, x, _ in tasks]
    cuts = np.zeros(len(xs) + 1, dtype=np.int64)
    np.cumsum([x.nrows for x in xs], out=cuts[1:])
    inner, outer = diag.rows[which], diag.cols[which]
    widths = (diag.cols[1:] - diag.cols[:-1])[which]
    left = _placed(int(cuts[-1]), diag.mat.nrows, xs, cuts, inner)
    frame = None
    if masks is not None:
        frame = _placed(int(cuts[-1]), diag.mat.ncols, masks, cuts, outer)
    calls, ops = _step_product(machine, ranks, left, cuts, diag.mat, spec, frame, chunk)
    prods = []
    for lo, hi, prod in calls:
        at = np.searchsorted(prod.rows, cuts[lo : hi + 1]).tolist()
        for t in range(lo, hi):
            a, b = at[t - lo], at[t - lo + 1]
            prods.append(
                SpMat(
                    xs[t].nrows,
                    int(widths[t]),
                    prod.rows[a:b] - cuts[t],
                    prod.cols[a:b] - outer[t],
                    {name: col[a:b] for name, col in prod.vals.items()},
                    prod.monoid,
                    canonical=True,
                )
            )
    return prods, int(ops.sum())


def _step_product(
    machine: Machine,
    ranks,
    left: SpMat,
    cuts: np.ndarray,
    right: SpMat,
    spec,
    mask: SpMat | None,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[list[tuple[int, int, SpMat]], np.ndarray]:
    """One plan step's local products as one kernel call, ``left • right``.

    Task ``t`` owns rows ``[cuts[t], cuts[t + 1])`` of the stacked ``left``
    and runs on ``ranks[t]``; ``right`` is the block diagonal of the step's
    right operands and ``mask`` the tasks' masks placed in the same frame
    (:func:`_task_products` builds the three; a 1D-B step's packed strips
    against the whole B already are them).  A task's rows join only its own
    diagonal block, so its products land in its own frame, and the kernel
    reduces every row on its own: the rows of the one call are the tasks'
    products bit for bit — provided no task is cut at a different join
    chunk than it would be alone.  A stacked join above the kernel's
    ``chunk`` (the one the executor's products run with) is therefore cut
    only at task boundaries, by the kernel's own rule
    (:func:`~repro.sparse.spgemm._chunk_bounds` over the per-task joins):
    consecutive tasks share a call while their joins fit one chunk, and a
    task above it runs alone.  Rank ``ranks[t]``
    is charged the ops of task ``t``'s rows, in task order, in one
    ``charge_compute``.

    Returns each call's product with the task range ``[lo, hi)`` it holds,
    and the per-task ops.
    """
    ends = np.searchsorted(left.rows, cuts)
    ptr = right.row_pointer()
    joined = np.zeros(left.nnz + 1, dtype=np.int64)
    np.cumsum(ptr[left.cols + 1] - ptr[left.cols], out=joined[1:])
    groups = _chunk_bounds(np.diff(joined[ends]), chunk)
    pieces = [
        left if len(groups) == 1 else _entries(left, int(ends[lo]), int(ends[hi]))
        for lo, hi in groups
    ]
    results = machine.executor.run_spgemm(
        [(piece, right) for piece in pieces],
        spec,
        masks=None if mask is None else [mask] * len(pieces),
    )
    upto = np.zeros(left.nrows + 1, dtype=np.int64)
    np.cumsum(sum(res.row_ops for res in results), out=upto[1:])
    ops = np.diff(upto[cuts])
    machine.charge_compute(ranks, ops)
    return [(lo, hi, res.matrix) for (lo, hi), res in zip(groups, results)], ops


def _entries(mat: SpMat, lo: int, hi: int) -> SpMat:
    """``mat``'s entries ``[lo, hi)`` in ``mat``'s frame (a contiguous run
    of a canonical matrix is canonical)."""
    return SpMat(
        mat.nrows,
        mat.ncols,
        mat.rows[lo:hi],
        mat.cols[lo:hi],
        {name: col[lo:hi] for name, col in mat.vals.items()},
        mat.monoid,
        canonical=True,
    )


#: ``read(r0, r1, c0, c1)``: a mask's sub-matrix over global rows
#: ``[r0, r1)`` and columns ``[c0, c1)`` of C, in that frame's coordinates
_Frames = Callable[[int, int, int, int], SpMat]


def _shifted(read: _Frames, axis: int, lo: int) -> _Frames:
    """``read`` for the part of C that starts at ``lo`` along ``axis``."""
    if axis == 0:
        return lambda r0, r1, c0, c1: read(r0 + lo, r1 + lo, c0, c1)
    return lambda r0, r1, c0, c1: read(r0, r1, c0 + lo, c1 + lo)


def _onto(mat: DistMat, ranks2d: np.ndarray) -> DistMat:
    """``mat`` blocked evenly on ``ranks2d`` (itself when it already is)."""
    return mat.redistribute(Layout.even(ranks2d, mat.nrows, mat.ncols))


def _embed(piece: SpMat, nrows: int, ncols: int, roff: int, coff: int) -> SpMat:
    """Place ``piece`` into an ``nrows × ncols`` frame at offset (roff, coff)."""
    return SpMat(
        nrows,
        ncols,
        piece.rows + roff,
        piece.cols + coff,
        piece.vals,
        piece.monoid,
        canonical=True,
    )


def _nonempty(mat: SpMat | None) -> SpMat | None:
    """A local product as a ``sparse_reduce`` part: ``None`` when the rank
    ran no product or it came out empty — an empty part is not sent, and a
    reduction nobody contributes to is not charged."""
    return mat if mat is not None and mat.nnz else None


def _memoized(mat: DistMat, key: tuple, build):
    """``build()``: made on every call, unless ``mat`` is pinned, whose
    replica memo makes it once."""
    memo = mat._replicas
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _replicated(mat: DistMat, key: tuple, build):
    """``mat``'s replicas made by ``build``: built and charged on every call,
    unless ``mat`` is pinned, whose memo builds them once."""
    outcome = None if mat._replicas is None else ("hit" if key in mat._replicas else "miss")
    out = _memoized(mat, key, build)
    if outcome is not None and obs.enabled():
        obs.count("spgemm.replicas", 1.0, outcome=outcome)
        obs.set_attr(replicas=outcome)
    return out


# ---------------------------------------------------------------------------
# the algorithm space, written once: a variant names the matrices that move
# ---------------------------------------------------------------------------

#: C[m,n] = A[m,k] • B[k,n]: the dimensions each matrix spans, rows first.
#: Every layout, output frame, mask slice, piece offset and reduction root
#: below is read from this table and three facts of §5.2:
#: (i)   a level that moves X splits the other two matrices along the one
#:       dimension X does not span (n for A, m for B, k for C);
#: (ii)  on a ``pr × pc`` grid the stationary matrix S — the one YZ does not
#:       name — has its row dimension blocked over grid rows and its column
#:       dimension over grid columns; the ``lcm(pr, pc)`` steps walk the
#:       dimension S does not span; the mover sharing S's row dimension
#:       travels along grid rows, the other along grid columns; an operand
#:       whose row dimension is blocked over grid *columns* rests on
#:       ``ranks2d.T``, so a piece always starts on the rank that roots it;
#: (iii) a mover is broadcast when it is an operand, sparse-reduced when C.
_DIMS = {"A": "mk", "B": "kn", "C": "mn"}


# ---------------------------------------------------------------------------
# 1D algorithms (§5.2.1)
# ---------------------------------------------------------------------------


def _exec_1d(
    x: str,
    machine: Machine,
    a: DistMat,
    b: DistMat,
    spec,
    mask: _Frames | None,
) -> tuple[DistMat, int]:
    p = machine.p
    world = machine.world()
    mats = {"A": a, "B": b}
    size = {"m": a.nrows, "k": a.ncols, "n": b.ncols}
    (d,) = set("mkn") - set(_DIMS[x])  # fact (i)

    def strips(name: str) -> np.ndarray:
        """The ``p × 1`` or ``1 × p`` grid that blocks ``name`` along ``d``."""
        return world.ranks.reshape((p, 1) if _DIMS[name][0] == d else (1, p))

    # X moves first: an operand's one broadcast precedes the other operand's
    # re-blocking (both span the world, so the ledger's max-merge cannot
    # tell, but the fault plan's step counter can); A before B otherwise.
    local = {}
    if x != "C":
        whole = _replicated(
            mats[x],
            ("1d" + x,),
            lambda: world.bcast(mats[x].gather(charge=False), category="replicate"),
        )
        local[x] = [whole] * p
    blocked = {name: _onto(mat, strips(name)) for name, mat in mats.items() if name != x}
    if x == "B":
        # A rests on p × 1 strips, C will too: A's packed strips already are
        # the stacked left operand (global coordinates), the whole B the
        # block diagonal of one, and the whole mask their frame
        grid = strips("C")
        strips_a = blocked["A"]
        calls, ops = _step_product(
            machine, grid[:, 0], strips_a.packed(), strips_a.layout.row_splits,
            whole, spec, None if mask is None else mask(0, size["m"], 0, size["n"]),
        )
        c = calls[0][2]
        if len(calls) > 1:
            parts = [(prod.rows, prod.cols, prod.vals) for _, _, prod in calls]
            c = SpMat._merged(size["m"], size["n"], parts, spec.monoid)
        layout = Layout.even(grid, size["m"], size["n"])
        return DistMat(machine, layout, c, spec.monoid), int(ops.sum())
    for name, dm in blocked.items():
        local[name] = [dm.block(i, j) for i, j in np.ndindex(*dm.grid_shape)]
    # each rank's output frame is its strip of C along d, so it sees the
    # matching slice of the mask.  When C is the mover every rank forms a
    # full-shape partial and masks with the full mask; the masked ops total
    # is still partition-invariant because the k-slices partition the join
    # pairs disjointly.
    masks = None
    if mask is not None and x == "C":
        masks = [mask(0, size["m"], 0, size["n"])] * p
    elif mask is not None:  # x is A, so d is n: C's column strips
        cuts = even_splits(size["n"], p)
        masks = [mask(0, size["m"], int(cuts[r]), int(cuts[r + 1])) for r in range(p)]
    prods, total_ops = _task_products(
        machine,
        [(r, local["A"][r], local["B"][r]) for r in range(p)],
        spec,
        masks=masks,
    )
    if x == "C":
        total = world.sparse_reduce(prods, SpMat.combine)
        c = DistMat.distribute(total, machine, world.ranks.reshape(1, p), charge=True)
        return c, total_ops
    grid = strips("C")
    pr, pc = grid.shape
    blocks = [prods[i * pc : (i + 1) * pc] for i in range(pr)]
    c = DistMat(machine, Layout.even(grid, size["m"], size["n"]), blocks, spec.monoid)
    return c, total_ops


# ---------------------------------------------------------------------------
# 2D algorithms (§5.2.2)
# ---------------------------------------------------------------------------


def _exec_2d(
    yz: str,
    ranks2d: np.ndarray,
    machine: Machine,
    a: DistMat,
    b: DistMat,
    spec,
    mask: _Frames | None = None,
    memo: tuple[DistMat, tuple] | None = None,
) -> tuple[DistMat, int]:
    """The 2D variant ``yz`` on ``ranks2d``.  ``mask`` reads the sub-mask
    of a frame of this C.  ``memo = (owner, key)`` is where a stationary B
    that rests as ``b`` keeps its block diagonal: ``owner``'s replica memo,
    so a pinned loop invariant (or a replica of one) builds it once."""
    pr, pc = ranks2d.shape
    mats = {"A": a, "B": b}
    size = {"m": a.nrows, "k": a.ncols, "n": b.ncols}
    monoid = spec.monoid
    lcm = math.lcm(pr, pc)
    total_ops = 0
    row_groups = [machine.group(ranks2d[i, :]) for i in range(pr)]
    col_groups = [machine.group(ranks2d[:, j]) for j in range(pc)]

    # -- fact (ii): who is stationary, what the steps walk, who rests where
    (s,) = set("ABC") - set(yz)
    sr, sc = _DIMS[s]
    (w,) = set("mkn") - {sr, sc}

    @functools.cache
    def cut(dim: str, parts: int) -> np.ndarray:
        """Boundaries of dimension ``dim`` blocked evenly ``parts`` ways."""
        return even_splits(size[dim], parts)

    steps = cut(w, lcm)

    def axis_of(name: str, dim: str) -> int:
        """The grid axis (0: over grid rows, 1: over grid columns) that
        dimension ``dim`` of matrix ``name`` is blocked over."""
        if dim == w:
            # the mover sharing S's row dimension travels along grid rows,
            # so its walked dimension is blocked over grid columns
            return 1 if sr in _DIMS[name] else 0
        return 0 if dim == sr else 1

    def cell(axis: int, line: int, pos: int) -> tuple[int, int]:
        """Grid coordinates of position ``pos`` on line ``line`` along ``axis``."""
        return (line, pos) if axis else (pos, line)

    #: an operand whose row dimension is blocked over grid columns rests on
    #: the transposed grid
    flipped = {name: axis_of(name, _DIMS[name][0]) for name in mats}
    # the stationary operand is re-blocked (evenly) first, A before B otherwise
    rest = {
        name: _onto(mats[name], ranks2d.T if flipped[name] else ranks2d)
        for name in sorted(mats, key=lambda name: name != s)
    }

    def reader(dm: DistMat, flip: int):
        """Block ``(i, j)`` of ``dm`` as it rests on ``ranks2d[i, j]``.  A
        flipped operand's blocks are read here, column by column; any other
        operand's when a step reads them (the order decides when a spilled
        block faults in)."""
        if not flip:
            return dm.block
        pr_t, pc_t = dm.grid_shape
        cols = [[dm.block(i, j) for i in range(pr_t)] for j in range(pc_t)]
        return lambda i, j: cols[i][j]

    #: resting[name](i, j): the block of operand ``name`` on ``ranks2d[i, j]``
    resting = {name: reader(dm, flipped[name]) for name, dm in rest.items()}

    #: the grid axis each mover travels along: the one its walked dimension
    #: is blocked over
    along = {name: axis_of(name, w) for name in yz}

    def route(name: str, t: int):
        """Mover ``name`` at step ``t``: the grid axis it travels along, the
        groups that are its lines, the position on every line that roots
        the chunk, and the chunk's offset inside the root's block."""
        axis = along[name]
        lines = (col_groups, row_groups)[axis]
        root = t // (lcm // lines[0].size)
        return axis, lines, root, int(steps[t] - cut(w, lines[0].size)[root])

    # C always rests on ranks2d: its row dimension m is S's row dimension or
    # the walked one, blocked over grid rows either way
    c_layout = Layout.even(ranks2d, size["m"], size["n"])
    c_rows, c_cols = c_layout.row_splits, c_layout.col_splits
    c_blocks = [[SpMat.empty(*shape, monoid) for shape in row] for row in c_layout.block_shapes]
    # a step's products are independent across the grid: they are batched
    # through the executor in the order of the lines C is reduced along
    # (grid rows when C is stationary); lines touch disjoint rank sets, so
    # batching ahead of the per-line reductions leaves the ledger
    # bit-identical
    c_axis = along.get("C", 1)
    order = sorted(np.ndindex(pr, pc), key=lambda ij: ij[1 - c_axis])
    # a product's output frame is C's stripe or step chunk along each of its
    # dimensions; the sub-mask of each distinct frame is read once (for a
    # stationary C the frames are loop-invariant: C's own tiles)
    frames: dict[tuple[int, ...], SpMat] = {}

    def frame_mask(i: int, j: int, t: int) -> SpMat:
        spans = {"m": c_rows[i : i + 2], "n": c_cols[j : j + 2], w: steps[t : t + 2]}
        key = (*spans["m"].tolist(), *spans["n"].tolist())
        if key not in frames:
            frames[key] = mask(*key)
        return frames[key]

    pieces: dict[str, list[SpMat]] = {}

    def operand(name: str, i: int, j: int) -> SpMat:
        """What ``ranks2d[i, j]`` multiplies: its resting block of the
        stationary operand, its line's piece of a moving one."""
        if name == s:
            return resting[name](i, j)
        return pieces[name][(j, i)[along[name]]]

    def stationary_diag(held) -> _Diag:
        """A stationary B's blocks, as a step read them, on the one block
        diagonal every step multiplies against; kept with the replicas of
        the loop invariant B is, if any (``memo``)."""

        def build() -> _Diag:
            return _block_diag([held[ij][1] for ij in np.ndindex(pr, pc)])

        if memo is None or rest["B"] is not mats["B"]:
            return build()
        return _memoized(*memo, build)

    diag = None
    for t in range(lcm):
        width = int(steps[t + 1] - steps[t])
        # fact (iii), operands: A's pieces, then B's, each broadcast along
        # its line from the rank it rests on (an empty piece is not sent)
        for name in yz:
            if name == "C":
                continue
            axis, lines, root, lo = route(name, t)
            pieces[name] = []
            for line, group in enumerate(lines):
                i, j = cell(axis, line, root)
                piece = axis_block(
                    resting[name](i, j), _DIMS[name].index(w), lo, lo + width
                )
                if piece.nnz:
                    piece = group.bcast(piece, root=root)
                pieces[name].append(piece)
        held = {(i, j): (operand("A", i, j), operand("B", i, j)) for i, j in order}
        live = [ij for ij, (x, y) in held.items() if x.nnz and y.nnz]
        tasks = [(int(ranks2d[ij]), *held[ij]) for ij in live]
        if s == "B":
            # cell (i, j) multiplies operand i·pc + j of the stationary diagonal
            if diag is None:
                diag = stationary_diag(held)
            tasks = [(rank, x, i * pc + j) for (rank, x, _), (i, j) in zip(tasks, live)]
        prods, ops = _task_products(
            machine,
            tasks,
            spec,
            masks=None if mask is None else [frame_mask(*ij, t) for ij in live],
            diag=diag,
        )
        total_ops += ops
        outs = dict(zip(live, prods))
        if "C" not in yz:
            # stationary C: every step's (i, j) product lands on its block
            for (i, j), prod in outs.items():
                if prod.nnz:
                    c_blocks[i][j] = c_blocks[i][j].combine(prod)
            continue
        # fact (iii), C: each line's partial chunks are sparse-reduced onto
        # the rank whose C block holds the chunk, and placed there
        axis, lines, root, lo = route("C", t)
        offset = [0, 0]
        offset[_DIMS["C"].index(w)] = lo
        for line, group in enumerate(lines):
            partial = group.sparse_reduce(
                [_nonempty(outs.get(cell(axis, line, pos))) for pos in range(group.size)],
                SpMat.combine,
                root=root,
            )
            if partial is not None:
                i, j = cell(axis, line, root)
                home = c_blocks[i][j]
                placed = _embed(partial, home.nrows, home.ncols, *offset)
                c_blocks[i][j] = home.combine(placed)
    return DistMat(machine, c_layout, c_blocks, monoid), total_ops


# ---------------------------------------------------------------------------
# 3D algorithms (§5.2.3): 1D variant X over p1 nesting 2D variant YZ
# ---------------------------------------------------------------------------


def _exec_3d(
    x: str,
    yz: str,
    ranks3d: np.ndarray,
    machine: Machine,
    a: DistMat,
    b: DistMat,
    spec,
    mask: _Frames | None,
) -> tuple[DistMat, int]:
    p1, p2, p3 = ranks3d.shape
    mats = {"A": a, "B": b}
    size = {"m": a.nrows, "k": a.ncols, "n": b.ncols}
    monoid = spec.monoid
    layers = [ranks3d[l] for l in range(p1)]
    total_ops = 0
    (d,) = set("mkn") - set(_DIMS[x])  # fact (i): layer l owns cuts[l:l+2] of d
    cuts = even_splits(size[d], p1)

    def replicate() -> list[DistMat]:
        """One copy of operand X per layer; broadcast charged once per fiber."""
        ref = _onto(mats[x], layers[0])

        def fiber(i: int, j: int) -> SpMat:
            """Block ``(i, j)``, read just before it travels to the p1 ranks
            {ranks3d[:, i, j]} — the W_X(X[p2, p3]) term."""
            blk = ref.block(i, j)
            if not blk.nnz:
                return blk
            return machine.group(ranks3d[:, i, j]).bcast(blk, category="replicate")

        blocks = [[fiber(i, j) for j in range(p3)] for i in range(p2)]
        splits = ref.layout.row_splits, ref.layout.col_splits
        return [ref] + [
            DistMat(machine, Layout(layers[l], *splits), [list(row) for row in blocks], ref.monoid)
            for l in range(1, p1)
        ]

    # X moves first when it is an operand; per layer A before B
    if x != "C":
        copies = _replicated(mats[x], ("3d" + x, p1, p2, p3), replicate)
    layer_mats: dict[str, DistMat] = {}
    outs = []
    for l in range(p1):
        lo, hi = int(cuts[l]), int(cuts[l + 1])
        for name, mat in mats.items():
            if name == x:
                layer_mats[name] = copies[l]
            else:
                extract = (mat.extract_row_range, mat.extract_col_range)
                layer_mats[name] = _onto(extract[_DIMS[name].index(d)](lo, hi), layers[l])
        # layer l owns C's range [lo, hi) along d: its frames start there.
        # When C is the mover every layer's partial spans all of C.
        mask_l = mask
        if mask is not None and x != "C":
            mask_l = _shifted(mask, _DIMS["C"].index(d), lo)
        c_l, ops = _exec_2d(
            yz, layers[l], machine, layer_mats["A"], layer_mats["B"], spec, mask_l,
            memo=(b, ("diag", "3dB", p1, p2, p3, l)) if x == "B" else None,
        )
        total_ops += ops
        outs.append(c_l)
    if x != "C":
        return _stack(outs, _DIMS["C"].index(d), cuts), total_ops
    # reduce across layers, block position by block position (fiber groups)
    base = outs[0]
    out_blocks = []
    for i in range(p2):
        row = []
        for j in range(p3):
            acc = machine.group(ranks3d[:, i, j]).sparse_reduce(
                [_nonempty(c_l.block(i, j)) for c_l in outs],
                SpMat.combine,
            )
            row.append(base.block(i, j) if acc is None else acc)
        out_blocks.append(row)
    return DistMat(machine, base.layout, out_blocks, monoid), total_ops


def _stack(outs: list[DistMat], axis: int, cuts: np.ndarray) -> DistMat:
    """The layer outputs ``outs`` as one matrix: layer ``l`` holds C's range
    ``[cuts[l], cuts[l + 1])`` along ``axis`` on its own sub-grid.

    Pure relabelling: the layer grids are concatenated along ``axis`` and
    their splits there offset by ``cuts[l]``; every block stays on the rank
    that computed it, so nothing moves and nothing is charged.
    """
    layouts = [c_l.layout for c_l in outs]
    splits = [layouts[0].row_splits, layouts[0].col_splits]
    splits[axis] = np.concatenate(
        [(lay.row_splits, lay.col_splits)[axis][:-1] + lo for lay, lo in zip(layouts, cuts)]
        + [cuts[-1:]]
    )
    ranks2d = np.concatenate([lay.ranks2d for lay in layouts], axis=axis)
    if axis == 0:
        blocks = [
            [c_l.block(i, j) for j in range(ranks2d.shape[1])]
            for c_l in outs
            for i in range(c_l.grid_shape[0])
        ]
    else:
        blocks = [
            [c_l.block(i, j) for c_l in outs for j in range(c_l.grid_shape[1])]
            for i in range(ranks2d.shape[0])
        ]
    layout = Layout(ranks2d, *splits)
    return DistMat(outs[0].machine, layout, blocks, outs[0].monoid)
