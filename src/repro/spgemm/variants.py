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
* 3D variants run the 2D variant ``YZ`` on each ``p2 × p3`` layer of a
  ``p1 × p2 × p3`` rank array, the layers splitting the two matrices
  other than ``X`` along the dimension X does not span.  An operand X
  rests once on layer 0 and is broadcast along the fibers; the other
  operands move in one re-blocking onto the layer grids stacked along
  that dimension; a moving C is reduced along the fibers.  The layers
  take each step together (:func:`_exec_grid`), and a 2D plan is the
  one-layer case.

Every local step — the ``p`` products of a 1D variant, the live grid
cells of every layer's 2D step — is one kernel call
(:func:`_step_product`): the step's left operands stacked by rows against
the block diagonal of its distinct right operands, each rank charged its
own rows' ops.  1D-B's packed strips against the replicated B already are
that stack.

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
from repro.sparse.spgemm import spgemm  # noqa: F401
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
    if plan.kind == "1d":
        return _exec_1d(plan.x, machine, a, b, spec, mask)
    return _exec_grid(plan, machine, a, b, spec, mask)


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
    prod, ops = _step_product(machine, ranks, left, cuts, diag.mat, spec, frame)
    at = np.searchsorted(prod.rows, cuts).tolist()
    prods = [
        SpMat(
            x.nrows,
            int(widths[t]),
            prod.rows[at[t] : at[t + 1]] - cuts[t],
            prod.cols[at[t] : at[t + 1]] - outer[t],
            {name: col[at[t] : at[t + 1]] for name, col in prod.vals.items()},
            prod.monoid,
            canonical=True,
        )
        for t, x in enumerate(xs)
    ]
    return prods, int(ops.sum())


def _step_product(
    machine: Machine,
    ranks,
    left: SpMat,
    cuts: np.ndarray,
    right: SpMat,
    spec,
    mask: SpMat | None,
) -> tuple[SpMat, np.ndarray]:
    """One plan step's local products as one kernel call, ``left • right``.

    Task ``t`` owns rows ``[cuts[t], cuts[t + 1])`` of the stacked ``left``
    and runs on ``ranks[t]``; ``right`` is the block diagonal of the step's
    right operands and ``mask`` the tasks' masks placed in the same frame
    (:func:`_task_products` builds the three; a 1D-B step's packed strips
    against the whole B already are them).  A task's rows join only its own
    diagonal block, so its products land in its own frame, and the kernel
    reduces every row in one piece, whatever its join chunk: the rows of the
    one call are the tasks' products bit for bit.  Rank ``ranks[t]`` is
    charged the ops of task ``t``'s rows, in task order, in one
    ``charge_compute``.

    Returns the product and the per-task ops.
    """
    (res,) = machine.executor.run_spgemm(
        [(left, right)], spec, masks=None if mask is None else [mask]
    )
    upto = np.zeros(left.nrows + 1, dtype=np.int64)
    np.cumsum(res.row_ops, out=upto[1:])
    ops = np.diff(upto[cuts])
    machine.charge_compute(ranks, ops)
    return res.matrix, ops


#: ``read(r0, r1, c0, c1)``: a mask's sub-matrix over global rows
#: ``[r0, r1)`` and columns ``[c0, c1)`` of C, in that frame's coordinates
_Frames = Callable[[int, int, int, int], SpMat]


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
    if outcome is not None:
        obs.set_attr(replicas=outcome)
    return out


# ---------------------------------------------------------------------------
# the algorithm space, written once: a variant names the matrices that move
# ---------------------------------------------------------------------------

#: C[m,n] = A[m,k] • B[k,n]: the dimensions each matrix spans, rows first.
#: Every layout, output frame, mask slice, piece offset and reduction root
#: below is read from this table and three facts of §5.2:
#: (i)   a level that moves X splits the other two matrices along the one
#:       dimension X does not span (n for A, m for B, k for C): layer ``l``
#:       of ``p1`` owns the ``l``-th even range of it;
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
    blocked = {
        name: mat.redistribute(Layout.even(strips(name), *mat.shape))
        for name, mat in mats.items()
        if name != x
    }
    if x == "B":
        # A rests on p × 1 strips, C will too: A's packed strips already are
        # the stacked left operand (global coordinates), the whole B the
        # block diagonal of one, and the whole mask their frame
        grid = strips("C")
        strips_a = blocked["A"]
        c, ops = _step_product(
            machine, grid[:, 0], strips_a.packed(), strips_a.layout.row_splits,
            whole, spec, None if mask is None else mask(0, size["m"], 0, size["n"]),
        )
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
# 2D and 3D algorithms (§5.2.2, §5.2.3): the 2D variant YZ on p1 layers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _stacked(
    shape: tuple[int, int, int], flip: bool, axis: int, nrows: int, ncols: int
) -> Layout:
    """Where an ``nrows × ncols`` matrix rests on the layers of the ``p1 ×
    p2 × p3`` rank array ``arange(p).reshape(shape)``.

    Layer ``l``'s grid (``ranks3d[l]``, transposed when ``flip``) blocks the
    ``l``-th of ``p1`` even ranges along ``axis`` evenly, all of the other
    dimension; the layer grids are concatenated along ``axis``, each one's
    splits there offset by its range's start.  One layer is the plain even
    layout.  A value, as :meth:`Layout.even`'s is: its arrays are read-only.
    """
    grids = np.arange(math.prod(shape)).reshape(shape)
    if flip:
        grids = grids.transpose(0, 2, 1)
    if shape[0] == 1:
        return Layout.even(grids[0], nrows, ncols)
    extent = (nrows, ncols)
    cuts = even_splits(extent[axis], shape[0])
    splits = [even_splits(extent[1 - axis], grids.shape[2 - axis])] * 2
    splits[axis] = np.concatenate(
        [even_splits(int(hi - lo), grids.shape[1 + axis])[:-1] + lo
         for lo, hi in zip(cuts[:-1], cuts[1:])] + [cuts[-1:]]
    )
    layout = Layout(np.concatenate(list(grids), axis=axis), *splits)
    for arr in (layout.ranks2d, layout.row_splits, layout.col_splits, layout.offsets):
        arr.flags.writeable = False
    return layout


def _exec_grid(
    plan: Plan,
    machine: Machine,
    a: DistMat,
    b: DistMat,
    spec,
    mask: _Frames | None,
) -> tuple[DistMat, int]:
    """The 2D variant ``plan.yz`` on each ``p2 × p3`` layer of the plan's
    ``p1 × p2 × p3`` rank array, every layer taking step ``t`` together.
    ``mask`` reads the sub-mask of a frame of C.  A 2D plan is the one-layer
    case: nothing is replicated or reduced across layers."""
    p1, pr, pc = plan.p1, plan.p2, plan.p3
    ranks3d = np.arange(machine.p).reshape(p1, pr, pc)
    mats = {"A": a, "B": b}
    size = {"m": a.nrows, "k": a.ncols, "n": b.ncols}
    monoid = spec.monoid
    yz = plan.yz
    lcm = math.lcm(pr, pc)
    total_ops = 0

    # -- fact (i): layer l owns cuts[l : l + 2] of d
    x = plan.x if p1 > 1 else "C"
    (d,) = set("mkn") - set(_DIMS[x])
    cuts = even_splits(size[d], p1)

    # -- fact (ii): who is stationary, what the steps walk, who rests where
    (s,) = set("ABC") - set(yz)
    sr, sc = _DIMS[s]
    (w,) = set("mkn") - {sr, sc}

    @functools.cache
    def cut(l: int, dim: str, parts: int) -> np.ndarray:
        """Boundaries of layer ``l``'s range of ``dim`` blocked evenly ``parts`` ways."""
        return even_splits(int(cuts[l + 1] - cuts[l]) if dim == d else size[dim], parts)

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
    #: the transposed layer grids
    flipped = {name: axis_of(name, _DIMS[name][0]) for name in mats}

    def replicate() -> list[DistMat]:
        """One copy of operand X per layer, resting as the layers read it: X
        re-blocked onto layer 0's resting grid, then each block broadcast to
        the p1 ranks of its fiber — the W_X(X[p2, p3]) term."""
        grids = ranks3d.transpose(0, 2, 1) if flipped[x] else ranks3d
        layout = Layout.even(grids[0], *mats[x].shape)
        # a pinned X rests on every rank, so layer 0's copy is never X
        # itself: X's memo never holds X (no reference cycle)
        ref = mats[x].redistribute(layout)

        def fiber(i: int, j: int) -> SpMat:
            blk = ref.block(i, j)
            if not blk.nnz:
                return blk
            return machine.group(grids[:, i, j]).bcast(blk, category="replicate")

        blocks = [[fiber(i, j) for j in range(grids.shape[2])] for i in range(grids.shape[1])]
        splits = layout.row_splits, layout.col_splits
        return [ref] + [
            DistMat(machine, Layout(grids[l], *splits), blocks, ref.monoid) for l in range(1, p1)
        ]

    # fact (iii), operands: X moves first, resting once and broadcast along
    # its fibers; every other operand moves in one re-blocking onto the
    # layers stacked along d, the stationary one first, A before B otherwise
    rest: dict[str, "DistMat | list[DistMat]"] = {}
    if x != "C":
        # the memo key names X's resting form: "T" when it rests transposed
        key = ("3d" + x, p1, pr, pc) + ("T",) * flipped[x]
        rest[x] = _replicated(mats[x], key, replicate)
    for name in sorted(mats, key=lambda name: name != s):
        if name != x:
            axis = _DIMS[name].index(d)
            layout = _stacked((p1, pr, pc), flipped[name], axis, *mats[name].shape)
            rest[name] = mats[name].redistribute(layout)

    def reader(name: str):
        """``(l, i, j) ->`` the block of operand ``name`` on ``ranks3d[l, i, j]``,
        read when a step reads it (so a spilled block faults in then); a
        flipped operand's is block ``(j, i)`` of its transposed layer grid."""
        dm, flip = rest[name], flipped[name]
        qr, qc = (pc, pr) if flip else (pr, pc)
        if name == x:
            read = lambda l, i, j: dm[l].block(i, j)
        elif _DIMS[name].index(d):  # the layer grids side by side
            read = lambda l, i, j: dm.block(i, l * qc + j)
        else:  # the layer grids one below the other
            read = lambda l, i, j: dm.block(l * qr + i, j)
        return (lambda l, i, j: read(l, j, i)) if flip else read

    resting = {name: reader(name) for name in rest}

    #: the grid axis each mover travels along: the one its walked dimension
    #: is blocked over; its lines on layer l are lines[l][axis]
    along = {name: axis_of(name, w) for name in yz}
    lines = [
        ([machine.group(g[:, j]) for j in range(pc)], [machine.group(g[i, :]) for i in range(pr)])
        for g in ranks3d
    ]

    def route(l: int, name: str, t: int):
        """Mover ``name`` at layer ``l``'s step ``t``: the grid axis it
        travels along, the groups that are its lines, the position on every
        line that roots the chunk, and the chunk's offset inside the root's
        block and width."""
        axis = along[name]
        q = lines[l][axis][0].size
        root = t // (lcm // q)
        lo, hi = cut(l, w, lcm)[t : t + 2].tolist()
        return axis, lines[l][axis], root, lo - int(cut(l, w, q)[root]), hi - lo

    # C rests on each layer's grid: its row dimension m is S's row dimension
    # or the walked one, blocked over grid rows either way
    c_blocks = [
        [
            [SpMat.empty(h, width, monoid) for width in np.diff(cut(l, "n", pc)).tolist()]
            for h in np.diff(cut(l, "m", pr)).tolist()
        ]
        for l in range(p1)
    ]
    # a step's products are independent across the grid and the layers:
    # they are batched through the executor layer by layer, each in the
    # order of the lines C is reduced along (grid rows when C is
    # stationary); lines touch disjoint rank sets, so batching ahead of the
    # per-line reductions leaves each layer's ledger as it was alone
    c_axis = along.get("C", 1)
    order = sorted(np.ndindex(pr, pc), key=lambda ij: ij[1 - c_axis])
    # a product's output frame is C's stripe or step chunk along each of its
    # dimensions, offset by its layer's range of d; the sub-mask of each
    # distinct frame is read once (for a stationary C the frames are
    # loop-invariant: C's own tiles)
    frames: dict[tuple[int, ...], SpMat] = {}

    def frame_mask(l: int, i: int, j: int, t: int) -> SpMat:
        spans = {"m": cut(l, "m", pr)[i : i + 2], "n": cut(l, "n", pc)[j : j + 2]}
        spans[w] = cut(l, w, lcm)[t : t + 2]
        if d in spans:
            spans[d] = spans[d] + cuts[l]
        key = (*spans["m"].tolist(), *spans["n"].tolist())
        if key not in frames:
            frames[key] = mask(*key)
        return frames[key]

    pieces: dict[tuple[int, str], list[SpMat]] = {}

    def operand(l: int, name: str, i: int, j: int) -> SpMat:
        """What ``ranks3d[l, i, j]`` multiplies: its resting block of the
        stationary operand, its line's piece of a moving one."""
        if name == s:
            return resting[name](l, i, j)
        return pieces[l, name][(j, i)[along[name]]]

    def stationary_diag(held) -> tuple[_Diag, dict]:
        """A stationary B's blocks, as the first step read them, on the one
        block diagonal every step multiplies against — one operand per
        distinct block object, so layers holding one replica share it — and
        the operand each cell multiplies.  Kept with B's replicas when B
        rests as the pinned loop invariant or its replicas; a B re-blocked
        by this product arrived anew, possibly corrupted by a fault."""
        cells = list(np.ndindex(p1, pr, pc))

        def build():
            distinct = {id(held[c][1]): held[c][1] for c in cells}
            index = {key: k for k, key in enumerate(distinct)}
            which = {c: index[id(held[c][1])] for c in cells}
            return _block_diag(list(distinct.values())), which

        if x != "B" and rest["B"] is not b:
            return build()
        return _memoized(b, ("diag", plan), build)

    diag = which = None
    for t in range(lcm):
        held = {}
        for l in range(p1):
            # fact (iii), movers: A's pieces, then B's, each broadcast along
            # its line from the rank it rests on (an empty piece is not sent)
            for name in yz.replace("C", ""):
                axis, line_groups, root, lo, width = route(l, name, t)
                pieces[l, name] = []
                for line, group in enumerate(line_groups):
                    piece = axis_block(
                        resting[name](l, *cell(axis, line, root)),
                        _DIMS[name].index(w),
                        lo,
                        lo + width,
                    )
                    if piece.nnz:
                        piece = group.bcast(piece, root=root)
                    pieces[l, name].append(piece)
            for i, j in order:
                held[l, i, j] = (operand(l, "A", i, j), operand(l, "B", i, j))
        live = [c for c, (u, v) in held.items() if u.nnz and v.nnz]
        tasks = [(int(ranks3d[c]), *held[c]) for c in live]
        if s == "B":
            if diag is None:
                diag, which = stationary_diag(held)
            tasks = [(rank, u, which[c]) for (rank, u, _), c in zip(tasks, live)]
        prods, ops = _task_products(
            machine,
            tasks,
            spec,
            masks=None if mask is None else [frame_mask(*c, t) for c in live],
            diag=diag,
        )
        total_ops += ops
        outs = dict(zip(live, prods))
        if "C" not in yz:
            # stationary C: every step's (l, i, j) product lands on its block
            for (l, i, j), prod in outs.items():
                if prod.nnz:
                    c_blocks[l][i][j] = c_blocks[l][i][j].combine(prod)
            continue
        # fact (iii), C: each line's partial chunks are sparse-reduced onto
        # the rank whose C block holds the chunk, and placed there
        for l in range(p1):
            axis, line_groups, root, lo, _ = route(l, "C", t)
            offset = [0, 0]
            offset[_DIMS["C"].index(w)] = lo
            for line, group in enumerate(line_groups):
                partial = group.sparse_reduce(
                    [_nonempty(outs.get((l, *cell(axis, line, pos)))) for pos in range(group.size)],
                    SpMat.combine,
                    root=root,
                )
                if partial is not None:
                    i, j = cell(axis, line, root)
                    home = c_blocks[l][i][j]
                    placed = _embed(partial, home.nrows, home.ncols, *offset)
                    c_blocks[l][i][j] = home.combine(placed)
    if x != "C":
        # C rests where its layers computed it, stacked along d: nothing moves
        axis = _DIMS["C"].index(d)
        layout = _stacked((p1, pr, pc), False, axis, size["m"], size["n"])
        if axis:
            blocks = [[blk for g in c_blocks for blk in g[i]] for i in range(pr)]
        else:
            blocks = [row for g in c_blocks for row in g]
        return DistMat(machine, layout, blocks, monoid), total_ops
    if p1 > 1:
        # a moving C: the layers' partials are reduced per fiber, in layer
        # order, onto layer 0
        for i, j in np.ndindex(pr, pc):
            acc = machine.group(ranks3d[:, i, j]).sparse_reduce(
                [_nonempty(g[i][j]) for g in c_blocks], SpMat.combine
            )
            if acc is not None:
                c_blocks[0][i][j] = acc
    layout = Layout.even(ranks3d[0], size["m"], size["n"])
    return DistMat(machine, layout, c_blocks[0], monoid), total_ops
