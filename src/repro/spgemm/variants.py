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
  forms full-size local partials and sparse-reduces them.  **B**'s ``p``
  strip products are one kernel call over A's packed strips, each rank
  charged its strip's rows' ops (:func:`_strip_product`).
* 3D variants nest: the 1D variant ``X`` runs over ``p1`` layers (replicating
  X or splitting/reducing), each layer running the 2D variant on its
  ``p2 × p3`` sub-grid.  Replication of a loop-invariant operand (MFBC's
  adjacency matrix) is cached and charged once — the amortization the proof
  of Theorem 5.1 relies on.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.algebra.matmul import MatMulSpec
from repro.dist.distmat import DistMat, Layout, axis_block, even_splits
from repro.machine.machine import Machine
from repro.obs import api as obs
# ``spgemm`` is not called here (local products go through
# machine.executor), but benchmarks/e2e/tracing.py patches the kernel under
# this module's name
from repro.sparse.spgemm import DEFAULT_CHUNK, spgemm  # noqa: F401
from repro.sparse.spmatrix import SpMat
from repro.spgemm.plan import Plan

__all__ = ["execute_plan"]


def execute_plan(
    plan: Plan,
    a: DistMat,
    b: DistMat,
    spec: MatMulSpec,
    *,
    mask: SpMat | None = None,
    mask_complement: bool = False,
    replication_cache: dict | None = None,
) -> tuple[DistMat, int]:
    """Run ``C = A •⟨⊕,f⟩ B`` under ``plan``; return C and the op count.

    The operands may rest on any layout: each is re-blocked onto the
    plan's layout only where it is not already there.  C is returned where
    the plan computed it — the 1D strips, the 2D grid, or the 3D layers
    stacked along the dimension they split — so the next product or
    elementwise operation moves it only if it needs another blocking
    (layout persistence, §7.4).

    ``mask`` is an optional node-local structural output mask with C's
    *global* shape (``mask_complement`` inverts its support).  Each variant
    slices the exact sub-mask covering every local product's output frame,
    so masked results — and masked ``ops`` totals, because the join pairs
    are partitioned disjointly and each pair's survival is decided by the
    same global mask — are identical across all plans.
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
    kind = plan.kind
    if kind == "1d":
        c, ops = _exec_1d(
            plan.x, machine, a, b, spec, mask, mask_complement, replication_cache
        )
    elif kind == "2d":
        ranks2d = np.arange(machine.p).reshape(plan.p2, plan.p3)
        c, ops = _exec_2d(plan.yz, ranks2d, machine, a, b, spec, mask, mask_complement)
    else:
        ranks3d = np.arange(machine.p).reshape(plan.p1, plan.p2, plan.p3)
        c, ops = _exec_3d(
            plan.x, plan.yz, ranks3d, machine, a, b, spec,
            mask, mask_complement, replication_cache,
        )
    return c, ops


# ---------------------------------------------------------------------------
# local helpers
# ---------------------------------------------------------------------------


def _local_mul_batch(
    machine: Machine,
    tasks: list[tuple[int, SpMat, SpMat]],
    spec,
    *,
    masks: list[SpMat | None] | None = None,
    mask_complement: bool = False,
) -> tuple[list[SpMat], int]:
    """Run independent local products ``[(rank, x, y), ...]``; returns the
    product matrices in task order and the total elementary operations.

    On real hardware the per-rank kernels between two collectives run
    concurrently; here the machine's executor runs them one after another
    in task order and the ledger charges follow in that same order.
    ``masks[i]`` is the structural output mask for task ``i`` (already
    sliced to the task's output frame).
    """
    results = machine.executor.run_spgemm(
        [(x, y) for _, x, y in tasks],
        spec,
        masks=masks,
        mask_complement=mask_complement,
    )
    for (rank, _, _), res in zip(tasks, results):
        machine.charge_compute([rank], float(res.ops))
    return [res.matrix for res in results], sum(res.ops for res in results)


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


def _replicate_cached(
    cache: dict | None,
    key,
    build,
):
    """Fetch a replicated operand from the cache or build-and-charge it."""
    if cache is not None and key in cache:
        if obs.enabled():
            obs.count("spgemm.replication_cache", 1.0, outcome="hit")
            obs.set_attr(replication_cache="hit")
        return cache[key]
    value = build()
    if cache is not None:
        cache[key] = value
        if obs.enabled():
            obs.count("spgemm.replication_cache", 1.0, outcome="miss")
            obs.set_attr(replication_cache="miss")
    return value


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
    mask: SpMat | None,
    mask_complement: bool,
    cache: dict | None,
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
        whole = _replicate_cached(
            cache,
            ("1d" + x, id(mats[x])),
            lambda: world.bcast(mats[x].gather(charge=False), category="replicate"),
        )
        local[x] = [whole] * p
    blocked = {name: _onto(mat, strips(name)) for name, mat in mats.items() if name != x}
    if x == "B":
        # A rests on p × 1 strips, C will too: one kernel call over A's
        # packed strips, with the node-local mask as passed
        grid = strips("C")
        c, total_ops = _strip_product(
            machine, blocked["A"], whole, spec, mask, mask_complement, grid[:, 0]
        )
        return DistMat(machine, Layout.even(grid, size["m"], size["n"]), c, spec.monoid), total_ops
    for name, dm in blocked.items():
        local[name] = [blk for row in dm.blocks for blk in row]
    # each rank's output frame is its strip of C along d, so it sees the
    # matching slice of the mask.  When C is the mover every rank forms a
    # full-shape partial and masks with the full mask; the masked ops total
    # is still partition-invariant because the k-slices partition the join
    # pairs disjointly.
    masks = None
    if mask is not None and x == "C":
        masks = [mask] * p
    elif mask is not None:
        cuts = even_splits(size[d], p)
        masks = [
            axis_block(mask, _DIMS["C"].index(d), int(cuts[r]), int(cuts[r + 1]))
            for r in range(p)
        ]
    prods, total_ops = _local_mul_batch(
        machine,
        [(r, local["A"][r], local["B"][r]) for r in range(p)],
        spec,
        masks=masks,
        mask_complement=mask_complement,
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


def _strip_product(
    machine: Machine,
    a: DistMat,
    b: SpMat,
    spec,
    mask: SpMat | None,
    mask_complement: bool,
    ranks: np.ndarray,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[SpMat, int]:
    """``A • B`` for ``A`` on ``p × 1`` row strips and ``B`` whole on every
    rank: the strips' local products as one kernel call over A's packed
    form (its global coordinates), masked by the global ``mask``.

    The kernel reduces every row on its own, so the rows of the one call are
    the strips' rows bit for bit — provided no strip is cut at a different
    join chunk than it would be alone.  A packed join above the kernel's
    chunk is therefore cut only at strip boundaries: consecutive strips
    share a call while their joins fit one chunk, and a strip above it runs
    alone (``chunk`` is the one the executor's products run with).  Rank
    ``ranks[r]`` is charged the ops of strip ``r``'s rows, in strip order.
    Returns C (global coordinates) and the total ops.
    """
    packed = a.packed()
    cuts = a.layout.row_splits
    ends = np.searchsorted(packed.rows, cuts)
    calls = [(0, len(cuts) - 1)]
    ptr = b.row_pointer()
    joined = np.zeros(packed.nnz + 1, dtype=np.int64)
    np.cumsum(ptr[packed.cols + 1] - ptr[packed.cols], out=joined[1:])
    if joined[-1] > chunk:
        per_strip = np.diff(joined[ends]).tolist()
        calls, lo, size = [], 0, 0
        for r, join in enumerate(per_strip):
            if r > lo and size + join > chunk:
                calls.append((lo, r))
                lo, size = r, 0
            size += join
        calls.append((lo, len(per_strip)))
    pieces = [
        packed if len(calls) == 1 else _entries(packed, int(ends[lo]), int(ends[hi]))
        for lo, hi in calls
    ]
    results = machine.executor.run_spgemm(
        [(piece, b) for piece in pieces],
        spec,
        masks=None if mask is None else [mask] * len(pieces),
        mask_complement=mask_complement,
    )
    row_ops = sum(res.row_ops for res in results)
    upto = np.zeros(a.nrows + 1, dtype=np.int64)
    np.cumsum(row_ops, out=upto[1:])
    for rank, ops in zip(ranks.tolist(), np.diff(upto[cuts]).tolist()):
        machine.charge_compute([rank], float(ops))
    if len(results) == 1:
        c = results[0].matrix
    else:
        parts = [(res.matrix.rows, res.matrix.cols, res.matrix.vals) for res in results]
        c = SpMat._merged(a.nrows, b.ncols, parts, spec.monoid)
    return c, int(row_ops.sum())


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
    mask: SpMat | None = None,
    mask_complement: bool = False,
) -> tuple[DistMat, int]:
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
    #: resting[name][i][j]: the block of operand ``name`` on ``ranks2d[i, j]``
    resting = {
        name: list(zip(*dm.blocks)) if flipped[name] else dm.blocks
        for name, dm in rest.items()
    }

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
    # dimensions; the sub-mask of each distinct frame is cut once (for a
    # stationary C the frames are loop-invariant)
    frames: dict[tuple[int, ...], SpMat] = {}

    def frame_mask(i: int, j: int, t: int) -> SpMat:
        spans = {"m": c_rows[i : i + 2], "n": c_cols[j : j + 2], w: steps[t : t + 2]}
        key = (*spans["m"].tolist(), *spans["n"].tolist())
        if key not in frames:
            frames[key] = mask.block(*key)
        return frames[key]

    pieces: dict[str, list[SpMat]] = {}

    def operand(name: str, i: int, j: int) -> SpMat:
        """What ``ranks2d[i, j]`` multiplies: its resting block of the
        stationary operand, its line's piece of a moving one."""
        if name == s:
            return resting[name][i][j]
        return pieces[name][(j, i)[along[name]]]

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
                    resting[name][i][j], _DIMS[name].index(w), lo, lo + width
                )
                if piece.nnz:
                    piece = group.bcast(piece, root=root)
                pieces[name].append(piece)
        live = {}
        for i, j in order:
            x, y = operand("A", i, j), operand("B", i, j)
            if x.nnz and y.nnz:
                live[i, j] = x, y
        prods, ops = _local_mul_batch(
            machine,
            [(int(ranks2d[ij]), x, y) for ij, (x, y) in live.items()],
            spec,
            masks=None if mask is None else [frame_mask(*ij, t) for ij in live],
            mask_complement=mask_complement,
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
    mask: SpMat | None,
    mask_complement: bool,
    cache: dict | None,
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
        # fiber broadcasts: each (i, j) position's block travels to the
        # p1 ranks {ranks3d[:, i, j]} — the W_X(X[p2, p3]) term.
        blocks = [
            [
                machine.group(ranks3d[:, i, j]).bcast(blk, category="replicate")
                if blk.nnz
                else blk
                for j, blk in enumerate(row)
            ]
            for i, row in enumerate(ref.blocks)
        ]
        splits = ref.layout.row_splits, ref.layout.col_splits
        return [ref] + [
            DistMat(machine, Layout(layers[l], *splits), [list(row) for row in blocks], ref.monoid)
            for l in range(1, p1)
        ]

    # X moves first when it is an operand; per layer A before B
    if x != "C":
        copies = _replicate_cached(
            cache, ("3d" + x, id(mats[x]), p1, p2, p3), replicate
        )
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
        # layer l owns C's range [lo, hi) along d: its sub-mask.  When C is
        # the mover every layer's partial spans all of C: the full mask.
        mask_l = mask
        if mask is not None and x != "C":
            mask_l = axis_block(mask, _DIMS["C"].index(d), lo, hi)
        c_l, ops = _exec_2d(
            yz, layers[l], machine, layer_mats["A"], layer_mats["B"], spec,
            mask_l, mask_complement,
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
                [_nonempty(c_l.blocks[i][j]) for c_l in outs],
                SpMat.combine,
            )
            row.append(base.blocks[i][j] if acc is None else acc)
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
    layout = Layout(np.concatenate([lay.ranks2d for lay in layouts], axis=axis), *splits)
    if axis == 0:
        blocks = [list(row) for c_l in outs for row in c_l.blocks]
    else:
        blocks = [[blk for c_l in outs for blk in c_l.blocks[i]] for i in range(len(splits[0]) - 1)]
    return DistMat(outs[0].machine, layout, blocks, outs[0].monoid)
