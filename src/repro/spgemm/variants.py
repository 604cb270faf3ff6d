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
  ``p2 × p3`` sub-grid.  Replication of a loop-invariant operand (MFBC's
  adjacency matrix) is cached and charged once — the amortization the proof
  of Theorem 5.1 relies on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algebra.matmul import MatMulSpec
from repro.dist.distmat import DistMat, even_splits
from repro.machine.machine import Machine
from repro.obs import api as obs
# not called here (local products go through machine.executor), but
# benchmarks/e2e/tracing.py patches the kernel under this module's name
from repro.sparse.spgemm import spgemm  # noqa: F401
from repro.sparse.spmatrix import SpMat
from repro.spgemm.plan import Plan

__all__ = ["execute_plan"]


def execute_plan(
    plan: Plan,
    a: DistMat,
    b: DistMat,
    spec: MatMulSpec,
    home_ranks2d: np.ndarray,
    *,
    mask: SpMat | None = None,
    mask_complement: bool = False,
    replication_cache: dict | None = None,
) -> tuple[DistMat, int]:
    """Run ``C = A •⟨⊕,f⟩ B`` under ``plan``; return C on the home grid.

    ``home_ranks2d`` is the machine-wide 2D rank grid that inputs live on
    and the output is returned on (the engine's resting layout).

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
    if not (
        np.array_equal(c.ranks2d, home_ranks2d)
        and np.array_equal(c.row_splits, even_splits(c.nrows, home_ranks2d.shape[0]))
        and np.array_equal(c.col_splits, even_splits(c.ncols, home_ranks2d.shape[1]))
    ):
        c = c.redistribute(home_ranks2d)
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
    concurrently; here the machine's executor fans them across host cores
    (when the work amortizes the dispatch overhead).  Results come back in
    task order and ledger charges are applied on the simulation thread in
    that same order, so matrices and ledger totals are bit-identical to
    running the products one by one.  ``masks[i]`` is the structural
    output mask for task ``i`` (already sliced to the task's output frame).
    """
    results = machine.executor.run_spgemm(
        [(x, y) for _, x, y in tasks],
        spec,
        masks=masks,
        mask_complement=mask_complement,
        ranks=[rank for rank, _, _ in tasks],
    )
    for (rank, _, _), res in zip(tasks, results):
        machine.charge_compute([rank], float(res.ops))
    return [res.matrix for res in results], sum(res.ops for res in results)


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
    row1 = world.ranks.reshape(1, p)
    col1 = world.ranks.reshape(p, 1)
    monoid = spec.monoid
    m, k, n = a.nrows, a.ncols, b.ncols

    if x == "A":
        # replicate A (broadcast), block B and C by columns.
        def build():
            return world.bcast(a.gather(charge=False), category="replicate")

        a_full = _replicate_cached(cache, ("1dA", id(a)), build)
        b1 = b.redistribute(row1)
        # C is column-blocked like B: each rank's output frame is a column
        # stripe, so it sees the matching column slice of the mask.
        masks = None
        if mask is not None:
            masks = [
                mask.block(0, m, int(b1.col_splits[j]), int(b1.col_splits[j + 1]))
                for j in range(p)
            ]
        c_blocks, total_ops = _local_mul_batch(
            machine,
            [(j, a_full, b1.blocks[0][j]) for j in range(p)],
            spec,
            masks=masks,
            mask_complement=mask_complement,
        )
        c = DistMat(
            machine, row1, even_splits(m, 1), b1.col_splits, [c_blocks], monoid
        )
        return c, total_ops

    if x == "B":
        # replicate B, block A and C by rows.
        def build():
            return world.bcast(b.gather(charge=False), category="replicate")

        b_full = _replicate_cached(cache, ("1dB", id(b)), build)
        a1 = a.redistribute(col1)
        # C is row-blocked like A: each rank sees its row stripe of the mask.
        masks = None
        if mask is not None:
            masks = [
                mask.block(int(a1.row_splits[i]), int(a1.row_splits[i + 1]), 0, n)
                for i in range(p)
            ]
        c_blocks, total_ops = _local_mul_batch(
            machine,
            [(i, a1.blocks[i][0], b_full) for i in range(p)],
            spec,
            masks=masks,
            mask_complement=mask_complement,
        )
        c = DistMat(
            machine,
            col1,
            a1.row_splits,
            even_splits(n, 1),
            [[blk] for blk in c_blocks],
            monoid,
        )
        return c, total_ops

    # x == "C": block A by columns and B by rows; sparse-reduce full partials.
    a1 = a.redistribute(row1)  # (m × k) split along k
    b1 = b.redistribute(col1)  # (k × n) split along k
    # every rank forms a full-shape partial, so every rank masks with the
    # full mask; the masked ops total is still partition-invariant because
    # the k-slices partition the join pairs disjointly.
    partials, total_ops = _local_mul_batch(
        machine,
        [(r, a1.blocks[0][r], b1.blocks[r][0]) for r in range(p)],
        spec,
        masks=None if mask is None else [mask] * p,
        mask_complement=mask_complement,
    )
    partial = world.sparse_reduce(partials, SpMat.combine)
    c = DistMat.distribute(partial, machine, row1, charge=True)
    return c, total_ops


# ---------------------------------------------------------------------------
# 2D algorithms (§5.2.2)
# ---------------------------------------------------------------------------


def _chunk_of(splits: np.ndarray, t_lo: int, t_hi: int, block: int) -> tuple[int, int]:
    """Local [lo, hi) range of global chunk [t_lo, t_hi) inside ``block``."""
    base = int(splits[block])
    return t_lo - base, t_hi - base


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
    m, k, n = a.nrows, a.ncols, b.ncols
    monoid = spec.monoid
    lcm = math.lcm(pr, pc)
    total_ops = 0
    row_groups = [machine.group(ranks2d[i, :]) for i in range(pr)]
    col_groups = [machine.group(ranks2d[:, j]) for j in range(pc)]

    if yz == "AB":
        a_n = a.redistribute(ranks2d, even_splits(m, pr), even_splits(k, pc))
        b_n = b.redistribute(ranks2d, even_splits(k, pr), even_splits(n, pc))
        ks = even_splits(k, lcm)
        c_blocks = [
            [SpMat.empty(
                int(a_n.row_splits[i + 1] - a_n.row_splits[i]),
                int(b_n.col_splits[j + 1] - b_n.col_splits[j]),
                monoid,
            ) for j in range(pc)]
            for i in range(pr)
        ]
        # every step's (i, j) product lands on C's stationary (i, j) block,
        # so the per-cell mask slices are loop-invariant: cut them once.
        mask_cells = None
        if mask is not None:
            mask_cells = [
                [
                    mask.block(
                        int(a_n.row_splits[i]),
                        int(a_n.row_splits[i + 1]),
                        int(b_n.col_splits[j]),
                        int(b_n.col_splits[j + 1]),
                    )
                    for j in range(pc)
                ]
                for i in range(pr)
            ]
        for t in range(lcm):
            t_lo, t_hi = int(ks[t]), int(ks[t + 1])
            ja = t // (lcm // pc)
            ib = t // (lcm // pr)
            # A pieces broadcast along grid rows.
            a_pieces = []
            for i in range(pr):
                lo, hi = _chunk_of(a_n.col_splits, t_lo, t_hi, ja)
                piece = a_n.blocks[i][ja].block(0, a_n.blocks[i][ja].nrows, lo, hi)
                if piece.nnz:
                    piece = row_groups[i].bcast(piece, root=ja)
                a_pieces.append(piece)
            # B pieces broadcast along grid columns.
            b_pieces = []
            for j in range(pc):
                lo, hi = _chunk_of(b_n.row_splits, t_lo, t_hi, ib)
                piece = b_n.blocks[ib][j].block(lo, hi, 0, b_n.blocks[ib][j].ncols)
                if piece.nnz:
                    piece = col_groups[j].bcast(piece, root=ib)
                b_pieces.append(piece)
            # per-step local products are independent across (i, j): batch
            # them through the executor, merge in serial iteration order
            cells = [
                (i, j)
                for i in range(pr)
                if a_pieces[i].nnz
                for j in range(pc)
                if b_pieces[j].nnz
            ]
            prods, ops = _local_mul_batch(
                machine,
                [(int(ranks2d[i, j]), a_pieces[i], b_pieces[j]) for i, j in cells],
                spec,
                masks=None if mask_cells is None
                else [mask_cells[i][j] for i, j in cells],
                mask_complement=mask_complement,
            )
            total_ops += ops
            for (i, j), prod in zip(cells, prods):
                if prod.nnz:
                    c_blocks[i][j] = c_blocks[i][j].combine(prod)
        c = DistMat(machine, ranks2d, a_n.row_splits, b_n.col_splits, c_blocks, monoid)
        return c, total_ops

    if yz == "BC":
        # A stationary; B pieces broadcast along grid columns; C chunks
        # sparse-reduced along grid rows.
        a_n = a.redistribute(ranks2d, even_splits(m, pr), even_splits(k, pc))
        b_n = b.redistribute(ranks2d.T, even_splits(k, pc), even_splits(n, pr))
        ns = even_splits(n, lcm)
        cs = even_splits(n, pc)
        c_blocks = [
            [SpMat.empty(
                int(a_n.row_splits[i + 1] - a_n.row_splits[i]),
                int(cs[j + 1] - cs[j]),
                monoid,
            ) for j in range(pc)]
            for i in range(pr)
        ]
        for t in range(lcm):
            t_lo, t_hi = int(ns[t]), int(ns[t + 1])
            tb = t // (lcm // pr)
            jc = t // (lcm // pc)
            b_pieces = []
            for j in range(pc):
                lo, hi = _chunk_of(b_n.col_splits, t_lo, t_hi, tb)
                piece = b_n.blocks[j][tb].block(0, b_n.blocks[j][tb].nrows, lo, hi)
                if piece.nnz:
                    piece = col_groups[j].bcast(piece, root=tb)
                b_pieces.append(piece)
            # products are independent across the whole (i, j) step; grid
            # rows touch disjoint rank sets, so batching them ahead of the
            # per-row reductions leaves the ledger bit-identical
            cells = [
                (i, j)
                for i in range(pr)
                for j in range(pc)
                if b_pieces[j].nnz and a_n.blocks[i][j].nnz
            ]
            # each product covers C's (row stripe i) × (column chunk t):
            # slice that frame's sub-mask, shared by all j in grid row i.
            mask_rows = None
            if mask is not None:
                mask_rows = [
                    mask.block(
                        int(a_n.row_splits[i]),
                        int(a_n.row_splits[i + 1]),
                        t_lo,
                        t_hi,
                    )
                    for i in range(pr)
                ]
            prods, ops = _local_mul_batch(
                machine,
                [
                    (int(ranks2d[i, j]), a_n.blocks[i][j], b_pieces[j])
                    for i, j in cells
                ],
                spec,
                masks=None if mask_rows is None
                else [mask_rows[i] for i, j in cells],
                mask_complement=mask_complement,
            )
            total_ops += ops
            outs = dict(zip(cells, prods))
            for i in range(pr):
                partial = row_groups[i].sparse_reduce(
                    [_nonempty(outs.get((i, j))) for j in range(pc)],
                    SpMat.combine,
                    root=jc,
                )
                if partial is not None:
                    placed = _embed(
                        partial,
                        c_blocks[i][jc].nrows,
                        c_blocks[i][jc].ncols,
                        0,
                        t_lo - int(cs[jc]),
                    )
                    c_blocks[i][jc] = c_blocks[i][jc].combine(placed)
        c = DistMat(machine, ranks2d, a_n.row_splits, cs, c_blocks, monoid)
        return c, total_ops

    if yz == "AC":
        # B stationary; A pieces broadcast along grid rows; C chunks
        # sparse-reduced along grid columns.
        b_n = b.redistribute(ranks2d, even_splits(k, pr), even_splits(n, pc))
        a_n = a.redistribute(ranks2d.T, even_splits(m, pc), even_splits(k, pr))
        ms = even_splits(m, lcm)
        rs = even_splits(m, pr)
        c_blocks = [
            [SpMat.empty(
                int(rs[i + 1] - rs[i]),
                int(b_n.col_splits[j + 1] - b_n.col_splits[j]),
                monoid,
            ) for j in range(pc)]
            for i in range(pr)
        ]
        for t in range(lcm):
            t_lo, t_hi = int(ms[t]), int(ms[t + 1])
            ta = t // (lcm // pc)
            ic = t // (lcm // pr)
            a_pieces = []
            for i in range(pr):
                lo, hi = _chunk_of(a_n.row_splits, t_lo, t_hi, ta)
                piece = a_n.blocks[ta][i].block(lo, hi, 0, a_n.blocks[ta][i].ncols)
                if piece.nnz:
                    piece = row_groups[i].bcast(piece, root=ta)
                a_pieces.append(piece)
            # mirror of BC: batch the step's products; grid columns touch
            # disjoint rank sets, so the per-column reductions still see a
            # bit-identical ledger
            cells = [
                (j, i)
                for j in range(pc)
                for i in range(pr)
                if a_pieces[i].nnz and b_n.blocks[i][j].nnz
            ]
            # each product covers C's (row chunk t) × (column stripe j):
            # slice that frame's sub-mask, shared by all i in grid column j.
            mask_cols = None
            if mask is not None:
                mask_cols = [
                    mask.block(
                        t_lo,
                        t_hi,
                        int(b_n.col_splits[j]),
                        int(b_n.col_splits[j + 1]),
                    )
                    for j in range(pc)
                ]
            prods, ops = _local_mul_batch(
                machine,
                [
                    (int(ranks2d[i, j]), a_pieces[i], b_n.blocks[i][j])
                    for j, i in cells
                ],
                spec,
                masks=None if mask_cols is None
                else [mask_cols[j] for j, i in cells],
                mask_complement=mask_complement,
            )
            total_ops += ops
            outs = dict(zip(cells, prods))
            for j in range(pc):
                partial = col_groups[j].sparse_reduce(
                    [_nonempty(outs.get((j, i))) for i in range(pr)],
                    SpMat.combine,
                    root=ic,
                )
                if partial is not None:
                    placed = _embed(
                        partial,
                        c_blocks[ic][j].nrows,
                        c_blocks[ic][j].ncols,
                        t_lo - int(rs[ic]),
                        0,
                    )
                    c_blocks[ic][j] = c_blocks[ic][j].combine(placed)
        c = DistMat(machine, ranks2d, rs, b_n.col_splits, c_blocks, monoid)
        return c, total_ops

    raise ValueError(f"unknown 2D variant {yz!r}")


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
    m, k, n = a.nrows, a.ncols, b.ncols
    monoid = spec.monoid
    layers = [ranks3d[l] for l in range(p1)]
    total_ops = 0

    def replicate(mat: DistMat, tag: str) -> list[DistMat]:
        """One copy of ``mat`` per layer; broadcast charged once per fiber."""

        def build():
            ref = mat.redistribute(layers[0])
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
            return [ref] + [
                DistMat(
                    machine,
                    layers[l],
                    ref.row_splits,
                    ref.col_splits,
                    [list(row) for row in blocks],
                    ref.monoid,
                )
                for l in range(1, p1)
            ]

        return _replicate_cached(cache, ("3d" + tag, id(mat), p1, p2, p3), build)

    if x == "A":
        a_layers = replicate(a, "A")
        bs = even_splits(n, p1)
        pieces = []
        for l in range(p1):
            b_l = b.extract_col_range(int(bs[l]), int(bs[l + 1])).redistribute(layers[l])
            # layer l owns C's column range [bs[l], bs[l+1]): its sub-mask
            mask_l = (
                None if mask is None
                else mask.block(0, m, int(bs[l]), int(bs[l + 1]))
            )
            c_l, ops = _exec_2d(
                yz, layers[l], machine, a_layers[l], b_l, spec,
                mask_l, mask_complement,
            )
            total_ops += ops
            pieces.append((c_l, 0, int(bs[l])))
        return _reassemble(machine, pieces, m, n, monoid), total_ops

    if x == "B":
        b_layers = replicate(b, "B")
        as_ = even_splits(m, p1)
        pieces = []
        for l in range(p1):
            a_l = a.extract_row_range(int(as_[l]), int(as_[l + 1])).redistribute(layers[l])
            # layer l owns C's row range [as_[l], as_[l+1]): its sub-mask
            mask_l = (
                None if mask is None
                else mask.block(int(as_[l]), int(as_[l + 1]), 0, n)
            )
            c_l, ops = _exec_2d(
                yz, layers[l], machine, a_l, b_layers[l], spec,
                mask_l, mask_complement,
            )
            total_ops += ops
            pieces.append((c_l, int(as_[l]), 0))
        return _reassemble(machine, pieces, m, n, monoid), total_ops

    # x == "C": split the contraction dimension; sparse-reduce layer partials.
    ks = even_splits(k, p1)
    partials = []
    for l in range(p1):
        a_l = a.extract_col_range(int(ks[l]), int(ks[l + 1])).redistribute(layers[l])
        b_l = b.extract_row_range(int(ks[l]), int(ks[l + 1])).redistribute(layers[l])
        # every layer's partial spans all of C: mask with the full mask
        c_l, ops = _exec_2d(
            yz, layers[l], machine, a_l, b_l, spec, mask, mask_complement
        )
        total_ops += ops
        partials.append(c_l)
    # reduce across layers, block position by block position (fiber groups)
    base = partials[0]
    out_blocks = []
    for i in range(p2):
        row = []
        for j in range(p3):
            acc = machine.group(ranks3d[:, i, j]).sparse_reduce(
                [_nonempty(c_l.blocks[i][j]) for c_l in partials],
                SpMat.combine,
            )
            row.append(base.blocks[i][j] if acc is None else acc)
        out_blocks.append(row)
    c = DistMat(
        machine, layers[0], base.row_splits, base.col_splits, out_blocks, monoid
    )
    return c, total_ops


def _reassemble(
    machine: Machine,
    pieces: list[tuple[DistMat, int, int]],
    nrows: int,
    ncols: int,
    monoid,
) -> DistMat:
    """Concatenate disjoint layer outputs into one machine-wide matrix.

    Pure reindexing: each layer's blocks keep their owners; the result lives
    on the union grid described by stacked splits.  No data moves, so no
    charge — the caller's final redistribution to the home layout pays the
    real shuffle.
    """
    parts = []
    for dm, roff, coff in pieces:
        local = dm.gather(charge=False)
        if local.nnz:
            parts.append((local.rows + roff, local.cols + coff, local.vals))
    full = SpMat._merged(nrows, ncols, parts, monoid)
    p = machine.p
    # provisional machine-wide 1 × p layout; caller redistributes to home
    return DistMat.distribute(
        full, machine, np.arange(p).reshape(1, p), charge=False
    )
