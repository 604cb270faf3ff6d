"""Block-distributed sparse matrices.

A :class:`Layout` is a ``pr × pc`` blocking of an ``nrows × ncols`` matrix
onto a 2D array of machine ranks; a :class:`DistMat` is one layout and its
blocks, node-local :class:`~repro.sparse.SpMat` matrices in *local*
coordinates.  Every change of layout asks the layout one question — which
index ranges of a block overlap the target's blocks (:meth:`Layout.cut`).

A matrix holds its nonzeros in one of two forms, never both: as the block
grid, or *packed* — one ``SpMat`` over a flattened tile-major key space.
Tile ``t = (i, j)`` (row-major grid order) owns the keys ``[off_t, off_t +
h_t·w_t)`` (:attr:`Layout.offsets`), and an entry's key is ``off_t +
local_row·w_t + local_col``; the packed ``SpMat`` has the matrix's shape, so
on a ``p × 1`` strip layout its keys are the global keys ``row·ncols + col``
and it *is* the matrix in global coordinates.  A packed matrix builds a
block, as a view of its packed arrays, only where something reads it: read
through :attr:`DistMat.blocks` (a 2D/3D plan step, a replica) it is cached;
the one-pass readers — gather, redistribution, range extraction, transpose
— build their blocks for that read only.  Elementwise
operations (the CTF ``Transform``/``sparsify``/summation surface that MFBC's
frontier logic uses) are one ``SpMat`` call on the packed operands —
per-coordinate, so bit-identical to acting block by block — and are
communication-free whenever the operands are co-distributed; when they are
not, the operand with fewer nonzeros moves onto the other's layout.  Per-block
mutation — spilling, repair, assignment — works on the block form, which a
packed matrix turns into first.

The paper's load-balance assumption (§5.2, balls-into-bins after random
vertex relabeling) is what makes these oblivious even splits balanced.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from repro.algebra.fields import concat_fields
from repro.algebra.monoid import Monoid, stable_key_sort
from repro.machine.machine import Machine
from repro.sparse.spmatrix import SpMat

__all__ = ["DistMat", "Layout", "axis_block", "even_splits"]

#: process-wide ids for spill segment keys (stable across re-spills,
#: never recycled like ``id()`` can be)
_SPILL_IDS = itertools.count()


class _MemCharge:
    """One matrix's memory-accounting ownership: what it charged where.

    Shared between the matrix and its GC finalizer, so blocks freed early
    (spilled) are not freed again at collection and an adopted matrix can
    take over its donor's charges.  Charges from before a machine
    :meth:`~repro.machine.Machine.shrink` are epoch-stale: the rank arrays
    were compacted, so stale holders stand down instead of mis-indexing.
    """

    __slots__ = ("machine", "epoch", "charged", "released", "finalizer")

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.epoch = machine.epoch
        self.charged: dict[int, int] = {}
        self.released = False
        self.finalizer = None

    def _stale(self) -> bool:
        return self.released or self.machine.epoch != self.epoch

    def add(self, charges: dict[int, int], *, site: str) -> None:
        if self._stale() or not charges:
            return
        self.machine.charge_allocation(charges, site=site)
        for rank, words in charges.items():
            self.charged[rank] = self.charged.get(rank, 0) + words

    def sub(self, rank: int, words: int) -> None:
        if self._stale():
            return
        self.machine.free(rank, words)
        left = self.charged.get(rank, 0) - words
        if left > 0:
            self.charged[rank] = left
        else:
            self.charged.pop(rank, None)

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        if self.machine.epoch != self.epoch:
            return
        for rank, words in self.charged.items():
            self.machine.free(rank, words)
        self.charged = {}


def _release_charge(holder: _MemCharge) -> None:
    holder.release()


class _LazyBlockRow:
    """One row of a packed or spilled matrix's block grid; builds or faults
    blocks in on read."""

    __slots__ = ("_mat", "_i")

    def __init__(self, mat: "DistMat", i: int) -> None:
        self._mat = mat
        self._i = i

    def __len__(self) -> int:
        return self._mat.grid_shape[1]

    def __getitem__(self, j: int) -> SpMat:
        return self._mat._block_at(self._i, j)

    def __setitem__(self, j: int, blk: SpMat) -> None:
        self._mat._set_block(self._i, j, blk)

    def __iter__(self):
        for j in range(len(self)):
            yield self._mat._block_at(self._i, j)


class _LazyBlocks:
    """Drop-in view over ``DistMat.blocks`` of a packed matrix or one with
    a spilled block.

    Supports exactly the access patterns the codebase uses — ``[i][j]``
    indexing, row iteration, ``len`` — building a packed matrix's blocks as
    views on first read and transparently faulting spilled blocks back in
    from the store (charging the unspill) on first touch.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat: "DistMat") -> None:
        self._mat = mat

    def __len__(self) -> int:
        return self._mat.grid_shape[0]

    def __getitem__(self, i: int) -> _LazyBlockRow:
        return _LazyBlockRow(self._mat, i)

    def __iter__(self):
        for i in range(len(self)):
            yield _LazyBlockRow(self._mat, i)


def even_splits(n: int, parts: int) -> np.ndarray:
    """Boundaries of an even contiguous split of ``range(n)`` into ``parts``."""
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    return np.linspace(0, n, parts + 1).astype(np.int64)


def axis_block(mat: SpMat, axis: int, lo: int, hi: int) -> SpMat:
    """Rows (``axis`` 0) or columns (``axis`` 1) [lo, hi) of ``mat``."""
    bounds = [0, mat.nrows, 0, mat.ncols]
    bounds[2 * axis : 2 * axis + 2] = lo, hi
    return mat.block(*bounds)


def _tile_of(splits: np.ndarray, x: int) -> int:
    """The index of the block along ``splits`` that holds coordinate ``x``."""
    return int(np.searchsorted(splits, x, side="right")) - 1


class Layout:
    """Where a matrix's blocks live: a value, validated once.

    ``ranks2d`` is the ``pr × pc`` integer array of the ranks owning each
    block; ``row_splits`` / ``col_splits`` (lengths ``pr + 1`` / ``pc + 1``)
    are the block boundaries, so the matrix is ``row_splits[-1] ×
    col_splits[-1]``.  Two layouts are equal when all three arrays are.
    """

    __slots__ = ("ranks2d", "row_splits", "col_splits", "shape", "block_shapes", "offsets")

    def __init__(self, ranks2d, row_splits, col_splits) -> None:
        ranks2d = np.asarray(ranks2d, dtype=np.int64)
        if ranks2d.ndim != 2:
            raise ValueError("ranks2d must be 2-dimensional")
        pr, pc = ranks2d.shape
        row_splits = np.asarray(row_splits, dtype=np.int64)
        col_splits = np.asarray(col_splits, dtype=np.int64)
        if len(row_splits) != pr + 1 or len(col_splits) != pc + 1:
            raise ValueError("split lengths must match the rank grid shape")
        self.ranks2d = ranks2d
        self.row_splits = row_splits
        self.col_splits = col_splits
        self.shape = (int(row_splits[-1]), int(col_splits[-1]))
        heights, widths = np.diff(row_splits), np.diff(col_splits)
        #: ``block_shapes[i][j]``: the ``(rows, cols)`` of block ``(i, j)``
        self.block_shapes = [[(h, w) for w in widths.tolist()] for h in heights.tolist()]
        #: ``offsets[t]``: the first packed key of tile ``t`` (row-major grid
        #: order); ``offsets[-1]`` is ``nrows · ncols``
        self.offsets = np.zeros(pr * pc + 1, dtype=np.int64)
        np.cumsum(np.outer(heights, widths).ravel(), out=self.offsets[1:])

    @classmethod
    def even(cls, ranks2d, nrows: int, ncols: int) -> "Layout":
        """``ranks2d`` blocking an ``nrows × ncols`` matrix evenly."""
        pr, pc = np.shape(ranks2d)
        return cls(ranks2d, even_splits(nrows, pr), even_splits(ncols, pc))

    @property
    def T(self) -> "Layout":
        """The transposed layout: block ``(i, j)`` becomes ``(j, i)``, same owner."""
        return Layout(self.ranks2d.T, self.col_splits, self.row_splits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self is other or (
            np.array_equal(self.ranks2d, other.ranks2d)
            and np.array_equal(self.row_splits, other.row_splits)
            and np.array_equal(self.col_splits, other.col_splits)
        )

    def bounds(self, i: int, j: int) -> tuple[int, int, int, int]:
        """Global ``(r0, r1, c0, c1)`` of block ``(i, j)`` (``SpMat.block``'s order)."""
        rs, cs = self.row_splits, self.col_splits
        return int(rs[i]), int(rs[i + 1]), int(cs[j]), int(cs[j + 1])

    def by_owner(self, blocks) -> tuple[np.ndarray, list[list[SpMat]]]:
        """The grid's distinct ranks (ascending) and the blocks each one holds:
        the participants and per-participant parts of a scatter or gather."""
        ranks, owner = np.unique(self.ranks2d.ravel(), return_inverse=True)
        held: list[list[SpMat]] = [[] for _ in ranks]
        for k, blk in zip(owner, (blk for row in blocks for blk in row)):
            held[k].append(blk)
        return ranks, held

    def cut(self, block: SpMat, r0: int, c0: int) -> list[tuple[int, int, SpMat]]:
        """The pieces of ``block`` (its origin at global ``(r0, c0)``) that
        fall in each of this layout's blocks, as ``(a, b, piece)`` in
        ascending ``(a, b)`` order, each piece in ``(a, b)``'s local frame.
        """
        if not block.nnz:
            return []
        rs, cs = self.row_splits, self.col_splits
        (h, w), a, b = block.shape, _tile_of(rs, r0), _tile_of(cs, c0)
        if r0 + h <= rs[a + 1] and c0 + w <= cs[b + 1]:
            # the whole frame lies in one target block: one piece, no sort
            if self.block_shapes[a][b] == (h, w):
                return [(a, b, block)]
            dr, dc = r0 - int(rs[a]), c0 - int(cs[b])
            piece = SpMat(
                *self.block_shapes[a][b],
                block.rows + dr if dr else block.rows,
                block.cols + dc if dc else block.cols,
                block.vals,
                block.monoid,
                canonical=True,
            )
            return [(a, b, piece)]
        g_rows = block.rows + r0
        g_cols = block.cols + c0
        ti = np.searchsorted(rs, g_rows, side="right") - 1
        tj = np.searchsorted(cs, g_cols, side="right") - 1
        # group entries by target tile with one stable sort: each group keeps the
        # source block's (row, col) order, so every piece is canonical as cut
        tile, order = stable_key_sort(ti * (len(cs) - 1) + tj)
        out: list[tuple[int, int, SpMat]] = []
        for sel in np.split(order, np.flatnonzero(tile[1:] != tile[:-1]) + 1):
            a, b = int(ti[sel[0]]), int(tj[sel[0]])
            piece = SpMat(
                *self.block_shapes[a][b],
                g_rows[sel] - rs[a],
                g_cols[sel] - cs[b],
                {k: v[sel] for k, v in block.vals.items()},
                block.monoid,
                canonical=True,
            )
            out.append((a, b, piece))
        return out

    def assemble(self, pieces: list[list[list[SpMat]]], monoid: Monoid) -> list[list[SpMat]]:
        """One block per cell from the pieces cut for it (in arrival order):
        empty, the one piece itself, or the merge of pieces of distinct
        source blocks, which never share a coordinate."""
        blocks = []
        for cells, shapes in zip(pieces, self.block_shapes):
            row = []
            for cell, shape in zip(cells, shapes):
                if len(cell) == 1:
                    row.append(cell[0])
                elif not cell:
                    row.append(SpMat.empty(*shape, monoid))
                else:
                    parts = [(q.rows, q.cols, q.vals) for q in cell]
                    row.append(SpMat._merged(*shape, parts, monoid))
            blocks.append(row)
        return blocks


class DistMat:
    """A sparse matrix distributed over a 2D rank array.

    Parameters
    ----------
    machine:
        The simulated machine the blocks live on.
    layout:
        The :class:`Layout`: owning ranks and block boundaries.
    blocks:
        ``pr × pc`` nested list of local-coordinate :class:`SpMat` blocks, or
        one :class:`SpMat` of the layout's shape holding them packed (keys in
        the tile-major key space of the module docstring).
    monoid:
        The shared element monoid.
    """

    __slots__ = (
        "machine",
        "layout",
        "monoid",
        "_cached_t",
        "redundancy",
        "_replicas",
        "_source",
        "_memcharge",
        "_pk",
        "_tile_ends",
        "_views",
        "_resident",
        "_spilled",
        "_spill_id",
        "__weakref__",
    )

    def __init__(
        self,
        machine: Machine,
        layout: Layout,
        blocks: "list[list[SpMat]] | SpMat",
        monoid: Monoid,
    ) -> None:
        packed = None
        if isinstance(blocks, SpMat):
            if blocks.shape != layout.shape:
                raise ValueError(
                    f"packed matrix has shape {blocks.shape}, expected {layout.shape}"
                )
            packed, blocks = blocks, None
        else:
            pr, pc = layout.ranks2d.shape
            blocks = [list(row) for row in blocks]  # this matrix's own grid
            if len(blocks) != pr or any(len(row) != pc for row in blocks):
                raise ValueError("blocks layout must match the rank grid shape")
            for i, (row, shapes) in enumerate(zip(blocks, layout.block_shapes)):
                for j, (blk, expect) in enumerate(zip(row, shapes)):
                    if blk.shape != expect:
                        raise ValueError(
                            f"block ({i},{j}) has shape {blk.shape}, expected {expect}"
                        )
        self.machine = machine
        self.layout = layout
        self.monoid = monoid
        #: the memoized transpose (a weak reference on the transpose's side)
        self._cached_t: "DistMat | weakref.ref | None" = None
        #: elastic redundancy (set by :meth:`distribute` when the machine
        #: runs with an ElasticPolicy): the policy, the per-block checksummed
        #: buddy replicas, and the source matrix for re-materialization
        self.redundancy = None
        self._replicas: dict | None = None
        self._source: SpMat | None = None
        #: the one resident form: ``_pk`` (packed; ``_tile_ends`` are its
        #: tiles' entry boundaries, ``_views`` the blocks built from it so
        #: far) or ``_resident``, the raw nested block list (a cell is
        #: ``None`` while its block lives in the spill store, keyed in
        #: ``_spilled``)
        self._pk: SpMat | None = packed
        self._tile_ends: np.ndarray | None = None
        self._views: dict[tuple[int, int], SpMat] = {}
        self._resident = blocks
        self._spilled: dict[tuple[int, int], object] = {}
        self._spill_id: int | None = None
        self._memcharge = _MemCharge(machine)
        charges: dict[int, int] = {}
        for r, w in zip(layout.ranks2d.ravel().tolist(), self._tile_meta()[1]):
            if w:
                charges[r] = charges.get(r, 0) + w
        self._memcharge.add(charges, site="distmat")
        self._memcharge.finalizer = weakref.finalize(
            self, _release_charge, self._memcharge
        )

    # -- construction -----------------------------------------------------------

    @classmethod
    def distribute(
        cls,
        mat: SpMat,
        machine: Machine,
        ranks2d: np.ndarray,
        *,
        charge: bool = True,
        category: str = "input",
        redundancy=None,
    ) -> "DistMat":
        """Scatter a node-local matrix evenly onto ``ranks2d`` (root-owned input).

        ``charge`` / ``category`` / ``redundancy`` are keyword-only.  Charged
        as a scatter where the root owns the whole matrix — the
        bulk-synchronous graph input path (CTF ``Tensor::write``) — under
        ledger category ``category``.

        ``redundancy`` (an :class:`~repro.elastic.ElasticPolicy`) arms
        elastic recovery for this matrix: under ``"replica"`` every block is
        copied to a buddy rank with a CRC-32 checksum and the replication
        collective is charged to the ledger (category ``"redundancy"``);
        under ``"source"`` the source matrix is retained for lost-block
        re-materialization at zero steady-state cost.
        """
        layout = Layout.even(ranks2d, mat.nrows, mat.ncols)
        pr, pc = layout.ranks2d.shape
        blocks = [[mat.block(*layout.bounds(i, j)) for j in range(pc)] for i in range(pr)]
        if charge:
            ranks, parts = layout.by_owner(blocks)
            machine.group(ranks).scatter(parts, category=category)
        out = cls(machine, layout, blocks, mat.monoid)
        if redundancy is not None:
            out._install_redundancy(mat, redundancy, charge=charge)
        return out

    def _install_redundancy(self, source: SpMat, policy, *, charge: bool = True) -> None:
        """Arm this matrix for elastic repair under ``policy``.

        Replica mode ships every rank's blocks to its buddy
        ``(owner + stride) % p`` — one
        :meth:`~repro.machine.collectives.Group.shift`, charged by the
        busiest sender (category ``"redundancy"``) — and records a CRC-32
        per replica so repair can verify integrity before trusting it.
        The source handle is kept in both modes as the re-materialization
        fallback.
        """
        from repro.faults.plan import payload_checksum

        self.redundancy = policy
        self._source = source
        if policy.redundancy != "replica":
            return  # source mode: the retained source is the only fallback
        p = self.machine.p
        replicas: dict[tuple[int, int], tuple[int, int, SpMat]] = {}
        shipped: list[list[SpMat]] = [[] for _ in range(p)]
        for (i, j), owner in np.ndenumerate(self.layout.ranks2d):
            buddy = (int(owner) + policy.stride) % p
            blk = self.blocks[i][j]
            replicas[(i, j)] = (buddy, payload_checksum(blk), blk)
            shipped[owner].append(blk)
        rep_charges: dict[int, int] = {}
        for (_i, _j), (buddy, _crc, blk) in replicas.items():
            w = blk.words()
            if w:
                rep_charges[buddy] = rep_charges.get(buddy, 0) + w
        self._memcharge.add(rep_charges, site="redundancy")
        self._replicas = replicas
        if charge:
            self.machine.world().shift(
                shipped, policy.stride, category="redundancy"
            )

    def repair_lost(self, dead) -> dict[str, int]:
        """Reconstruct blocks owned by ``dead`` ranks, in place.

        Primary path: the checksummed buddy replica (skipped when the buddy
        died too or the CRC no longer matches); fallback: re-slicing the
        retained source matrix.  Raises
        :class:`~repro.elastic.RecoveryError` when a lost block has neither.
        Returns repair statistics (``replica`` / ``source`` block counts and
        restored ``words``).
        """
        from repro.elastic.recovery import RecoveryError
        from repro.faults.plan import payload_checksum

        dead = set(int(r) for r in dead)
        stats = {"replica": 0, "source": 0, "words": 0}
        for (i, j), owner in np.ndenumerate(self.layout.ranks2d):
            if owner not in dead:
                continue
            blk = None
            rep = (self._replicas or {}).get((i, j))
            if rep is not None:
                buddy, crc, copy_ = rep
                if buddy not in dead:
                    if isinstance(copy_, SpMat):
                        if payload_checksum(copy_) == crc:
                            blk = copy_
                            stats["replica"] += 1
                    else:
                        # replica was evicted to the spill store under
                        # memory pressure; fetch verifies its CRC
                        blk = self._fetch_segment(copy_, site="repair")
                        if blk is not None:
                            stats["replica"] += 1
            if blk is None and self._source is not None:
                blk = self._source.block(*self.layout.bounds(i, j))
                stats["source"] += 1
            if blk is None:
                raise RecoveryError(
                    f"block ({i},{j}) lost with rank {owner}: no live "
                    f"replica and no retained source to rebuild from"
                )
            self.blocks[i][j] = blk
            stats["words"] += blk.words()
        self._cached_t = None
        return stats

    def _adopt(self, other: "DistMat") -> None:
        """Become ``other`` in place (all slots copied).

        Elastic recovery rebuilds an invariant matrix on the shrunken grid
        and adopts it into the original object, so long-lived references
        (the MFBC driver's adjacency, the engine's invariant registry) stay
        valid across the reconfiguration.
        """
        old_charge = self._memcharge
        for slot in self.__slots__:
            if slot == "__weakref__":
                continue
            setattr(self, slot, getattr(other, slot))
        self._cached_t = None
        # take over the donor's memory charges: release what this object
        # held, then move ownership of the donor's holder to this object so
        # the donor's collection does not free blocks that now live here
        if old_charge is not self._memcharge:
            old_fin = old_charge.finalizer
            if old_fin is not None:
                old_fin.detach()
            old_charge.release()
            donor_fin = self._memcharge.finalizer
            if donor_fin is not None:
                donor_fin.detach()
            self._memcharge.finalizer = weakref.finalize(
                self, _release_charge, self._memcharge
            )

    # -- properties ----------------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.layout.ranks2d.shape  # type: ignore[return-value]

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.shape

    @property
    def nrows(self) -> int:
        return self.layout.shape[0]

    @property
    def ncols(self) -> int:
        return self.layout.shape[1]

    @property
    def blocks(self):
        """The ``pr × pc`` grid of local-coordinate blocks (``[i][j]``, row
        iteration, ``len``): the block list itself, or a lazy view when the
        matrix is packed or a block has spilled."""
        if self._pk is None and not self._spilled:
            return self._resident
        return _LazyBlocks(self)

    def _tile_meta(self) -> tuple[list[int], list[int]]:
        """``(nnz, words)`` of every tile, in row-major grid order, WITHOUT
        faulting spills in.

        Size queries must not defeat eviction: a spilled block's counts come
        from its segment metadata, so ``nnz``/``words`` on a partially
        spilled matrix stay free.  A packed matrix counts its tiles' entries
        by their key ranges; a tile's words are what its block's
        :meth:`~repro.sparse.SpMat.words` would be.
        """
        if self._pk is not None:
            nnz = np.diff(self._ends())
            entry = 16 + sum(np.dtype(dt).itemsize for _, dt in self._pk.monoid.field_spec)
            return nnz.tolist(), ((nnz * entry + 7) // 8).tolist()
        nnz, words = [], []
        for i, row in enumerate(self._resident):
            for j, blk in enumerate(row):
                if blk is None:
                    seg = self._spilled[(i, j)]
                    nnz.append(seg.nnz)
                    words.append(seg.words)
                else:
                    nnz.append(blk.nnz)
                    words.append(blk.words())
        return nnz, words

    @property
    def nnz(self) -> int:
        if self._pk is not None:
            return self._pk.nnz
        return sum(self._tile_meta()[0])

    def words(self) -> int:
        return sum(self._tile_meta()[1])

    # -- packed form ---------------------------------------------------------------

    def _ends(self) -> np.ndarray:
        """Entry boundaries of the tiles in the packed arrays (length ``T + 1``)."""
        if self._tile_ends is None:
            if self.grid_shape[1] == 1:  # strips: a tile is a run of global rows
                self._tile_ends = np.searchsorted(self._pk.rows, self.layout.row_splits)
            else:
                self._tile_ends = np.searchsorted(self._pk.keys(), self.layout.offsets)
        return self._tile_ends

    def packed(self) -> SpMat:
        """This matrix's nonzeros as one :class:`SpMat` over the tile-major
        key space (on ``p × 1`` strips: the matrix in global coordinates).

        A matrix held as blocks is packed here, faulting spilled blocks in,
        and holds the packed form from then on.
        """
        if self._pk is None:
            layout = self.layout
            keys, vals = [], []
            for t, (i, j) in enumerate(np.ndindex(*self.grid_shape)):
                blk = self._block_at(i, j)
                if blk.nnz:
                    keys.append(blk.rows * blk.ncols + (blk.cols + layout.offsets[t]))
                    vals.append(blk.vals)
            if keys:
                flat, vals = np.concatenate(keys), concat_fields(vals)
            else:
                flat, vals = np.empty(0, dtype=np.int64), self.monoid.empty()
            rows, cols = np.divmod(flat, max(layout.shape[1], 1))
            pk = SpMat(*layout.shape, rows, cols, vals, self.monoid, canonical=True)
            pk._keys = flat
            self._pk = pk
            self._resident = None
        return self._pk

    def _view(self, i: int, j: int) -> SpMat:
        """Block ``(i, j)`` of the packed form, built on first read and
        cached."""
        blk = self._views.get((i, j))
        if blk is None:
            blk = self._views[(i, j)] = self._slice(i, j)
        return blk

    def _slice(self, i: int, j: int) -> SpMat:
        """Block ``(i, j)`` of the packed form, its value columns views of
        the packed ones."""
        pk, layout = self._pk, self.layout
        t = i * self.grid_shape[1] + j
        lo, hi = self._ends()[t : t + 2].tolist()
        h, w = layout.block_shapes[i][j]
        if self.grid_shape[1] == 1:  # strips: the packed keys are global
            rows, cols = pk.rows[lo:hi] - layout.row_splits[i], pk.cols[lo:hi]
        else:
            rows, cols = np.divmod(pk.keys()[lo:hi] - layout.offsets[t], max(w, 1))
        vals = {name: col[lo:hi] for name, col in pk.vals.items()}
        return SpMat(h, w, rows, cols, vals, pk.monoid, canonical=True)

    def _fresh_blocks(self):
        """The block grid for one read: a packed matrix's blocks are built
        for it and not cached, so they go when the reader drops them."""
        if self._pk is None:
            return self.blocks
        pr, pc = self.grid_shape
        return [[self._slice(i, j) for j in range(pc)] for i in range(pr)]

    def _unpack(self) -> None:
        """Hold this matrix as its block grid (views of the packed form) from
        now on: the form per-block mutation works on."""
        if self._pk is not None:
            pr, pc = self.grid_shape
            self._resident = [[self._view(i, j) for j in range(pc)] for i in range(pr)]
            self._pk, self._tile_ends, self._views = None, None, {}

    def _like(self, packed: SpMat, monoid: Monoid | None = None) -> "DistMat":
        """A matrix on this layout holding ``packed``."""
        return DistMat(self.machine, self.layout, packed, monoid or self.monoid)

    # -- spill / fault-in ---------------------------------------------------------

    def _seg_key(self, i: int, j: int, *, replica: bool = False) -> str:
        if self._spill_id is None:
            self._spill_id = next(_SPILL_IDS)
        kind = "r" if replica else "b"
        return f"m{self._spill_id}-{kind}{i}-{j}"

    def _store(self):
        mgr = getattr(self.machine, "memory", None)
        return None if mgr is None else mgr.store()

    def _fetch_segment(self, seg, *, site: str) -> SpMat | None:
        from repro.memory.spill import SpillError

        store = self._store()
        if store is None:
            return None
        try:
            return store.fetch(seg, site=site)
        except SpillError:
            return None

    def _block_at(self, i: int, j: int) -> SpMat:
        """The block at ``(i, j)``, faulting it in from the store if spilled.

        The unspill is charged against the owner rank's memory budget (which
        may trigger relief-eviction of colder blocks) and ledger time before
        the bytes are read back and CRC-verified.  A packed matrix's block is
        its view.
        """
        if self._pk is not None:
            return self._view(i, j)
        blk = self._resident[i][j]
        if blk is not None:
            return blk
        seg = self._spilled[(i, j)]
        owner = int(self.layout.ranks2d[i, j])
        self._memcharge.add({owner: seg.words}, site="unspill")
        store = self._store()
        try:
            blk = store.fetch(seg, rank=owner)
        except Exception:
            self._memcharge.sub(owner, seg.words)
            raise
        self._resident[i][j] = blk
        del self._spilled[(i, j)]
        store.drop(seg.key)
        return blk

    def _set_block(self, i: int, j: int, blk: SpMat) -> None:
        """Assign a resident block (uncharged — callers own the accounting)."""
        self._unpack()
        self._resident[i][j] = blk
        seg = self._spilled.pop((i, j), None)
        if seg is not None:
            store = self._store()
            if store is not None:
                store.drop(seg.key)

    def spill_blocks(self, store, rank: int) -> int:
        """Evict the primary blocks ``rank`` owns to ``store``; return words
        freed.

        A block is only released after the store's write-then-verify
        read-back passes — a torn write leaves it resident.  A packed matrix
        turns into its block grid first.
        """
        self._unpack()
        freed = 0
        raw = self._resident
        for (i, j), owner in np.ndenumerate(self.layout.ranks2d):
            blk = raw[i][j]
            if blk is None or owner != rank:
                continue
            seg, w = self._evict(store, i, j, blk, int(owner), replica=False)
            if seg is not None:
                self._spilled[(i, j)] = seg
                raw[i][j] = None
                freed += w
        return freed

    def spill_replicas(self, store, rank: int) -> int:
        """Evict the replica copies ``rank`` holds to ``store``; return words
        freed.

        Replicas are the coldest data by construction (only read at repair
        time), so they go first under pressure.  A spilled replica still
        repairs: its segment CRC is the integrity check the resident copy's
        checksum used to provide.
        """
        freed = 0
        for (i, j), (buddy, crc, payload) in list((self._replicas or {}).items()):
            if not isinstance(payload, SpMat) or buddy != rank:
                continue  # already spilled, or held elsewhere
            seg, w = self._evict(store, i, j, payload, buddy, replica=True)
            if seg is not None:
                self._replicas[(i, j)] = (buddy, crc, seg)
                freed += w
        return freed

    def _evict(self, store, i: int, j: int, payload: SpMat, owner: int, *, replica: bool):
        """Spill one resident copy of block ``(i, j)`` held by ``owner``.

        Returns ``(segment, words freed)``; ``(None, 0)`` for a zero-word
        copy and for a torn write, which leaves the copy resident.
        """
        w = payload.words()
        if w == 0:
            return None, 0
        key = self._seg_key(i, j, replica=replica)
        site = "replica" if replica else "spill"
        seg = store.spill(key, payload, rank=owner, site=site)
        if seg is None:
            return None, 0  # torn write detected: keep the copy resident
        self._memcharge.sub(owner, w)
        return seg, w

    # -- gather -----------------------------------------------------------------

    def gather(self, *, charge: bool = True) -> SpMat:
        """Reassemble the full matrix on a single node (CTF read-back path).

        On ``p × 1`` strips a packed matrix already is the full matrix: its
        keys are the global keys, so nothing is merged.
        """
        layout = self.layout
        strips = self._pk is not None and self.grid_shape[1] == 1
        if charge or not strips:
            blocks = self._fresh_blocks()
        if charge:
            ranks, held = layout.by_owner(blocks)
            self.machine.group(ranks).gather(held)
        if strips:
            return self._pk
        parts = []
        for i, row in enumerate(blocks):
            for j, b in enumerate(row):
                if b.nnz:
                    r0, _, c0, _ = layout.bounds(i, j)
                    parts.append((b.rows + r0, b.cols + c0, b.vals))
        # blocks tile the matrix disjointly, and a single block column
        # already concatenates in row-major order
        return SpMat._merged(*layout.shape, parts, self.monoid)

    # -- elementwise (communication-free on co-distributed operands) -------------

    def _aligned(self, other: "DistMat") -> tuple["DistMat", "DistMat"]:
        """``self`` and ``other`` co-distributed, in that order.

        Elementwise operations are communication-free when operands share a
        distribution; otherwise the operand with fewer nonzeros moves onto
        the other's layout (``other`` on a tie), with the traffic charged
        (CTF lets users "work obliviously of the data distribution", §6.2).
        Products leave their outputs on their plans' layouts, so the cheaper
        side is what decides where the result rests.  Mixing machines is
        still an error: blocks on different simulated machines cannot meet.
        """
        if other.machine is not self.machine:
            raise ValueError(
                "operands live on different machines and cannot be "
                "co-distributed"
            )
        if other.layout == self.layout:
            return self, other
        if self.nnz < other.nnz:
            return self.redistribute(other.layout), other
        return self, other.redistribute(self.layout)

    def combine(self, other: "DistMat") -> "DistMat":
        mine, other = self._aligned(other)
        return mine._like(mine.packed().combine(other.packed()))

    def filter(self, predicate) -> "DistMat":
        return self._like(self.packed().filter(predicate))

    def map(self, fn, monoid: Monoid | None = None) -> "DistMat":
        return self._like(self.packed().map(fn, monoid=monoid), monoid)

    def zip_filter(self, other: "DistMat", predicate) -> "DistMat":
        mine, other = self._aligned(other)
        return mine._like(mine.packed().zip_filter(other.packed(), predicate))

    def zip_map(self, other: "DistMat", fn, monoid: Monoid | None = None) -> "DistMat":
        mine, other = self._aligned(other)
        return mine._like(mine.packed().zip_map(other.packed(), fn, monoid=monoid), monoid)

    # -- structure ---------------------------------------------------------------

    def transpose(self) -> "DistMat":
        """Transpose: every block transposes in place, the grid flips.

        No traffic: block ``(i,j)`` stays on its rank and becomes block
        ``(j,i)`` of the transposed grid (CTF's data-reordering happens
        lazily at the next redistribution).  The result is memoized so that
        loop-invariant transposes (MFBr's ``Aᵀ``) keep a stable identity —
        which is what lets the engine's replication cache amortize them.
        The memo holds the transpose, and the transpose holds this matrix
        only weakly: the pair is no reference cycle, so its memory charges
        are released when the last reference goes, not whenever the cyclic
        collector next runs (finalizers and all) on whichever thread.
        """
        cached = self._cached_t
        if isinstance(cached, weakref.ref):
            cached = cached()
        if cached is not None:
            return cached
        pr, pc = self.grid_shape
        grid = self._fresh_blocks()
        blocks = [[grid[i][j].transpose() for i in range(pr)] for j in range(pc)]
        out = DistMat(self.machine, self.layout.T, blocks, self.monoid)
        self._cached_t = out
        out._cached_t = weakref.ref(self)
        return out

    def redistribute(self, layout: Layout) -> "DistMat":
        """Move onto ``layout`` (CTF sparse redistribution).

        Every source block is cut against the target layout; the pieces
        that change owner travel in one
        :meth:`~repro.machine.collectives.Group.alltoall` over both grids'
        ranks, sized by the busiest rank's sent+received volume (CTF's
        sparse-to-sparse redistribution kernel, §6.2).  A target equal to
        the current layout returns this matrix itself.
        """
        src = self.layout
        if layout == src:
            return self  # already there: nothing to pack, move or hold twice

        pieces: list[list[list[SpMat]]] = [[[] for _ in row] for row in layout.block_shapes]
        participants = np.unique(np.concatenate([src.ranks2d.ravel(), layout.ranks2d.ravel()]))
        index = {int(r): k for k, r in enumerate(participants)}
        # the exchange, per participant: pieces leaving it, pieces arriving,
        # and the (target cell, position) each arrival lands in
        sent: list[list[SpMat]] = [[] for _ in participants]
        received: list[list[SpMat]] = [[] for _ in participants]
        landing: list[list[tuple[list, int]]] = [[] for _ in participants]
        # cutting each source block against the target layout is
        # independent work; the pieces are merged in (i, j) order
        pc = self.grid_shape[1]
        sources = [divmod(t, pc) for t, nnz in enumerate(self._tile_meta()[0]) if nnz]
        grid = self._fresh_blocks()
        cuts = self.machine.executor.run_tasks(
            [
                functools.partial(
                    layout.cut, grid[i][j], int(src.row_splits[i]), int(src.col_splits[j])
                )
                for i, j in sources
            ]
        )
        for (i, j), cut in zip(sources, cuts):
            origin = index[int(src.ranks2d[i, j])]
            for a, b, piece in cut:
                cell = pieces[a][b]
                dst = index[int(layout.ranks2d[a, b])]
                if origin != dst and piece.nnz:
                    sent[origin].append(piece)
                    received[dst].append(piece)
                    landing[dst].append((cell, len(cell)))
                cell.append(piece)
        delivered = self.machine.group(participants).alltoall(
            sent, received, category="redistribute"
        )
        for slots, arrivals in zip(landing, delivered):
            for (cell, pos), piece in zip(slots, arrivals):
                cell[pos] = piece
        return DistMat(self.machine, layout, layout.assemble(pieces, self.monoid), self.monoid)

    def extract_row_range(self, r0: int, r1: int) -> "DistMat":
        """Restrict to global rows [r0, r1) — purely local slicing."""
        return self._extract_range(0, r0, r1)

    def extract_col_range(self, c0: int, c1: int) -> "DistMat":
        """Restrict to global columns [c0, c1) — purely local slicing."""
        return self._extract_range(1, c0, c1)

    def _extract_range(self, axis: int, lo: int, hi: int) -> "DistMat":
        """Rows (``axis`` 0) or columns (``axis`` 1) [lo, hi) of the matrix.

        The resulting splits along ``axis`` are the old ones clipped to the
        range, so the rank grid is unchanged (blocks fully outside become
        empty).
        """
        splits = [self.layout.row_splits, self.layout.col_splits]
        old = splits[axis]
        if not 0 <= lo <= hi <= old[-1]:
            raise ValueError(
                f"{('row', 'column')[axis]} range [{lo}, {hi}) out of bounds"
            )
        splits[axis] = np.clip(old, lo, hi) - lo
        # the local range each block along ``axis`` keeps
        start = (np.clip(lo, old[:-1], old[1:]) - old[:-1]).tolist()
        stop = (np.clip(hi, old[:-1], old[1:]) - old[:-1]).tolist()
        pr, pc = self.grid_shape
        grid = self._fresh_blocks()
        blocks = []
        for i in range(pr):
            row = []
            for j in range(pc):
                b = (i, j)[axis]
                row.append(axis_block(grid[i][j], axis, start[b], stop[b]))
            blocks.append(row)
        layout = Layout(self.layout.ranks2d, *splits)
        return DistMat(self.machine, layout, blocks, self.monoid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistMat(shape={self.shape}, grid={self.grid_shape}, nnz={self.nnz})"
        )
