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
and it *is* the matrix in global coordinates.  A tile is read one way,
:meth:`DistMat.block`: the resident block, a spilled one faulted back in,
or — on a packed matrix — a view of the packed arrays built for that read
and not kept.  The one-pass readers (gather, redistribution, transpose,
range extraction of a block grid) read every tile through it once; a
packed matrix's range is one pass over its packed arrays.  Elementwise
operations (the CTF ``Transform``/``sparsify``/summation surface that MFBC's
frontier logic uses) are one ``SpMat`` call on the packed operands —
per-coordinate, so bit-identical to acting block by block — and are
communication-free whenever the operands are co-distributed; when they are
not, the operand with fewer nonzeros moves onto the other's layout.  Per-block
mutation — spilling, assignment — works on the block form, which a packed
matrix turns into first.

A matrix's derived state lives on it: its memoized transpose, and — on a
loop invariant the engine pins (a graph's adjacency and that transpose) —
a memo of the replicas the SpGEMM variants made of it, so a replica lives
exactly as long as the matrix it copies.

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
    """One matrix's resources: what it charged where, and its spilled
    segments.

    Shared between the matrix and its GC finalizer, so blocks freed early
    (spilled) are not freed again at collection.  Releasing drops the
    spilled segments from the store with the charges, so a collected
    matrix leaves no segment behind.  Charges from before a machine
    :meth:`~repro.machine.Machine.shrink` are epoch-stale: the rank arrays
    were compacted, so stale holders free no words (their segments still
    go).
    """

    __slots__ = ("machine", "epoch", "charged", "spilled", "released")

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.epoch = machine.epoch
        self.charged: dict[int, int] = {}
        #: ``(i, j)`` -> the segment holding that block in the spill store
        self.spilled: dict[tuple[int, int], object] = {}
        self.released = False

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
        if self.spilled:
            store = self.machine.memory.store()
            for seg in self.spilled.values():
                store.drop(seg.key)
            self.spilled.clear()
        if self.machine.epoch != self.epoch or not self.charged:
            return
        self.machine.free(list(self.charged), list(self.charged.values()))
        self.charged = {}


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
        """``ranks2d`` blocking an ``nrows × ncols`` matrix evenly.

        A value, so one object serves every request for it: its arrays are
        read-only, and comparing it with itself is free."""
        ranks2d = np.asarray(ranks2d, dtype=np.int64)
        return _even_layout(ranks2d.tobytes(), ranks2d.shape, int(nrows), int(ncols))

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


@functools.lru_cache(maxsize=1024)
def _even_layout(ranks: bytes, shape: tuple[int, int], nrows: int, ncols: int) -> Layout:
    """The even layout :meth:`Layout.even` hands every caller, its arrays
    read-only (the grid is read from ``ranks``, a read-only buffer)."""
    layout = Layout(
        np.frombuffer(ranks, dtype=np.int64).reshape(shape),
        even_splits(nrows, shape[0]),
        even_splits(ncols, shape[1]),
    )
    for arr in (layout.row_splits, layout.col_splits, layout.offsets):
        arr.flags.writeable = False
    return layout


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
        "_replicas",
        "_memcharge",
        "_pk",
        "_tile_ends",
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
        #: a pinned loop invariant's replicas, keyed by how they were made
        #: (``None`` on every matrix the engine has not pinned)
        self._replicas: dict | None = None
        #: the one resident form: ``_pk`` (packed; ``_tile_ends`` are its
        #: tiles' entry boundaries) or ``_resident``, the raw nested block
        #: list (a cell is ``None`` while its block lives in the spill
        #: store, keyed in ``_spilled``, which ``_memcharge`` owns)
        self._pk: SpMat | None = packed
        self._tile_ends: np.ndarray | None = None
        self._resident = blocks
        self._spill_id: int | None = None
        self._memcharge = _MemCharge(machine)
        self._spilled = self._memcharge.spilled
        charges: dict[int, int] = {}
        for r, w in zip(layout.ranks2d.ravel().tolist(), self._tile_meta()[1]):
            if w:
                charges[r] = charges.get(r, 0) + w
        self._memcharge.add(charges, site="distmat")
        weakref.finalize(self, self._memcharge.release)

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
    ) -> "DistMat":
        """Scatter a node-local matrix evenly onto ``ranks2d`` (root-owned input).

        ``charge`` / ``category`` are keyword-only.  Charged as a scatter
        where the root owns the whole matrix — the bulk-synchronous graph
        input path (CTF ``Tensor::write``) — under ledger category
        ``category``.
        """
        layout = Layout.even(ranks2d, mat.nrows, mat.ncols)
        pr, pc = layout.ranks2d.shape
        blocks = [[mat.block(*layout.bounds(i, j)) for j in range(pc)] for i in range(pr)]
        if charge:
            ranks, parts = layout.by_owner(blocks)
            machine.group(ranks).scatter(parts, category=category)
        return cls(machine, layout, blocks, mat.monoid)

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
                blk = self.block(i, j)
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

    def _grid(self, read=None) -> list[list[SpMat]]:
        """Every block, read row by row by ``read`` (default :meth:`block`):
        the grid a one-pass reader walks."""
        read, (pr, pc) = read or self.block, self.grid_shape
        return [[read(i, j) for j in range(pc)] for i in range(pr)]

    def _unpack(self) -> None:
        """Hold this matrix as its block grid (views of the packed form) from
        now on: the form per-block mutation works on."""
        if self._pk is not None:
            pr, pc = self.grid_shape
            self._resident = [[self._slice(i, j) for j in range(pc)] for i in range(pr)]
            self._pk, self._tile_ends = None, None

    def _like(self, packed: SpMat, monoid: Monoid | None = None) -> "DistMat":
        """A matrix on this layout holding ``packed``."""
        return DistMat(self.machine, self.layout, packed, monoid or self.monoid)

    # -- spill / fault-in ---------------------------------------------------------

    def _seg_key(self, i: int, j: int) -> str:
        if self._spill_id is None:
            self._spill_id = next(_SPILL_IDS)
        return f"m{self._spill_id}-b{i}-{j}"

    def _store(self):
        mgr = getattr(self.machine, "memory", None)
        return None if mgr is None else mgr.store()

    def block(self, i: int, j: int) -> SpMat:
        """The local-coordinate block ``(i, j)``: the one way to read a tile.

        A resident block is returned as held.  A spilled one is faulted in
        from the store: the unspill is charged against the owner rank's
        memory budget (which may trigger relief-eviction of colder blocks)
        and ledger time before the bytes are read back and CRC-verified.  A
        packed matrix builds a view of its packed arrays for this read.
        """
        if self._pk is not None:
            return self._slice(i, j)
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

    def peek(self, i: int, j: int) -> SpMat:
        """Block ``(i, j)`` for a read that must not perturb the run
        (validation): a spilled tile is read from its segment, CRC-verified
        and uncharged, and stays spilled; any other is :meth:`block`'s."""
        if self._pk is None and self._resident[i][j] is None:
            return self._store().read(self._spilled[(i, j)])
        return self.block(i, j)

    def region(self, r0: int, r1: int, c0: int, c1: int) -> SpMat:
        """Global rows ``[r0, r1)`` × columns ``[c0, c1)``, in the region's
        own coordinates, read from the tiles it overlaps.

        A region that is a tile is that tile as :meth:`block` reads it, and
        one inside a tile a cut of it; packed ``p × 1`` strips hold global
        coordinates, so there a region is cut from the packed matrix (the
        whole matrix is the packed matrix itself).  Any other region merges
        the pieces of the tiles it overlaps, read in row-major grid order.
        Nothing is charged; a spilled tile faults in as any read does.
        """
        if self._pk is not None and self.grid_shape[1] == 1:
            return self._pk.block(r0, r1, c0, c1)
        rs, cs = self.layout.row_splits, self.layout.col_splits
        # the tiles of nonzero area that overlap the region
        rows = range(int(np.searchsorted(rs[1:], r0, "right")), int(np.searchsorted(rs[:-1], r1)))
        cols = range(int(np.searchsorted(cs[1:], c0, "right")), int(np.searchsorted(cs[:-1], c1)))
        parts = []
        for i, j in itertools.product(rows, cols):
            t0, _, u0, _ = self.layout.bounds(i, j)
            h, w = self.layout.block_shapes[i][j]
            lo_r, lo_c = max(r0, t0), max(c0, u0)
            piece = self.block(i, j).block(
                lo_r - t0, min(r1, t0 + h) - t0, lo_c - u0, min(c1, u0 + w) - u0
            )
            if len(rows) * len(cols) == 1:
                return piece
            if piece.nnz:
                parts.append((piece.rows + (lo_r - r0), piece.cols + (lo_c - c0), piece.vals))
        return SpMat._merged(r1 - r0, c1 - c0, parts, self.monoid)

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
            seg, w = self._evict(store, i, j, blk, int(owner))
            if seg is not None:
                self._spilled[(i, j)] = seg
                raw[i][j] = None
                freed += w
        return freed

    def _evict(self, store, i: int, j: int, payload: SpMat, owner: int):
        """Spill resident block ``(i, j)`` held by ``owner``.

        Returns ``(segment, words freed)``; ``(None, 0)`` for a zero-word
        block and for a torn write, which leaves the block resident.
        """
        w = payload.words()
        if w == 0:
            return None, 0
        seg = store.spill(self._seg_key(i, j), payload, rank=owner)
        if seg is None:
            return None, 0  # torn write detected: keep the block resident
        self._memcharge.sub(owner, w)
        return seg, w

    # -- gather -----------------------------------------------------------------

    def gather(self, *, charge: bool = True, peek: bool = False) -> SpMat:
        """Reassemble the full matrix on a single node (CTF read-back path).

        ``peek`` reads every tile with :meth:`peek`, not :meth:`block`: the
        uncharged ``gather(charge=False, peek=True)`` is a validation read,
        which leaves spilled tiles spilled.  On ``p × 1`` strips a packed
        matrix already is the full matrix: its keys are the global keys, so
        nothing is merged.
        """
        layout = self.layout
        strips = self._pk is not None and self.grid_shape[1] == 1
        if charge or not strips:
            blocks = self._grid(self.peek if peek else None)
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
        loop-invariant transposes (MFBr's ``Aᵀ``) keep a stable identity, and
        with it the replicas the engine pins on them.
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
        blocks = [[self.block(i, j).transpose() for i in range(pr)] for j in range(pc)]
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
        the current layout returns this matrix itself; one that puts every
        nonzero tile on the rank already holding it sends no piece, so the
        exchange charges nothing.
        """
        if layout == self.layout:
            return self  # already there: nothing to pack, move or hold twice
        return self._exchange(layout)

    def _exchange(self, layout: Layout) -> "DistMat":
        """:meth:`redistribute` onto another layout: cut every block against
        it and exchange the pieces that change rank."""
        src = self.layout
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
        grid = self._grid()
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
        empty): the next re-blocking has the same participants.
        """
        splits = [self.layout.row_splits, self.layout.col_splits]
        old = splits[axis]
        if not 0 <= lo <= hi <= old[-1]:
            raise ValueError(
                f"{('row', 'column')[axis]} range [{lo}, {hi}) out of bounds"
            )
        splits[axis] = np.clip(old, lo, hi) - lo
        layout = Layout(self.layout.ranks2d, *splits)
        # the local range each block along ``axis`` keeps
        start = (np.clip(lo, old[:-1], old[1:]) - old[:-1]).tolist()
        stop = (np.clip(hi, old[:-1], old[1:]) - old[:-1]).tolist()
        pr, pc = self.grid_shape
        blocks = [
            [
                axis_block(self.block(i, j), axis, start[(i, j)[axis]], stop[(i, j)[axis]])
                for j in range(pc)
            ]
            for i in range(pr)
        ]
        return DistMat(self.machine, layout, blocks, self.monoid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistMat(shape={self.shape}, grid={self.grid_shape}, nnz={self.nnz})"
        )
