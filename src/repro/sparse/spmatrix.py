"""Canonical COO sparse matrices with monoid-valued entries.

An :class:`SpMat` stores nonzero coordinates plus a columnar field array of
values and the monoid the values are drawn from.  Canonical form means:
entries sorted by (row, col), coordinates unique (duplicates folded with the
monoid's ``⊕``), and no entry equal to the monoid identity (the identity is
the implicit value of unstored entries, following CTF's convention that the
additive identity defines sparsity).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from repro.algebra.fields import (
    FieldArray,
    concat_fields,
    fields_length,
    take_fields,
)
from repro.algebra.monoid import Monoid, stable_key_sort

__all__ = ["SpMat"]


class SpMat:
    """A sparse ``nrows × ncols`` matrix over ``monoid``'s carrier set.

    Instances are immutable after construction: operations return new
    matrices (or, when the result would be identical, an operand itself)
    and never write into ``rows``/``cols``/``vals``.

    Parameters
    ----------
    nrows, ncols:
        Matrix dimensions.
    rows, cols:
        Nonzero coordinates (int64 arrays of equal length).
    vals:
        Field array of nonzero values, aligned with ``rows``/``cols``.
    monoid:
        The commutative monoid the values belong to; supplies the schema,
        identity, duplicate folding, and elementwise accumulation.
    canonical:
        Pass ``True`` when the inputs are already sorted/unique/pruned to
        skip canonicalization (internal fast path).
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals", "monoid", "_rowptr", "_keys")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: FieldArray,
        monoid: Monoid,
        *,
        canonical: bool = False,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative dimensions ({nrows}, {ncols})")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if len(rows) != len(cols):
            raise ValueError(f"rows/cols length mismatch: {len(rows)} vs {len(cols)}")
        nval = fields_length(vals)
        if nval != len(rows):
            raise ValueError(f"coords/vals length mismatch: {len(rows)} vs {nval}")
        vals = {
            name: np.asarray(vals[name], dtype=dtype)
            for name, dtype in monoid.field_spec
        }
        if len(rows) and (
            rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
        ):
            raise ValueError("coordinate out of bounds")

        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.monoid = monoid
        self._rowptr: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        if canonical:
            self.rows, self.cols, self.vals = rows, cols, vals
        else:
            self.rows, self.cols, self.vals = self._canonicalize(rows, cols, vals)

    # -- construction ------------------------------------------------------

    def _canonicalize(
        self, rows: np.ndarray, cols: np.ndarray, vals: FieldArray
    ) -> tuple[np.ndarray, np.ndarray, FieldArray]:
        keys = rows * self.ncols + cols
        keys, vals = self.monoid.reduce_by_key(keys, vals)
        return self._split_pruned(keys, vals, self.ncols, self.monoid)

    @staticmethod
    def _split_pruned(
        keys: np.ndarray, vals: FieldArray, ncols: int, monoid: Monoid
    ) -> tuple[np.ndarray, np.ndarray, FieldArray]:
        """Drop identity entries of reduced ``(keys, vals)``; unlinearize."""
        keep = ~monoid.is_identity(vals)
        if not keep.all():
            keys = keys[keep]
            vals = take_fields(vals, keep.nonzero()[0])
        if ncols:
            return keys // ncols, keys % ncols, vals
        return keys[:0], keys[:0], vals

    @classmethod
    def empty(cls, nrows: int, ncols: int, monoid: Monoid) -> "SpMat":
        """An all-identity (empty) matrix."""
        z = np.empty(0, dtype=np.int64)
        return cls(nrows, ncols, z, z, monoid.empty(), monoid, canonical=True)

    @classmethod
    def _merged(
        cls,
        nrows: int,
        ncols: int,
        parts: Sequence[tuple[np.ndarray, np.ndarray, FieldArray]],
        monoid: Monoid,
    ) -> "SpMat":
        """``⊕`` of canonical ``(rows, cols, vals)`` parts in one frame.

        Each part must be sorted, unique and identity-free over ``monoid``
        (a canonical matrix's triples, possibly shifted by a constant).
        Parts that already concatenate in ascending key order need no work;
        otherwise one stable key sort merges them.  ``⊕`` and identity
        pruning run only if two parts share a coordinate — on the same
        sorted sequence the canonicalizing constructor would reduce, so the
        values are bit-identical to it.
        """
        if not parts:
            return cls.empty(nrows, ncols, monoid)
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        vals = concat_fields([p[2] for p in parts])
        keys = rows * ncols + cols
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            keys, order = stable_key_sort(keys)
            vals = take_fields(vals, order)
            if (keys[1:] == keys[:-1]).any():
                keys, vals = monoid._reduce_sorted(keys, vals)
                rows, cols, vals = cls._split_pruned(keys, vals, ncols, monoid)
            else:
                rows, cols = rows[order], cols[order]
        return cls(nrows, ncols, rows, cols, vals, monoid, canonical=True)

    @classmethod
    def from_scipy(
        cls, mat: scipy.sparse.spmatrix, monoid: Monoid, field: str = "w"
    ) -> "SpMat":
        """Wrap a scipy sparse matrix as a single-field :class:`SpMat`."""
        coo = mat.tocoo()
        if [field] != [n for n, _ in monoid.field_spec]:
            raise ValueError(
                f"from_scipy requires a single-field monoid with field {field!r}"
            )
        return cls(
            coo.shape[0],
            coo.shape[1],
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            {field: coo.data},
            monoid,
        )

    # -- basic properties ----------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored (non-identity) entries."""
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def nbytes(self) -> int:
        """Storage footprint of coordinates + values in bytes."""
        n = self.rows.nbytes + self.cols.nbytes
        return n + sum(col.nbytes for col in self.vals.values())

    def words(self) -> int:
        """Footprint in 8-byte words (the paper's memory unit)."""
        return (self.nbytes() + 7) // 8

    def copy(self) -> "SpMat":
        return SpMat(
            self.nrows,
            self.ncols,
            self.rows.copy(),
            self.cols.copy(),
            {k: v.copy() for k, v in self.vals.items()},
            self.monoid,
            canonical=True,
        )

    # -- conversion ----------------------------------------------------------

    def to_scipy(self, field: str = "w") -> scipy.sparse.coo_matrix:
        """Extract one value field as a scipy COO matrix (zeros are kept)."""
        return scipy.sparse.coo_matrix(
            (self.vals[field], (self.rows, self.cols)), shape=self.shape
        )

    def to_dense(self, field: str, fill: object | None = None) -> np.ndarray:
        """Densify one value field, filling unstored entries.

        ``fill`` defaults to the monoid identity's value for ``field``.
        """
        if fill is None:
            fill = self.monoid.identity[field]
        dtype = dict(self.monoid.field_spec)[field]
        out = np.full((self.nrows, self.ncols), fill, dtype=dtype)
        out[self.rows, self.cols] = self.vals[field]
        return out

    def keys(self) -> np.ndarray:
        """Linearized coordinates ``row * ncols + col`` (sorted ascending),
        computed once and cached like :meth:`row_pointer`: every alignment
        of a state matrix against a product searches the same keys."""
        if self._keys is None:
            self._keys = self.rows * self.ncols + self.cols
        return self._keys

    def row_pointer(self) -> np.ndarray:
        """CSR-style row pointer (length ``nrows + 1``), computed lazily and
        cached.  Matrices are immutable after construction, so the cache is
        safe; it makes repeated joins against a fixed operand (MFBC reuses
        the adjacency matrix in every product) O(1) instead of
        O(nnz · log n) per product."""
        if self._rowptr is None:
            counts = np.bincount(self.rows, minlength=self.nrows)
            ptr = np.zeros(self.nrows + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            self._rowptr = ptr
        return self._rowptr

    # -- elementwise operations ----------------------------------------------

    def _take(self, idx: np.ndarray, vals: FieldArray, monoid: Monoid) -> "SpMat":
        """Entries ``idx`` (ascending) of this support carrying ``vals[idx]``:
        a subsequence of a canonical matrix is canonical."""
        return SpMat(
            self.nrows,
            self.ncols,
            self.rows[idx],
            self.cols[idx],
            take_fields(vals, idx),
            monoid,
            canonical=True,
        )

    def _kept(self, keep: np.ndarray) -> "SpMat":
        """The entries under the boolean mask ``keep`` — this matrix itself
        when nothing is dropped."""
        if keep.all():
            return self
        return self._take(keep.nonzero()[0], self.vals, self.monoid)

    def _with_values(self, vals: FieldArray, monoid: Monoid) -> "SpMat":
        """Same support, new values over ``monoid``: the coordinates stay
        sorted and unique, so only results equal to the identity are pruned."""
        vals = {name: np.asarray(vals[name], dtype=dt) for name, dt in monoid.field_spec}
        if fields_length(vals) != self.nnz:
            raise ValueError(
                f"coords/vals length mismatch: {self.nnz} vs {fields_length(vals)}"
            )
        keep = ~monoid.is_identity(vals)
        if not keep.all():
            return self._take(keep.nonzero()[0], vals, monoid)
        return SpMat(
            self.nrows, self.ncols, self.rows, self.cols, vals, monoid, canonical=True
        )

    def combine(self, other: "SpMat") -> "SpMat":
        """Elementwise monoid accumulation ``self ⊕ other`` (union of supports).

        ``other``'s keys are located in this matrix's with one binary search
        each; no entry of ``self`` that ``other`` misses is compared, moved
        twice or re-sorted.  A hit is folded as ``self ⊕ other`` — the pair,
        in the order, that a stable merge would reduce — into a copy of the
        value columns; a miss is spliced in at its sorted position.
        """
        self._check_same_space(other)
        if other.monoid is not self.monoid:  # re-prune under this identity
            other = SpMat(*other.shape, other.rows, other.cols, other.vals, self.monoid)
        if not other.nnz:
            return self
        if not self.nnz:
            return other
        keys, rows, cols, vals = self.keys(), self.rows, self.cols, self.vals
        pos = np.searchsorted(keys, other.keys())
        hit = keys[np.minimum(pos, len(keys) - 1)] == other.keys()
        dead = False
        if hit.any():
            at = pos[hit]
            folded = self.monoid.combine(
                take_fields(vals, at), take_fields(other.vals, hit.nonzero()[0])
            )
            vals = {name: col.copy() for name, col in vals.items()}
            for name, col in vals.items():
                col[at] = folded[name]
            dead = self.monoid.is_identity(folded).any()
        if not hit.all():
            miss = (~hit).nonzero()[0]
            # the j-th miss has pos[miss[j]] stored keys and j misses below it
            dest = pos[miss] + np.arange(len(miss))
            old = np.ones(len(keys) + len(miss), dtype=bool)
            old[dest] = False

            def splice(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
                out = np.empty(len(old), dtype=mine.dtype)
                out[old] = mine
                out[dest] = theirs[miss]
                return out

            keys = splice(keys, other.keys())
            rows, cols = splice(rows, other.rows), splice(cols, other.cols)
            vals = {name: splice(col, other.vals[name]) for name, col in vals.items()}
        out = SpMat(self.nrows, self.ncols, rows, cols, vals, self.monoid, canonical=True)
        out._keys = keys
        # only a folded pair can have become the identity (plus: 1 ⊕ −1)
        return out._kept(~self.monoid.is_identity(vals)) if dead else out

    def filter(self, predicate: Callable[[FieldArray], np.ndarray]) -> "SpMat":
        """Keep entries where ``predicate(vals)`` is True (CTF ``sparsify``)."""
        keep = np.asarray(predicate(self.vals), dtype=bool)
        if keep.shape != self.rows.shape:
            raise ValueError("predicate must return a mask over stored entries")
        return self._kept(keep)

    def map(
        self,
        fn: Callable[[FieldArray], FieldArray],
        monoid: Monoid | None = None,
    ) -> "SpMat":
        """Transform stored values with ``fn`` (CTF ``Transform``).

        ``monoid`` changes the output algebra (e.g. multpath → centpath).
        Results equal to the output identity are pruned.
        """
        monoid = monoid or self.monoid
        new_vals = fn({k: v.copy() for k, v in self.vals.items()})
        return self._with_values(new_vals, monoid)

    def align_values(self, other: "SpMat") -> FieldArray:
        """For each stored entry of ``self``, the value of ``other`` at the
        same coordinate (``other``'s monoid identity where unstored).

        ``other`` must have the same shape but may use a different monoid.
        """
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        my_keys = self.keys()
        other_keys = other.keys()
        out = other.monoid.identity_array(len(my_keys))
        if len(other_keys):
            pos = np.minimum(np.searchsorted(other_keys, my_keys), len(other_keys) - 1)
            found = (other_keys[pos] == my_keys).nonzero()[0]
            src = pos[found]
            for name, col in out.items():
                col[found] = other.vals[name][src]
        return out

    def zip_filter(
        self,
        other: "SpMat",
        predicate: Callable[[FieldArray, FieldArray], np.ndarray],
    ) -> "SpMat":
        """Keep entries of ``self`` where ``predicate(self_vals, other_vals)``
        holds, with ``other_vals`` aligned by coordinate (identity where
        ``other`` has no entry)."""
        other_vals = self.align_values(other)
        keep = np.asarray(predicate(self.vals, other_vals), dtype=bool)
        return self._kept(keep)

    def zip_map(
        self,
        other: "SpMat",
        fn: Callable[[FieldArray, FieldArray], FieldArray],
        monoid: Monoid | None = None,
    ) -> "SpMat":
        """Transform entries of ``self`` using ``other``'s aligned values.

        The support stays that of ``self`` (minus results equal to the output
        identity, which are pruned).
        """
        monoid = monoid or self.monoid
        other_vals = self.align_values(other)
        new_vals = fn({k: v.copy() for k, v in self.vals.items()}, other_vals)
        return self._with_values(new_vals, monoid)

    def column_sums(self, field: str) -> np.ndarray:
        """Per-column sums of one numeric field (dense length-``ncols``)."""
        return np.bincount(
            self.cols, weights=self.vals[field], minlength=self.ncols
        )

    def row_sums(self, field: str) -> np.ndarray:
        """Per-row sums of one numeric field (dense length-``nrows``)."""
        return np.bincount(self.rows, weights=self.vals[field], minlength=self.nrows)

    # -- structural operations -------------------------------------------------

    def transpose(self) -> "SpMat":
        """The transposed matrix (values unchanged): a permutation of the
        entries, so one key sort and nothing to fold or prune."""
        _, order = stable_key_sort(self.cols * self.nrows + self.rows)
        return SpMat(
            self.ncols,
            self.nrows,
            self.cols[order],
            self.rows[order],
            take_fields(self.vals, order),
            self.monoid,
            canonical=True,
        )

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "SpMat":
        """Extract rows [r0, r1) × cols [c0, c1) as a reindexed submatrix
        (CTF ``slice``).

        The rows are sorted, so the row range is one contiguous run found by
        binary search; columns are filtered inside that run only.  The full
        frame is this matrix itself.
        """
        if not (0 <= r0 <= r1 <= self.nrows and 0 <= c0 <= c1 <= self.ncols):
            raise ValueError(
                f"block [{r0}:{r1}, {c0}:{c1}] out of bounds for shape {self.shape}"
            )
        if (r0, r1, c0, c1) == (0, self.nrows, 0, self.ncols):
            return self
        lo, hi = np.searchsorted(self.rows, (r0, r1)).tolist()
        rows, cols = self.rows[lo:hi], self.cols[lo:hi]
        vals = {name: col[lo:hi] for name, col in self.vals.items()}
        if c0 or c1 < self.ncols:
            idx = ((cols >= c0) & (cols < c1)).nonzero()[0]
            rows, cols, vals = rows[idx], cols[idx], take_fields(vals, idx)
        return SpMat(
            r1 - r0,
            c1 - c0,
            rows - r0 if r0 else rows,
            cols - c0 if c0 else cols,
            vals,
            self.monoid,
            canonical=True,
        )

    def get(self, row: int, col: int) -> dict[str, object]:
        """Read a single entry (identity if unstored) — for tests/debugging."""
        key = row * self.ncols + col
        keys = self.keys()
        pos = np.searchsorted(keys, key)
        if pos < self.nnz and keys[pos] == key:
            return {k: v[pos] for k, v in self.vals.items()}
        return dict(self.monoid.identity)

    # -- comparison --------------------------------------------------------

    def equals(self, other: "SpMat") -> bool:
        """Exact structural + value equality of canonical forms."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        if not (
            np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
        ):
            return False
        return bool(np.all(self.monoid.equal(self.vals, other.vals)))

    def _check_same_space(self, other: "SpMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if self.monoid.field_spec != other.monoid.field_spec:
            raise ValueError("monoid schema mismatch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpMat(shape={self.shape}, nnz={self.nnz}, "
            f"monoid={type(self.monoid).__name__})"
        )
