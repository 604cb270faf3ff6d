"""Commutative monoids over field arrays.

A :class:`Monoid` supplies the ``⊕`` operator of the generalized matrix
multiplication ``C = A •⟨⊕,f⟩ B`` (§3 of the paper).  Two operations are
required of every monoid:

* ``combine(a, b)`` — elementwise ``a ⊕ b`` on two equal-length field arrays
  (used for the elementwise matrix accumulations ``T ⊕ T̃`` and ``Z ⊗ Z̃``);
* ``reduce_by_key(keys, vals)`` — group the rows of ``vals`` by integer key
  and fold each group with ``⊕`` (the inner reduction of a sparse matmul).

The base class implements ``reduce_by_key`` by sorting and folding with
``combine`` in vectorized halving rounds, so any monoid defined purely by
``combine`` works out of the box.  Subclasses with more structure
(:class:`PlusMonoid`, :class:`MinMonoid`, :class:`MinWeightTieSumMonoid`)
override it with single-pass ``reduceat`` kernels.

Every reduction here is *sort-once*: :func:`stable_key_sort` orders the keys
(the only sort), :func:`segments` finds the key runs in one linear pass, and
the per-run fold never sorts or searches again.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.algebra.fields import FieldArray, empty_fields, take_fields

__all__ = [
    "stable_key_sort",
    "run_starts",
    "segments",
    "Monoid",
    "PlusMonoid",
    "MinMonoid",
    "MaxMonoid",
    "MinWeightTieSumMonoid",
]


def stable_key_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)`` for ``order = argsort(keys, kind="stable")``.

    Sorts the packed words ``key << bits | position`` by value
    (``bits = (n-1).bit_length()``): they are distinct, so any sort of them
    is the stable key order, and numpy's in-place integer sort is several
    times faster than an ``argsort``.  Keys and permutation fall out by shift
    and mask.  Negative keys, or keys too large to pack into 62 bits, take
    the plain stable ``argsort``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if n < 2:
        return keys, np.arange(n)
    bits = (n - 1).bit_length()
    # one unsigned pass bounds both ends: a negative key reads as >= 2**63
    if int(keys.view(np.uint64).max()) << bits >= 1 << 62:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys << bits
    packed |= np.arange(n)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return packed, order


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """First position of every run of equal keys in ``sorted_keys`` (so
    ``sorted_keys[starts]`` are the unique keys): one ``!=`` pass."""
    new_run = np.empty(len(sorted_keys), dtype=bool)
    new_run[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    return new_run.nonzero()[0]


def segments(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, seg_id)``: :func:`run_starts` plus, by one ``repeat``, the
    run ``seg_id[i]`` that each position ``i`` belongs to."""
    starts = run_starts(sorted_keys)
    lengths = np.concatenate((starts[1:], (len(sorted_keys),))) - starts
    return starts, np.repeat(np.arange(len(starts)), lengths)


class Monoid:
    """A commutative monoid ``(S, ⊕)`` over columnar elements.

    Parameters
    ----------
    field_spec:
        Sequence of ``(name, dtype)`` pairs describing the carrier set's
        columnar representation.
    identity:
        Mapping of field name to the identity element's value for that field.
        The identity doubles as the implicit value of unstored sparse-matrix
        entries.
    """

    def __init__(
        self,
        field_spec: Sequence[tuple[str, object]],
        identity: Mapping[str, object],
    ) -> None:
        self.field_spec: tuple[tuple[str, np.dtype], ...] = tuple(
            (name, np.dtype(dt)) for name, dt in field_spec
        )
        names = [name for name, _ in self.field_spec]
        if sorted(identity.keys()) != sorted(names):
            raise ValueError(
                f"identity must define exactly fields {names}, got {sorted(identity)}"
            )
        self.identity: dict[str, object] = dict(identity)

    # -- required elementwise operator ------------------------------------

    def combine(self, a: FieldArray, b: FieldArray) -> FieldArray:
        """Elementwise ``a ⊕ b``.  Must be overridden."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.field_spec)

    def empty(self) -> FieldArray:
        """A zero-length field array with this monoid's schema."""
        return empty_fields(self.field_spec)

    def identity_array(self, length: int) -> FieldArray:
        """``length`` copies of the identity element."""
        return {
            name: np.full(length, self.identity[name], dtype=dtype)
            for name, dtype in self.field_spec
        }

    def is_identity(self, vals: FieldArray) -> np.ndarray:
        """Boolean mask of rows equal to the identity element.

        Identity rows are the "zeros" of a sparse matrix over this monoid
        and may be dropped from storage.  NaN-free fields compare with
        ``==``; infinities compare correctly under IEEE semantics.
        """
        masks = [
            vals[name] == np.asarray(self.identity[name], dtype=dtype)
            for name, dtype in self.field_spec
        ]
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return out

    def equal(self, a: FieldArray, b: FieldArray) -> np.ndarray:
        """Elementwise equality of two field arrays (all fields must match)."""
        masks = [a[name] == b[name] for name, _ in self.field_spec]
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return out

    # -- reduction ---------------------------------------------------------

    def reduce_by_key(
        self, keys: np.ndarray, vals: FieldArray
    ) -> tuple[np.ndarray, FieldArray]:
        """Fold rows sharing a key with ``⊕``.

        Parameters
        ----------
        keys:
            Integer array, one key per row of ``vals`` (need not be sorted).
        vals:
            Field array of elements to reduce.

        Returns
        -------
        (unique_keys, reduced_vals):
            ``unique_keys`` sorted ascending, ``reduced_vals`` aligned with it.
        """
        if len(keys) == 0:
            return keys[:0], self.empty()
        keys, order = stable_key_sort(keys)
        return self._reduce_sorted(keys, take_fields(vals, order))

    def _reduce_sorted(
        self, keys: np.ndarray, vals: FieldArray
    ) -> tuple[np.ndarray, FieldArray]:
        """Reduce presorted ``(keys, vals)``.  Generic log-depth pairwise fold.

        Each round combines the element at an even position within its key
        run with its right neighbour, halving every run; associativity and
        commutativity make the pairing order irrelevant.  O(nnz) combines in
        total, fully vectorized — correct for *any* monoid.
        """
        while len(keys):
            starts, seg_id = segments(keys)
            if len(starts) == len(keys):
                return keys, vals
            pos = np.arange(len(keys)) - starts[seg_id]
            has_next = np.zeros(len(keys), dtype=bool)
            has_next[:-1] = keys[1:] == keys[:-1]
            left_idx = np.nonzero((pos % 2 == 0) & has_next)[0]
            merged = self.combine(
                take_fields(vals, left_idx), take_fields(vals, left_idx + 1)
            )
            vals = {name: np.asarray(col).copy() for name, col in vals.items()}
            for name in self.field_names:
                vals[name][left_idx] = merged[name]
            keep = np.ones(len(keys), dtype=bool)
            keep[left_idx + 1] = False
            keys = keys[keep]
            vals = take_fields(vals, keep.nonzero()[0])
        return keys, vals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(self.field_names)
        return f"{type(self).__name__}(fields=[{names}])"


class PlusMonoid(Monoid):
    """``(R, +)`` over a single numeric field (default field ``w``)."""

    def __init__(self, field: str = "w", dtype: object = np.float64) -> None:
        super().__init__([(field, dtype)], {field: 0})
        self._field = field

    def combine(self, a: FieldArray, b: FieldArray) -> FieldArray:
        return {self._field: a[self._field] + b[self._field]}

    def _reduce_sorted(self, keys, vals):
        starts = run_starts(keys)
        return keys[starts], {self._field: np.add.reduceat(vals[self._field], starts)}


class MinMonoid(Monoid):
    """``(W, min)`` over a single numeric field — the tropical additive monoid."""

    def __init__(self, field: str = "w", dtype: object = np.float64) -> None:
        super().__init__([(field, dtype)], {field: np.inf})
        self._field = field

    def combine(self, a: FieldArray, b: FieldArray) -> FieldArray:
        return {self._field: np.minimum(a[self._field], b[self._field])}

    def _reduce_sorted(self, keys, vals):
        starts = run_starts(keys)
        return keys[starts], {self._field: np.minimum.reduceat(vals[self._field], starts)}


class MaxMonoid(Monoid):
    """``(W ∪ {−∞}, max)`` over a single numeric field."""

    def __init__(self, field: str = "w", dtype: object = np.float64) -> None:
        super().__init__([(field, dtype)], {field: -np.inf})
        self._field = field

    def combine(self, a: FieldArray, b: FieldArray) -> FieldArray:
        return {self._field: np.maximum(a[self._field], b[self._field])}

    def _reduce_sorted(self, keys, vals):
        starts = run_starts(keys)
        return keys[starts], {self._field: np.maximum.reduceat(vals[self._field], starts)}


class MinWeightTieSumMonoid(Monoid):
    """The shared structure of the multpath and centpath monoids.

    ``x ⊕ y`` keeps the element whose ``weight_field`` is better (smaller when
    ``select="min"``, larger when ``select="max"``); on weight ties all
    ``sum_fields`` are added.  Multpath (§4.1.1) is the ``select="min"``
    instance over ``(w, m)``; centpath (§4.2.1) is the ``select="max"``
    instance over ``(w, p, c)``.

    The vectorized reduction (:meth:`tie_sum`) finds each key group's best
    weight and sums payload fields over the tied entries — linear passes, no
    weight sort, no Python-level loops.
    """

    def __init__(
        self,
        field_spec: Sequence[tuple[str, object]],
        identity: Mapping[str, object],
        weight_field: str = "w",
        select: str = "min",
    ) -> None:
        super().__init__(field_spec, identity)
        if select not in ("min", "max"):
            raise ValueError(f"select must be 'min' or 'max', got {select!r}")
        if weight_field not in self.field_names:
            raise ValueError(f"weight field {weight_field!r} not in {self.field_names}")
        self.weight_field = weight_field
        self.select = select
        self.sum_fields = tuple(n for n in self.field_names if n != weight_field)

    # -- elementwise -------------------------------------------------------

    def combine(self, a: FieldArray, b: FieldArray) -> FieldArray:
        wa, wb = a[self.weight_field], b[self.weight_field]
        if self.select == "min":
            a_wins = wa < wb
            b_wins = wb < wa
        else:
            a_wins = wa > wb
            b_wins = wb > wa
        tie = ~(a_wins | b_wins)
        out: FieldArray = {
            self.weight_field: np.where(a_wins | tie, wa, wb),
        }
        for name in self.sum_fields:
            # On ties both payloads are summed; ∞ ties between two identity
            # elements sum identity payloads, preserving the identity law
            # because identity payloads are zero.
            merged = np.where(a_wins, a[name], b[name])
            merged = np.where(tie, a[name] + b[name], merged)
            dtype = dict(self.field_spec)[name]
            out[name] = merged.astype(dtype, copy=False)
        return out

    # -- reduction ---------------------------------------------------------

    def _reduce_sorted(self, keys, vals):
        starts, seg_id = segments(keys)
        out = self.tie_sum(
            vals[self.weight_field],
            starts,
            seg_id,
            lambda idx: {name: vals[name][idx] for name in self.sum_fields},
        )
        return keys[starts], out

    def tie_sum(
        self,
        w_sorted: np.ndarray,
        starts: np.ndarray,
        seg_id: np.ndarray,
        payload: Callable[["np.ndarray | slice"], Mapping[str, np.ndarray]],
    ) -> FieldArray:
        """Fold every key run to its best weight and its tied payload sums.

        ``w_sorted`` holds the weights in stable key order (a NaN raises),
        ``starts`` / ``seg_id`` come from :func:`segments`, and
        ``payload(idx)`` returns the sum fields at the sorted positions
        ``idx`` — it is asked once, for the tied entries only.

        No weight sort: a linear stable partition moves each run's tied
        entries to the front of the run, in position order, with zeros
        behind.  That is the layout a ``(key, weight, position)`` lexsort
        feeds to ``np.add.reduceat``, whose pairwise summation depends only
        on run length and operand order, so the sums are bit-identical to
        that reduction's.  The run's weight is its first tied entry's, as
        under the lexsort, so a signed zero survives.

        The compiled path kernel has a twin of these sums, ``run_sum`` in
        ``repro/sparse/_pathsum.c``: numpy's pairwise grouping of this
        layout, zeros never stored.  A change to the layout changes both,
        and the probe in :mod:`repro.sparse._native` (C against
        ``np.add.reduceat`` on this layout) with them.
        """
        pick = np.minimum if self.select == "min" else np.maximum
        tied = w_sorted == pick.reduceat(w_sorted, starts)[seg_id]
        all_tied = bool(tied.all())  # e.g. every unweighted frontier
        if all_tied:
            idx, first = slice(None), starts
        else:
            idx = tied.nonzero()[0]
            tied_seg = seg_id[idx]
            counts = np.bincount(tied_seg, minlength=len(starts))
            if counts.min() == 0:  # NaN != NaN: the run ties with nothing
                raise ValueError("NaN weight in a tie-sum reduction")
            ahead = np.cumsum(counts) - counts  # tied entries before each run
            first = idx[ahead]
            # run r's j-th tied entry, the (ahead[r] + j)-th overall, goes
            # to starts[r] + j
            dest = (starts - ahead)[tied_seg]
            dest += np.arange(len(idx))
        out: FieldArray = {self.weight_field: w_sorted[first]}
        dtypes = dict(self.field_spec)
        for name, col in payload(idx).items():
            if not all_tied:
                tied_vals = col
                col = np.zeros(len(tied), dtype=tied_vals.dtype)
                col[dest] = tied_vals
            out[name] = np.add.reduceat(col, starts).astype(dtypes[name], copy=False)
        return out
