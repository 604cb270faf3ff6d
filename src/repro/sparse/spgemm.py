"""Vectorized generalized SpGEMM: ``C = A •⟨⊕,f⟩ B`` on node-local matrices.

This is the blockwise kernel that plays the role of MKL's sparse BLAS in the
paper's stack (§6.2): every distributed algorithm variant ultimately calls it
on local blocks, and the sequential MFBC engine calls it on whole matrices.

Algorithm (the *generic* kernel): a sort-free hash-free *expansion join* —

1. B is canonical (row-major sorted), so its cached ``bincount`` row
   pointer (:meth:`SpMat.row_pointer`) delimits every row;
2. every nonzero ``A(i,k)`` is joined against all nonzeros of B's row ``k``
   by vectorized repetition (this enumerates exactly the ``ops(A, B)``
   nonzero products of the paper's cost model);
3. an optional GraphBLAS-style output mask drops joined pairs whose output
   coordinate falls outside (or, under a ``"complement"`` operator, inside)
   the mask's support *before* any value work — masked-out products are
   never formed;
4. ``f`` maps the surviving joined value pairs; under a ``"tie"`` operator
   (:attr:`MatMulSpec.mask_rule`) only the pairs whose weight equals the
   mask entry's stay, under a ``"bound"`` operator only those whose weight
   does not lose to it (every pair of a coordinate off the mask);
5. the monoid's ``reduce_by_key`` folds products landing on the same
   ``C(i,j)``.

Large expansions are processed in chunks of whole rows of A, so peak memory
stays proportional to ``chunk`` (or to the largest row's join) rather than
``ops(A, B)``, and every output row is reduced in one piece: the chunk never
changes a bit.

The public :func:`spgemm` entry point routes every product through the
kernel-dispatch tier (:mod:`repro.sparse.dispatch`), whose one fast path —
the compiled multpath/centpath kernel — is bit-identical
(post-canonicalization) to the generic kernel here; every other spec,
plus-times included, runs the generic kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.algebra.fields import FieldArray, concat_fields, take_fields
from repro.algebra.matmul import MatMulSpec
from repro.sparse.spmatrix import SpMat

__all__ = [
    "spgemm",
    "SpGemmResult",
    "count_ops",
    "DEFAULT_CHUNK",
]

#: the bound on joined pairs materialized at once when a caller names none
DEFAULT_CHUNK = 1 << 22


@dataclass(frozen=True)
class SpGemmResult:
    """Product matrix plus the work metric the paper's model charges."""

    matrix: SpMat
    #: number of nonzero elementary products formed — ``ops(A, B)`` in §5.1.
    #: With a mask this counts only the products that survive the mask (the
    #: saved work is the point of masking).
    ops: int
    #: ``ops`` split by the row of A (length ``a.nrows``; ``ops ==
    #: row_ops.sum()``): what charges each rank of a product over row strips
    row_ops: np.ndarray


def count_ops(a: SpMat, b: SpMat) -> int:
    """``ops(A, B)``: nonzero products of ``A •  B`` without forming them."""
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimension mismatch: {a.shape} × {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return 0
    ptr = b.row_pointer()
    return int((ptr[a.cols + 1] - ptr[a.cols]).sum())


def spgemm(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    *,
    mask: SpMat | None = None,
    chunk: int = DEFAULT_CHUNK,
    kernel: str = "auto",
) -> SpGemmResult:
    """Compute ``C = A •⟨⊕,f⟩ B``, optionally masked, via the kernel tier.

    Parameters
    ----------
    a, b:
        Operand matrices; ``a.ncols`` must equal ``b.nrows``.  ``a`` holds
        elements of ``f``'s first domain, ``b`` of its second.
    spec:
        The ``•⟨⊕,f⟩`` operator; the output matrix lives over ``spec.monoid``,
        and ``spec.mask_rule`` says how ``mask`` decides.
    mask:
        Optional structural output mask with C's shape.  Only output
        coordinates in ``mask``'s support are computed — under a
        ``"complement"`` operator only coordinates *outside* it, the
        ``mxmm_msa_cmask`` idiom that keeps frontier expansion from
        materializing settled vertices.  Values of ``mask`` are ignored,
        except the weights a ``"tie"`` or ``"bound"`` operator compares
        against.
    chunk:
        Upper bound on the number of joined pairs materialized at once,
        counted in whole rows of ``a``: a row whose join exceeds it is
        materialized alone, so the bound is ``max(chunk, largest row
        join)`` (the compiled path kernel holds a whole row's surviving
        pairs at once anyway).  Rows are never split, so the product's bits
        do not depend on it.
    kernel:
        ``"auto"`` (every caller of a run) routes the product through the
        dispatch tier; ``"generic"`` is the oracle's way of asking for the
        reference kernel.  Every dispatched path is bit-identical to the
        generic kernel post-canonicalization.
    """
    if kernel not in ("auto", "generic"):
        raise ValueError(f"unknown kernel {kernel!r}; expected 'auto' or 'generic'")
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimension mismatch: {a.shape} × {b.shape}")
    rule = spec.mask_rule
    if rule != "keep" and mask is None:
        raise ValueError(f"{spec.name}: a {rule!r} mask rule requires a mask")
    out_shape = (a.nrows, b.ncols)
    if mask is not None and mask.shape != out_shape:
        raise ValueError(
            f"mask shape {mask.shape} != output shape {out_shape}"
        )
    # An empty mask annihilates the product outright, unless it rules out
    # only what it holds: an empty complemented or bounding mask excludes
    # nothing, so the product is unmasked.
    if mask is not None and mask.nnz == 0 and rule in ("keep", "tie"):
        return _empty_result(a, b, spec)
    mask_keys = mask.keys() if (mask is not None and mask.nnz) else None
    # the weights a tie or bound operator's pairs are compared with, aligned
    # with mask_keys
    mask_w = None
    if mask_keys is not None and rule in ("tie", "bound"):
        mask_w = mask.vals[spec.monoid.weight_field]

    # deferred import: dispatch imports this module's internals
    from repro.sparse import dispatch

    if kernel == "auto":
        result = dispatch.dispatch_spgemm(
            a,
            b,
            spec,
            mask_keys=mask_keys,
            mask_w=mask_w,
            chunk=chunk,
        )
        if result is not None:
            return result
    return _spgemm_generic(a, b, spec, mask_keys=mask_keys, mask_w=mask_w, chunk=chunk)


#: a dense membership table over the output space answers mask lookups
#: when the space is at most this many times the expansion it filters
_MASK_TABLE_SPAN = 4


def _weight_rule(spec: MatMulSpec) -> tuple[Callable[..., np.ndarray], float]:
    """``(survives, miss)`` of a tie or bound operator: ``survives(pair_w,
    mask_w)`` — the pair's weight equals its mask entry's, or does not lose
    to it (the bound's order is the output monoid's ``select``) — and what a
    key off the mask reads: NaN, which ties nothing, or the infinity every
    weight but NaN is within."""
    if spec.mask_rule == "tie":
        return np.equal, np.nan
    if spec.monoid.select == "min":
        return np.less_equal, np.inf
    return np.greater_equal, -np.inf


def _mask_filter(
    mask_keys: np.ndarray, complement: bool, space: int, expansion: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``keep(keys)``: which output keys survive the sorted ``mask_keys``
    support (its complement when ``complement``).

    Built once per product.  A boolean table over the ``space`` of output
    keys makes each lookup one gather; it is used when it costs no more
    than a few bytes per joined pair of the ``expansion`` it will filter,
    and a binary search per key answers otherwise.
    """
    if space <= _MASK_TABLE_SPAN * expansion:
        table = np.full(space, complement, dtype=bool)
        table[mask_keys] = not complement
        return table.__getitem__
    # a sentinel past every key keeps the probe in range (and lets an empty
    # mask match nothing)
    padded = np.append(mask_keys, space)
    return lambda keys: (padded[np.searchsorted(mask_keys, keys)] == keys) != complement


def _mask_weight(
    mask_keys: np.ndarray, mask_w: np.ndarray, miss: float, space: int, expansion: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``weight(keys)``: the weights ``mask_w`` of the mask entries at
    ``keys``, ``miss`` at a key not in the sorted ``mask_keys`` — by a table
    over the output space or a binary search per key, on
    :func:`_mask_filter`'s rule."""
    if space <= _MASK_TABLE_SPAN * expansion:
        table = np.full(space, miss, dtype=mask_w.dtype)
        table[mask_keys] = mask_w
        return table.__getitem__
    # sentinels past the ends: a key that is not there reads ``miss``
    padded_keys = np.append(mask_keys, space)
    padded_w = np.append(mask_w, miss)

    def weight(keys):
        pos = np.searchsorted(mask_keys, keys)
        return padded_w[np.where(padded_keys[pos] == keys, pos, len(mask_keys))]

    return weight


def _expansion_chunks(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    mask_keys: np.ndarray | None,
    chunk: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the (a_idx, b_idx, keys) expansion join in bounded chunks,
    filtered by the support of the mask ``mask_keys`` on ``spec``'s rule
    (a ``"bound"`` rule decides on weights alone, after ``f``).

    The single source of truth for join enumeration and in-expansion mask
    filtering in numpy.  A chunk is whole rows of A (:func:`_chunk_bounds`),
    so each output row's pairs are all in one chunk.
    """
    ptr = b.row_pointer()
    b_start = ptr[a.cols]
    counts = ptr[a.cols + 1] - b_start
    total = int(counts.sum())
    if total == 0:
        return
    keep = None
    if mask_keys is not None and spec.mask_rule != "bound":
        keep = _mask_filter(
            mask_keys, spec.mask_rule == "complement", a.nrows * b.ncols, min(total, chunk)
        )

    def expand(lo: int, hi: int):
        nz = counts[lo:hi].nonzero()[0] + lo
        reps = counts[nz]
        a_idx = np.repeat(nz, reps)
        # b-side index: for each joined pair, offset within its B row run.
        b_idx = np.arange(len(a_idx))
        b_idx -= np.repeat(np.cumsum(reps) - reps, reps)
        b_idx += b_start[a_idx]
        keys = a.rows[a_idx] * np.int64(b.ncols) + b.cols[b_idx]
        if keep is not None:
            kept = keep(keys)
            if not kept.all():
                idx = kept.nonzero()[0]
                return a_idx[idx], b_idx[idx], keys[idx]
        return a_idx, b_idx, keys

    for lo, hi in _chunk_bounds(a.rows, counts, chunk):
        # yielded straight from the call: the suspended generator keeps no
        # reference, so a consumer's ``del`` really frees a chunk array
        yield expand(lo, hi)


def _spgemm_generic(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    *,
    mask_keys: np.ndarray | None = None,
    mask_w: np.ndarray | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> SpGemmResult:
    """The generic expansion-join kernel — correct for any MatMulSpec.

    ``mask_w`` (a tie or bound operator's mask weights, aligned with
    ``mask_keys``) keeps, after ``f``, only the pairs whose weight equals
    their key's, or does not lose to it (a key off the mask reads the
    losing infinity: it bounds nothing)."""
    monoid = spec.monoid
    out_shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        return _empty_result(a, b, spec)

    a_ptr = a.row_pointer()
    row_ops = np.zeros(a.nrows, dtype=np.int64)
    parts_rc: list[tuple[np.ndarray, np.ndarray]] = []
    parts_v: list[FieldArray] = []
    if mask_w is not None:
        survives, miss = _weight_rule(spec)
        mask_weight = _mask_weight(
            mask_keys, mask_w, miss, a.nrows * b.ncols, min(count_ops(a, b), chunk)
        )
    for a_idx, b_idx, keys in _expansion_chunks(a, b, spec, mask_keys, chunk):
        if len(keys) == 0:
            continue
        vals = spec.apply_f(take_fields(a.vals, a_idx), take_fields(b.vals, b_idx))
        del b_idx
        if mask_w is not None:
            kept = survives(vals[monoid.weight_field], mask_weight(keys))
            if not kept.all():
                idx = kept.nonzero()[0]
                a_idx, keys, vals = a_idx[idx], keys[idx], take_fields(vals, idx)
        # the surviving pairs' A entries ascend, so A's row pointer cuts them
        # into rows
        row_ops += np.diff(np.searchsorted(a_idx, a_ptr))
        del a_idx
        if len(keys) == 0:
            continue
        keys, vals = monoid.reduce_by_key(keys, vals)
        # keys are ``row * ncols + col``
        parts_rc.append((keys // b.ncols, keys % b.ncols))
        parts_v.append(vals)
    return _assemble_coords(*out_shape, parts_rc, parts_v, monoid, row_ops)


def _empty_result(a: SpMat, b: SpMat, spec: MatMulSpec) -> SpGemmResult:
    """The product that forms no pair: empty, zero ops on every row."""
    return SpGemmResult(
        SpMat.empty(a.nrows, b.ncols, spec.monoid), 0, np.zeros(a.nrows, dtype=np.int64)
    )


def _assemble_coords(
    nrows: int,
    ncols: int,
    parts_rc: list[tuple[np.ndarray, np.ndarray]],
    parts_v: list[FieldArray],
    monoid,
    row_ops: np.ndarray,
) -> SpGemmResult:
    """Final construction from per-chunk reduced ``((rows, cols), vals)``
    partials — the one tail the generic kernel and every fast path finish
    through, with the per-row op counts they tallied.

    Each partial is coordinate-unique and sorted, and the chunks hold whole
    rows in order, so the concatenated partials already are (a lone partial
    is taken as it is): only identity entries are pruned.
    """
    ops = int(row_ops.sum())
    if not parts_rc:
        return SpGemmResult(SpMat.empty(nrows, ncols, monoid), ops, row_ops)
    if len(parts_rc) == 1:
        (rows, cols), vals = parts_rc[0], parts_v[0]
    else:
        rows = np.concatenate([rows for rows, _ in parts_rc])
        cols = np.concatenate([cols for _, cols in parts_rc])
        vals = concat_fields(parts_v)
    keep = ~monoid.is_identity(vals)
    if not keep.all():
        idx = keep.nonzero()[0]
        rows, cols, vals = rows[idx], cols[idx], take_fields(vals, idx)
    mat = SpMat(nrows, ncols, rows, cols, vals, monoid, canonical=True)
    return SpGemmResult(mat, ops, row_ops)


def _chunk_bounds(rows: np.ndarray, counts: np.ndarray, chunk: int) -> list[tuple[int, int]]:
    """Partition A's entries ``range(len(counts))`` into runs of whole rows,
    each joining at most ``chunk`` pairs: ``rows`` are the entries' rows
    (ascending) and ``counts`` their joins.

    A row whose join exceeds ``chunk`` is a part of its own: a row is never
    cut, so every output row is reduced in one piece, whatever the chunk.
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    csum = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=csum[1:])
    if csum[-1] <= chunk:
        return [(0, len(counts))]
    # a part may start only at a row's first entry
    edges = np.concatenate(([0], np.flatnonzero(rows[1:] != rows[:-1]) + 1, [len(counts)]))
    joined = csum[edges]
    bounds: list[tuple[int, int]] = []
    lo = 0
    while lo < len(edges) - 1:
        hi = max(int(np.searchsorted(joined, joined[lo] + chunk, side="right")) - 1, lo + 1)
        bounds.append((int(edges[lo]), int(edges[hi])))
        lo = hi
    return bounds
