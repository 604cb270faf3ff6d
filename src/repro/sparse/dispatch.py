"""Kernel dispatch tier: semiring-recognizing fast paths for SpGEMM.

The generalized monoid kernel in :mod:`repro.sparse.spgemm` pays a
"generality tax" — field-array dict plumbing, schema validation, and a
monoid-dispatch reduction — on every product.  This module recognizes
structure in a :class:`~repro.algebra.matmul.MatMulSpec` and routes it to a
specialized kernel, playing the role MKL's compiled sparse BLAS plays in the
paper's stack (§6.2):

* **plus-times** (:class:`PlusMonoid` + ``np.multiply`` semiring action) →
  scipy's compiled ``csr @ csr`` when the product is unmasked, fits one
  expansion chunk and is large enough to repay the CSR conversion;
* **multpath / centpath** (the Bellman-Ford and Brandes actions of §4.1/§4.2)
  → a compiled row-wise accumulator (``_pathsum.c``) that never forms the
  joined pairs as a table and copies payload words for the tied entries
  alone; where it cannot be built or loaded the generic kernel serves.

Every other product — the remaining semirings (tropical min-plus, bottleneck
max-min, label-propagation min/left, …) included — runs the generic kernel.

Every fast path is **bit-identical** to the generic kernel after
canonicalization: the path kernel cuts the join at the generic kernel's
chunk bounds (:func:`repro.sparse.spgemm._chunk_bounds`), filters by the
mask inside the join and reduces with the same primitive in the same order;
scipy accumulates in the same order.
Every product dispatches; ``spgemm(..., kernel="generic")`` is how an
oracle skips this tier — ``repro.check`` differential replay recomputes
references that way, making the generic kernel the oracle for this tier.
It is not a run setting: no knob, flag or environment variable selects it.

There is no registry: :func:`dispatch_spgemm` asks the two recognizers in
order, and a new fast path is a new branch there, held to the same
bit-identity contract.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse

from repro.algebra.centpath import CentpathMonoid, brandes_action
from repro.algebra.fields import FieldArray
from repro.algebra.matmul import MatMulSpec
from repro.algebra.monoid import PlusMonoid
from repro.algebra.multpath import MultpathMonoid, bellman_ford_action
from repro.algebra.semiring import SemiringAction
from repro.obs import api as obs
from repro.sparse import _native
from repro.sparse.spgemm import (
    SpGemmResult,
    _assemble_coords,
    _chunk_bounds,
)
from repro.sparse.spmatrix import SpMat

__all__ = ["dispatch_spgemm"]

#: Below this ops count the scipy conversion is skipped (its fixed
#: CSR-build cost outweighs the compiled multiply on trivial products).
_SCIPY_MIN_OPS = 4096


def dispatch_spgemm(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    *,
    mask_keys: np.ndarray | None,
    mask_complement: bool,
    chunk: int,
) -> SpGemmResult | None:
    """Route one product to its fast path: plus-times first, then path-sum.

    Returns ``None`` when no fast path applies or the one that applies
    declines — the caller runs the generic kernel.  Emits one
    ``kernel.dispatch{kernel, outcome, phase}`` count per decision.
    """
    if a.nnz == 0 or b.nnz == 0:
        return None  # the generic empty path is already optimal
    if _recognize_plus_times(spec):
        kernel = "plus-times"
        result = _scipy_plus_times(a, b, spec, mask_keys=mask_keys, chunk=chunk)
    else:
        kernel = _recognize_pathsum(spec)
        if kernel is None:
            _count_dispatch("generic", "unrecognized", spec.name)
            return None
        result = _pathsum_kernel(a, b, spec, mask_keys, mask_complement, chunk)
    _count_dispatch(kernel, "declined" if result is None else "hit", spec.name)
    return result


def _count_dispatch(kernel: str, outcome: str, phase: str) -> None:
    if obs.enabled():
        obs.count("kernel.dispatch", 1.0, kernel=kernel, outcome=outcome, phase=phase)


# -- recognition -------------------------------------------------------------


def _recognize_plus_times(spec: MatMulSpec) -> bool:
    f = spec.f
    return (
        isinstance(f, SemiringAction)
        and f.multiply is np.multiply
        and isinstance(spec.monoid, PlusMonoid)
        and spec.monoid.field_names == (f.field,)
    )


def _recognize_pathsum(spec: MatMulSpec) -> str | None:
    """``"multpath"`` / ``"centpath"`` for the Bellman-Ford / Brandes specs."""
    if spec.f is bellman_ford_action and isinstance(spec.monoid, MultpathMonoid):
        return "multpath"
    if spec.f is brandes_action and isinstance(spec.monoid, CentpathMonoid):
        return "centpath"
    return None


# -- kernels -----------------------------------------------------------------


def _scipy_plus_times(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    *,
    mask_keys: np.ndarray | None,
    chunk: int,
) -> SpGemmResult | None:
    """Compiled ``csr @ csr`` for the (R, +, ×) semiring.

    Bit-identity with the generic kernel holds because scipy accumulates
    each C(i,j) over k ascending exactly as the generic single-chunk
    ``add.reduceat`` does (an initial ``+0.0`` can only differ on the sign
    of a zero, and zero results are pruned by both sides); it therefore
    declines multi-chunk products, whose per-chunk partial sums group
    differently, and masked products, which the generic kernel filters
    in-expansion.
    """
    if mask_keys is not None:
        return None
    if spec.monoid.field_spec[0][1] != np.dtype(np.float64):
        return None
    ptr = b.row_pointer()
    joined = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(ptr[a.cols + 1] - ptr[a.cols], out=joined[1:])
    total = int(joined[-1])
    if total > chunk or total < _SCIPY_MIN_OPS:
        return None
    field = spec.f.field
    sa = scipy.sparse.csr_matrix(
        (a.vals[field], (a.rows, a.cols)), shape=a.shape
    )
    sb = scipy.sparse.csr_matrix(
        (b.vals[field], (b.rows, b.cols)), shape=b.shape
    )
    c = sa @ sb
    # canonicalize: the CSC round-trip is two linear counting-sort passes,
    # measurably faster than csr_sort_indices' per-row comparison sorts on
    # the dense products this path exists for (and bit-identical to them)
    c = c.tocsc().tocsr()
    c.eliminate_zeros()
    coo = c.tocoo()
    mat = SpMat(
        a.nrows,
        b.ncols,
        coo.row.astype(np.int64),
        coo.col.astype(np.int64),
        {field: coo.data.astype(np.float64, copy=False)},
        spec.monoid,
        canonical=True,
    )
    return SpGemmResult(mat, total, np.diff(joined[a.row_pointer()]))


def _pathsum_kernel(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    mask_keys: np.ndarray | None,
    mask_complement: bool,
    chunk: int,
) -> SpGemmResult | None:
    """Compiled path for the multpath/centpath monoids (MFBF/MFBr hot loop).

    The generic kernel materializes every output field of ``f`` for every
    joined pair before reducing.  Both actions pass A's payload through
    unchanged and only add (Bellman-Ford) or subtract (Brandes) the weights,
    so the pairs never need to exist as rows of a table: the compiled
    row-wise accumulator (``_pathsum.c``, built on first use by
    :mod:`repro.sparse._native`) walks the join and lays each chunk out for
    the ``add.reduceat`` that :meth:`MinWeightTieSumMonoid.tie_sum` runs, so
    it is bit-identical to the generic kernel.  Declines — the generic
    kernel serves — where the library is not to be had or an operand is not
    one C can read.
    """
    compiled = _native.pathsum()
    if compiled is None:
        return None
    return _pathsum_compiled(compiled, a, b, spec, mask_keys, mask_complement, chunk)


def _head(buf: np.ndarray, n: int) -> np.ndarray:
    """``buf[:n]``, copied when a view would pin a buffer twice its size."""
    return buf[:n] if 2 * n >= len(buf) else buf[:n].copy()


def _pathsum_compiled(
    compiled: Callable[..., int],
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    mask_keys: np.ndarray | None,
    mask_complement: bool,
    chunk: int,
) -> SpGemmResult | None:
    """One ``pathsum_chunk`` call per expansion chunk, ``add.reduceat`` over
    what it lays out; ``None`` (decline) for operands C cannot read as
    they are.

    Per chunk the C side returns the output coordinates in key order, each
    run's weight and start, and per sum field the array ``tie_sum`` calls
    ``col`` — a run's tied payloads first, in join order, ``+0.0`` behind.
    The chunks are :func:`_chunk_bounds`'s, so a row cut by a boundary is
    reduced in the same two pieces as by the generic kernel.
    """
    if a.ncols != b.nrows:  # C indexes B's row pointer by A's columns
        raise ValueError(f"inner dimension mismatch: {a.shape} × {b.shape}")
    monoid = spec.monoid
    wf = monoid.weight_field
    names = monoid.sum_fields
    a_rows, a_cols, b_cols = (_native.words(x, np.int64) for x in (a.rows, a.cols, b.cols))
    aw, bw = (_native.words(m.vals[wf], np.float64) for m in (a, b))
    sums = [_native.words(a.vals[name]) for name in names]
    if len(sums) > _native.MAX_SUM or any(
        x is None for x in (a_rows, a_cols, b_cols, aw, bw, *sums)
    ):
        return None
    ptr = b.row_pointer()
    counts = ptr[a_cols + 1] - ptr[a_cols]
    args = _native.PathsumArgs(
        a_rows=a_rows.ctypes.data, a_cols=a_cols.ctypes.data, a_w=aw.ctypes.data,
        b_ptr=ptr.ctypes.data, b_cols=b_cols.ctypes.data, b_w=bw.ctypes.data,
        ncols=b.ncols,
        complement=mask_complement,
        negate=spec.f is brandes_action,
        select_max=monoid.select == "max",
        n_sum=len(sums),
    )
    if mask_keys is not None:
        mask_keys = np.ascontiguousarray(mask_keys, dtype=np.int64)
        args.mask_keys, args.n_mask = mask_keys.ctypes.data, len(mask_keys)
    for f, col in enumerate(sums):
        args.sum_in[f] = col.ctypes.data
    dtypes = dict(monoid.field_spec)
    row_ops = np.zeros(a.nrows, dtype=np.int64)
    row_ids = np.arange(a.nrows + 1)
    parts_rc: list[tuple[np.ndarray, np.ndarray]] = []
    parts_v: list[FieldArray] = []
    for lo, hi in _chunk_bounds(counts, chunk):
        joined = int(counts[lo:hi].sum())
        if joined == 0:
            continue
        # a run per pair at most, and per (row run of the chunk, column) at
        # most — counted, not inferred from A being sorted: C must never be
        # handed fewer slots than it can fill
        row_runs = 1 + np.count_nonzero(a_rows[lo + 1 : hi] != a_rows[lo : hi - 1])
        room = min(joined, int(row_runs) * b.ncols)
        rows, cols, starts = (np.empty(room, dtype=np.int64) for _ in range(3))
        w = np.empty(room, dtype=np.float64)
        layout = [np.zeros(joined, dtype=col.dtype) for col in sums]
        args.lo, args.hi = lo, hi
        args.out_rows, args.out_cols = rows.ctypes.data, cols.ctypes.data
        args.out_starts, args.out_w = starts.ctypes.data, w.ctypes.data
        for f, col in enumerate(layout):
            args.sum_out[f] = col.ctypes.data
        status = compiled(args)  # by reference: argtypes is a pointer
        if status == _native.STATUS_NAN:
            raise ValueError("NaN weight in a tie-sum reduction")
        if status:
            raise MemoryError("pathsum_chunk could not allocate its accumulator")
        n_runs, n_pairs = args.n_runs, args.n_pairs
        if n_pairs == 0:
            continue
        starts = starts[:n_runs]
        # runs are in key order: a row's runs are contiguous, and its pairs
        # run from its first run's start to the next row's
        first = np.searchsorted(rows[:n_runs], row_ids)
        row_ops += np.diff(np.where(first < n_runs, starts[np.minimum(first, n_runs - 1)], n_pairs))
        vals: FieldArray = {wf: _head(w, n_runs)}
        for name, col in zip(names, layout):
            vals[name] = np.add.reduceat(col[:n_pairs], starts).astype(
                dtypes[name], copy=False
            )
        parts_rc.append((_head(rows, n_runs), _head(cols, n_runs)))
        parts_v.append(vals)
    return _assemble_coords(a.nrows, b.ncols, parts_rc, parts_v, monoid, row_ops)

