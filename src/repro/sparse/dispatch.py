"""Kernel dispatch tier: the one semiring-recognizing fast path for SpGEMM.

The generalized monoid kernel in :mod:`repro.sparse.spgemm` pays a
"generality tax" — field-array dict plumbing, schema validation, and a
monoid-dispatch reduction — on every product.  This module recognizes the
MFBC hot loop's structure in a :class:`~repro.algebra.matmul.MatMulSpec` and
routes it to a specialized kernel, playing the role MKL's compiled sparse
BLAS plays in the paper's stack (§6.2):

* **multpath / centpath** (the Bellman-Ford and Brandes actions of §4.1/§4.2)
  → a compiled row-wise accumulator (``_pathsum.c``) that never forms the
  joined pairs as a table and finishes each output entry in C: its best
  weight, its tied payload sums and its row's ops; where it cannot be built
  or loaded, or its sums fail the load-time probe, the generic kernel serves.

Every other product — plus-times, tropical min-plus, bottleneck max-min,
label-propagation min/left, … — runs the generic kernel.

The fast path is **bit-identical** to the generic kernel after
canonicalization: like the generic kernel it reduces each output row in
one piece (a join chunk is whole rows of A,
:func:`repro.sparse.spgemm._chunk_bounds`), filters by the mask inside the
join and sums each run's payloads with numpy's pairwise grouping, which
:mod:`repro.sparse._native` checks against ``np.add.reduceat`` once per
process.  A library kernel that sums each
output entry left to right cannot keep that contract on real-valued
payloads: ``reduceat`` adds a run's first term to the pairwise sum of the
rest, so the run ``[1e16, 1, 1]`` reads ``1e16 + 2`` here and ``1e16``
there (``docs/performance_model.md`` §4).
Every product dispatches; ``spgemm(..., kernel="generic")`` is how an
oracle skips this tier — ``repro.check`` differential replay recomputes
references that way, making the generic kernel the oracle for this tier.
It is not a run setting: no knob, flag or environment variable selects it.

There is no registry: :func:`dispatch_spgemm` asks the one recognizer, and
a new fast path is a new branch there, held to the same bit-identity
contract.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algebra.centpath import CentpathMonoid, brandes_action
from repro.algebra.fields import FieldArray
from repro.algebra.matmul import MASK_RULES, MatMulSpec
from repro.algebra.multpath import MultpathMonoid, bellman_ford_action
from repro.obs import api as obs
from repro.sparse import _native
from repro.sparse.spgemm import (
    SpGemmResult,
    _assemble_coords,
    _chunk_bounds,
)
from repro.sparse.spmatrix import SpMat

__all__ = ["dispatch_spgemm"]

def dispatch_spgemm(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    *,
    mask_keys: np.ndarray | None,
    mask_w: np.ndarray | None = None,
    chunk: int,
) -> SpGemmResult | None:
    """Route one product to the path-sum fast path.

    Returns ``None`` when the spec is not recognized or the fast path
    declines — the caller runs the generic kernel.  Emits one
    ``kernel.dispatch{kernel, outcome, phase}`` count per decision.
    """
    if a.nnz == 0 or b.nnz == 0:
        return None  # the generic empty path is already optimal
    kernel = _recognize_pathsum(spec)
    if kernel is None:
        _count_dispatch("generic", "unrecognized", spec.name)
        return None
    result = _pathsum_kernel(a, b, spec, mask_keys, mask_w, chunk)
    _count_dispatch(kernel, "declined" if result is None else "hit", spec.name)
    return result


def _count_dispatch(kernel: str, outcome: str, phase: str) -> None:
    if obs.enabled():
        obs.count("kernel.dispatch", 1.0, kernel=kernel, outcome=outcome, phase=phase)


# -- recognition -------------------------------------------------------------


def _recognize_pathsum(spec: MatMulSpec) -> str | None:
    """``"multpath"`` / ``"centpath"`` for the Bellman-Ford / Brandes specs."""
    if spec.f is bellman_ford_action and isinstance(spec.monoid, MultpathMonoid):
        return "multpath"
    if spec.f is brandes_action and isinstance(spec.monoid, CentpathMonoid):
        return "centpath"
    return None


# -- kernels -----------------------------------------------------------------


def _pathsum_kernel(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    mask_keys: np.ndarray | None,
    mask_w: np.ndarray | None,
    chunk: int,
) -> SpGemmResult | None:
    """Compiled path for the multpath/centpath monoids (MFBF/MFBr hot loop).

    The generic kernel materializes every output field of ``f`` for every
    joined pair before reducing.  Both actions pass A's payload through
    unchanged and only add (Bellman-Ford) or subtract (Brandes) the weights,
    so the pairs never need to exist as rows of a table: the compiled
    row-wise accumulator (``_pathsum.c``, built on first use by
    :mod:`repro.sparse._native`) walks the join and returns each chunk's
    entries with their weights and tie sums — the sums grouped as
    :meth:`MinWeightTieSumMonoid.tie_sum`'s ``np.add.reduceat`` groups them,
    which the loader's probe checks — so it is bit-identical to the generic
    kernel.  Declines — the generic kernel serves — where the library is not
    to be had, failed the probe, or an operand is not one C can read.
    """
    compiled = _native.pathsum()
    if compiled is None:
        return None
    return _pathsum_compiled(compiled, a, b, spec, mask_keys, mask_w, chunk)


def _pathsum_compiled(
    compiled: Callable[..., int],
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    mask_keys: np.ndarray | None,
    mask_w: np.ndarray | None,
    chunk: int,
) -> SpGemmResult | None:
    """One ``pathsum_chunk`` call per expansion chunk; ``None`` (decline)
    for operands C cannot read as they are — a column that is not 8-byte
    items, or a payload that is neither float64 nor int64.

    Per chunk the C side returns the output coordinates in key order, each
    run's weight and, per sum field, each run's tie sum (float64: the first
    tie plus numpy's pairwise sum of the other ties and the run's zero pads;
    int64: a wrapping sum), and adds each row's surviving pairs to
    ``row_ops``.  C reads ``spec.mask_rule``; under ``"tie"``, ``mask_w``
    makes a pair survive only if its weight equals its mask entry's.  What
    stays here is the chunking, the mask keys, the error codes and
    :func:`_assemble_coords`.
    A chunk is whole rows of A (:func:`_chunk_bounds`), so no row is
    reduced in pieces and the chunk never changes a bit; a row whose join
    exceeds ``chunk`` is a call of its own.
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
    ) or any(col.dtype not in _native.SUM_DTYPES for col in sums):
        return None
    ptr = b.row_pointer()
    counts = ptr[a_cols + 1] - ptr[a_cols]
    row_ops = np.zeros(a.nrows, dtype=np.int64)
    args = _native.PathsumArgs(
        a_rows=a_rows.ctypes.data, a_cols=a_cols.ctypes.data, a_w=aw.ctypes.data,
        b_ptr=ptr.ctypes.data, b_cols=b_cols.ctypes.data, b_w=bw.ctypes.data,
        ncols=b.ncols,
        rule=MASK_RULES.index(spec.mask_rule),
        negate=spec.f is brandes_action,
        select_max=monoid.select == "max",
        n_sum=len(sums),
        row_ops=row_ops.ctypes.data,
    )
    if mask_keys is not None:
        mask_keys = np.ascontiguousarray(mask_keys, dtype=np.int64)
        args.mask_keys, args.n_mask = mask_keys.ctypes.data, len(mask_keys)
    if mask_w is not None:
        mask_w = _native.words(mask_w, np.float64)
        if mask_w is None:
            return None
        args.mask_w = mask_w.ctypes.data
    for f, col in enumerate(sums):
        args.sum_in[f] = col.ctypes.data
        args.sum_int[f] = col.dtype == np.int64
    dtypes = dict(monoid.field_spec)
    parts_rc: list[tuple[np.ndarray, np.ndarray]] = []
    parts_v: list[FieldArray] = []
    for lo, hi in _chunk_bounds(a_rows, counts, chunk):
        joined = int(counts[lo:hi].sum())
        if joined == 0:
            continue
        # a run per pair at most, and per (row run of the chunk, column) at
        # most — counted, not inferred from A being sorted: C must never be
        # handed fewer slots than it can fill
        row_runs = 1 + np.count_nonzero(a_rows[lo + 1 : hi] != a_rows[lo : hi - 1])
        room = min(joined, int(row_runs) * b.ncols)
        rows, cols = (np.empty(room, dtype=np.int64) for _ in range(2))
        w = np.empty(room, dtype=np.float64)
        run_sums = [np.empty(room, dtype=col.dtype) for col in sums]
        args.lo, args.hi = lo, hi
        args.out_rows, args.out_cols, args.out_w = rows.ctypes.data, cols.ctypes.data, w.ctypes.data
        for f, out in enumerate(run_sums):
            args.sum_out[f] = out.ctypes.data
        status = compiled(args)  # by reference: argtypes is a pointer
        if status == _native.STATUS_NAN:
            raise ValueError("NaN weight in a tie-sum reduction")
        if status:
            raise MemoryError("pathsum_chunk could not allocate its accumulator")
        n_runs = args.n_runs
        if n_runs == 0:
            continue
        # shrink to the runs in place: a view would pin all of ``room``.
        # Only this loop's names refer to the buffers, hence no refcheck.
        for buf in (rows, cols, w, *run_sums):
            buf.resize(n_runs, refcheck=False)
        vals: FieldArray = {wf: w}
        for name, out in zip(names, run_sums):
            vals[name] = out.astype(dtypes[name], copy=False)
        parts_rc.append((rows, cols))
        parts_v.append(vals)
    return _assemble_coords(a.nrows, b.ncols, parts_rc, parts_v, monoid, row_ops)
