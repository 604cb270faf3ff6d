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
  → a fused path that forms only the weight column before the one key sort
  and gathers payload columns for the tied entries alone.

Every other product — the remaining semirings (tropical min-plus, bottleneck
max-min, label-propagation min/left, …) included — runs the generic kernel.

Every fast path is **bit-identical** to the generic kernel after
canonicalization: the path kernel consumes the exact expansion chunks the
generic kernel would (:func:`repro.sparse.spgemm._expansion_chunks`,
including in-expansion mask filtering) and reduces them with the same
primitive in the same order; scipy accumulates in the same order.
``repro.check`` differential replay recomputes references with
``kernel="generic"``, making the generic kernel the oracle for this tier.

The ``kernel`` knob (:mod:`repro.config`) selects:

* ``generic``: never dispatch (the pure oracle kernel);
* ``auto`` (default): dispatch recognized specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

from repro import config
from repro.algebra.centpath import CentpathMonoid, brandes_action
from repro.algebra.fields import FieldArray, take_fields
from repro.algebra.matmul import MatMulSpec
from repro.algebra.monoid import PlusMonoid, segments, stable_key_sort
from repro.algebra.multpath import MultpathMonoid, bellman_ford_action
from repro.algebra.semiring import SemiringAction
from repro.obs import api as obs
from repro.sparse.spgemm import (
    SpGemmResult,
    _assemble,
    _expansion_chunks,
    count_ops,
)
from repro.sparse.spmatrix import SpMat

__all__ = [
    "KERNEL_MODES",
    "KernelTraits",
    "recognize",
    "register_fast_path",
    "resolve_kernel_mode",
    "dispatch_spgemm",
]

#: Valid kernel modes, weakest dispatch first.
KERNEL_MODES = ("generic", "auto")

#: Below this ops count the scipy conversion is skipped (its fixed
#: CSR-build cost outweighs the compiled multiply on trivial products).
_SCIPY_MIN_OPS = 4096


def _parse_mode(mode: str) -> str:
    mode = str(mode).strip().lower()
    if mode not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
        )
    return mode


def resolve_kernel_mode(mode: str | None = None) -> str:
    """Resolve the ``kernel`` knob (see :func:`repro.config.ambient`)."""
    return config.ambient("kernel", mode, _parse_mode)


@dataclass(frozen=True)
class KernelTraits:
    """What the dispatcher recognized about a :class:`MatMulSpec`.

    Attributes
    ----------
    path:
        Registered fast-path name (``"plus-times"``, ``"multpath"``,
        ``"centpath"``, or an extension's name).
    field:
        The single carrier field for the semiring path, ``None`` otherwise.
    """

    path: str
    field: str | None = None


#: impl(a, b, spec, traits, *, mask_keys, mask_complement, chunk)
#: returning a result or ``None`` to decline (caller falls back to generic).
KernelImpl = Callable[..., "SpGemmResult | None"]

#: recognizer(spec) returning :class:`KernelTraits` or ``None``.
Recognizer = Callable[[MatMulSpec], "KernelTraits | None"]

_FAST_PATHS: list[tuple[Recognizer, KernelImpl]] = []


def register_fast_path(recognizer: Recognizer, impl: KernelImpl) -> None:
    """Extension hook: add a recognizer + kernel pair to the dispatch table.

    Later registrations are consulted after the built-ins.  A registered
    kernel MUST be bit-identical (post-canonicalization) to the generic
    kernel — ``repro.check`` replays will fail otherwise.
    """
    _FAST_PATHS.append((recognizer, impl))


def recognize(spec: MatMulSpec) -> KernelTraits | None:
    """The traits of the first fast path claiming ``spec``, if any."""
    for recognizer, _ in _FAST_PATHS:
        traits = recognizer(spec)
        if traits is not None:
            return traits
    return None


def dispatch_spgemm(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    *,
    mask_keys: np.ndarray | None,
    mask_complement: bool,
    chunk: int,
) -> SpGemmResult | None:
    """Route one product through the fast-path table.

    Returns ``None`` when no fast path applies — the caller runs the generic
    kernel.  Emits a ``kernel.dispatch`` counter per decision.
    """
    if a.nnz == 0 or b.nnz == 0:
        return None  # the generic empty path is already optimal
    for recognizer, impl in _FAST_PATHS:
        traits = recognizer(spec)
        if traits is None:
            continue
        result = impl(
            a,
            b,
            spec,
            traits,
            mask_keys=mask_keys,
            mask_complement=mask_complement,
            chunk=chunk,
        )
        if result is not None:
            _count_dispatch(traits.path, "hit", spec.name)
            return result
        _count_dispatch(traits.path, "declined", spec.name)
        return None
    _count_dispatch("generic", "unrecognized", spec.name)
    return None


def _count_dispatch(kernel: str, outcome: str, phase: str) -> None:
    if obs.enabled():
        obs.count("kernel.dispatch", 1.0, kernel=kernel, outcome=outcome, phase=phase)


# -- recognition (built-ins) -------------------------------------------------


def _recognize_plus_times(spec: MatMulSpec) -> KernelTraits | None:
    f = spec.f
    if (
        isinstance(f, SemiringAction)
        and f.multiply is np.multiply
        and isinstance(spec.monoid, PlusMonoid)
        and spec.monoid.field_names == (f.field,)
    ):
        return KernelTraits("plus-times", field=f.field)
    return None


def _recognize_pathsum(spec: MatMulSpec) -> KernelTraits | None:
    if spec.f is bellman_ford_action and isinstance(spec.monoid, MultpathMonoid):
        return KernelTraits("multpath")
    if spec.f is brandes_action and isinstance(spec.monoid, CentpathMonoid):
        return KernelTraits("centpath")
    return None


# -- kernels -----------------------------------------------------------------


def _scipy_plus_times(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    traits: KernelTraits,
    *,
    mask_keys: np.ndarray | None,
    mask_complement: bool,
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
    total = count_ops(a, b)
    if total > chunk or total < _SCIPY_MIN_OPS:
        return None
    field = traits.field
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
    return SpGemmResult(mat, total)


def _pathsum_kernel(
    a: SpMat,
    b: SpMat,
    spec: MatMulSpec,
    traits: KernelTraits,
    *,
    mask_keys: np.ndarray | None,
    mask_complement: bool,
    chunk: int,
) -> SpGemmResult:
    """Fused path for the multpath/centpath monoids (MFBF/MFBr hot loop).

    The generic kernel materializes every output field of ``f`` for every
    joined pair before reducing.  Both actions pass A's payload through
    unchanged and only add (Bellman-Ford) or subtract (Brandes) the weights,
    so this path forms the weight column alone, sorts the keys once, and
    lets :meth:`MinWeightTieSumMonoid.tie_sum` gather payloads for the tied
    entries only — the same reduction on the same sorted sequence, bitwise
    identically.
    """
    monoid = spec.monoid
    wf = monoid.weight_field
    negate = spec.f is brandes_action
    aw, bw = a.vals[wf], b.vals[wf]
    sums = {name: a.vals[name] for name in monoid.sum_fields}
    ops_done = 0
    parts_k: list[np.ndarray] = []
    parts_v: list[FieldArray] = []
    for a_idx, b_idx, keys in _expansion_chunks(
        a, b, mask_keys, mask_complement, chunk
    ):
        ops_done += len(keys)
        if len(keys) == 0:
            continue
        w = aw[a_idx] - bw[b_idx] if negate else aw[a_idx] + bw[b_idx]
        del b_idx
        keys, order = stable_key_sort(keys)
        w = w[order]
        starts, seg_id = segments(keys)
        parts_k.append(keys[starts])
        del keys
        parts_v.append(
            monoid.tie_sum(
                w, starts, seg_id, lambda idx: take_fields(sums, a_idx[order[idx]])
            )
        )
    return _assemble(a.nrows, b.ncols, parts_k, parts_v, monoid, ops_done)


register_fast_path(_recognize_plus_times, _scipy_plus_times)
register_fast_path(_recognize_pathsum, _pathsum_kernel)
