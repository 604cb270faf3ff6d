"""Processor-grid shapes: factorizations, resting layouts, survivor maps.

All SpGEMM variants (§5.2) operate on processor grids: 1D algorithms on a
``p`` vector, 2D on ``pr × pc``, 3D on ``p1 × p2 × p3``.  A grid is a plain
row-major rank array (``np.arange(p).reshape(dims)``) whose rows / columns
/ fibers are sliced into :class:`~repro.machine.collectives.Group` s; this
module holds the shape arithmetic around it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "factorizations",
    "log2ceil",
    "near_square_shape",
    "nearest_feasible_p",
    "survivor_map",
]


def log2ceil(q: int) -> int:
    """``⌈log₂ q⌉``: the depth of a collective's tree over ``q`` ranks
    (§7.4's latency factor); 0 for a single rank."""
    return math.ceil(math.log2(q)) if q > 1 else 0


def near_square_shape(p: int) -> tuple[int, int]:
    """The most-square ``pr × pc`` factorization of ``p`` (pr ≤ pc).

    The canonical helper for picking a resting 2D layout; the distributed
    engine and the tests import it from here.
    """
    best = (1, p)
    for d in range(1, int(math.isqrt(p)) + 1):
        if p % d == 0:
            best = (d, p // d)
    return best


def nearest_feasible_p(p_max: int, feasible=None) -> int:
    """The largest rank count ``q ≤ p_max`` the active variant can run on.

    ``feasible`` is a predicate on candidate rank counts (``None`` accepts
    everything — the :class:`~repro.spgemm.selector.AutoPolicy` case, which
    enumerates grids for any ``p``).  Pinned/restricted policies constrain
    the shape (CombBLAS needs a perfect square; CA-MFBC needs ``p/c`` a
    perfect square), so after losing ranks the elastic recovery layer asks
    this helper for the nearest grid it can actually rebuild.
    """
    if p_max < 1:
        raise ValueError(f"no feasible grid at or below p={p_max}")
    for q in range(int(p_max), 0, -1):
        if feasible is None or feasible(q):
            return q
    raise ValueError(
        f"no feasible grid at or below p={p_max} for the active variant"
    )


def survivor_map(p: int, dead) -> np.ndarray:
    """Old-rank → new-rank renumbering after removing ``dead`` ranks.

    Survivors are compacted in ascending order onto ``0..p'-1``; removed
    ranks map to ``-1``.  This is the canonical renumbering
    :meth:`~repro.machine.machine.Machine.shrink` applies to its ledger and
    the recovery layer applies to every resting block layout.
    """
    dead = np.asarray(sorted(set(int(r) for r in dead)), dtype=np.int64)
    if len(dead) and (dead.min() < 0 or dead.max() >= p):
        raise ValueError(f"dead ranks {dead.tolist()} out of range for p={p}")
    if len(dead) >= p:
        raise ValueError(f"cannot remove all {p} ranks")
    mapping = np.full(p, -1, dtype=np.int64)
    alive = np.setdiff1d(np.arange(p, dtype=np.int64), dead)
    mapping[alive] = np.arange(len(alive), dtype=np.int64)
    return mapping


def factorizations(p: int, ndim: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of ``p`` into ``ndim`` positive factors.

    The search space of the CTF-style mapping selector: e.g. ``p=8, ndim=3``
    yields (1,1,8), (1,2,4), (2,2,2), (8,1,1), ...
    """
    if ndim == 1:
        return [(p,)]
    out: list[tuple[int, ...]] = []
    for d in range(1, p + 1):
        if p % d == 0:
            for rest in factorizations(p // d, ndim - 1):
                out.append((d,) + rest)
    return out
