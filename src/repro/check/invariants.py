"""Structural invariant validators for matrices, distributions, and charges.

Every validator returns a ``list[Violation]`` — empty when the object is
sound — rather than raising on first failure, so a caller can collect the
full damage report (the :class:`~repro.check.engine.CheckedEngine` raises a
single :class:`CheckError` carrying all of them).

The invariants validated here are exactly the ones the reproduction's
correctness argument rests on:

* **SpMat canonical form** (:func:`check_spmat`) — entries sorted by
  ``(row, col)``, coordinates unique and in range, no stored
  monoid-identity values (the identity is the implicit value of unstored
  entries), and value columns matching the monoid's field schema.
* **DistMat distribution** (:func:`check_distmat`) — splits tile the index
  space, every block sits on a distinct in-range owning rank, block shapes
  agree with the splits, every block is itself canonical over the shared
  monoid, and (``deep=True``) the gathered matrix is canonical with no
  cross-block coordinate collisions.
* **Ledger accounting** (:func:`check_ledger`) — every accumulator is
  finite and non-negative; each rank's communication time is bounded by
  the α-β closed form ``β·words + α·msgs`` (each collective charges
  exactly ``weight·(x·β + ⌈log₂ q⌉·α)`` after a max-merge, so the bound
  follows by induction — see §5.1/§7.4); communication time never exceeds
  total modeled time; flat totals dominate critical-path totals; traffic
  categories sum to the flat total; and peak memory is a true high-water
  mark (monotone within an epoch, i.e. ``peak ≥ used`` until the next
  ``reset_memory``).  Optionally, critical-path words are checked against
  the paper's MFBC bandwidth closed form from
  :mod:`repro.analysis.theory` with a caller-supplied slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dist.distmat import DistMat
from repro.sparse.spmatrix import SpMat

__all__ = [
    "Violation",
    "CheckError",
    "check_spmat",
    "check_distmat",
    "check_ledger",
    "check_matrix",
    "require_clean",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: where, which rule, and the evidence."""

    site: str  #: where the object came from, e.g. ``"spgemm.operand_a"``
    rule: str  #: short rule identifier, e.g. ``"sorted"``, ``"identity"``
    message: str  #: human-readable statement of the breakage
    context: dict = field(default_factory=dict)  #: supporting numbers

    def __str__(self) -> str:
        ctx = ""
        if self.context:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
            ctx = f" ({pairs})"
        return f"[{self.site}] {self.rule}: {self.message}{ctx}"


class CheckError(AssertionError):
    """Raised by :func:`require_clean` with the full violation list attached."""

    def __init__(self, violations: list[Violation], note: str = "") -> None:
        self.violations = list(violations)
        lines = ([note] if note else []) + [str(v) for v in self.violations]
        super().__init__("invariant violation(s):\n  " + "\n  ".join(lines))


def require_clean(violations: list[Violation], note: str = "") -> None:
    """Raise :class:`CheckError` if ``violations`` is non-empty."""
    if violations:
        raise CheckError(violations, note)


# ---------------------------------------------------------------------------
# SpMat canonical form
# ---------------------------------------------------------------------------


def check_spmat(mat: SpMat, *, site: str = "spmat") -> list[Violation]:
    """Validate canonical COO form (cheap: a few vectorized passes over nnz)."""
    out: list[Violation] = []

    def bad(rule: str, message: str, **context) -> None:
        out.append(Violation(site, rule, message, context))

    if mat.nrows < 0 or mat.ncols < 0:
        bad("shape", "negative dimensions", nrows=mat.nrows, ncols=mat.ncols)
        return out
    if mat.rows.dtype != np.int64 or mat.cols.dtype != np.int64:
        bad(
            "dtype",
            "coordinates must be int64",
            rows=str(mat.rows.dtype),
            cols=str(mat.cols.dtype),
        )
    nnz = len(mat.rows)
    if len(mat.cols) != nnz:
        bad("length", "rows/cols length mismatch", rows=nnz, cols=len(mat.cols))
        return out

    spec = mat.monoid.field_spec
    names = tuple(name for name, _ in spec)
    if tuple(mat.vals.keys()) != names:
        bad(
            "fields",
            "value fields do not match the monoid schema",
            have=tuple(mat.vals.keys()),
            want=names,
        )
        return out
    for name, dtype in spec:
        col = mat.vals[name]
        if len(col) != nnz:
            bad("length", f"field {name!r} length mismatch", field=len(col), coords=nnz)
            return out
        if col.dtype != dtype:
            bad(
                "dtype",
                f"field {name!r} has dtype {col.dtype}, schema says {dtype}",
                field=name,
            )

    if nnz == 0:
        return out

    rows, cols = mat.rows, mat.cols
    # canonical order read straight off the coordinates — strictly increasing
    # in (row, col) — so a clean matrix forms no keys or differences, and its
    # row extremes are its two ends
    climbs = rows[1:] > rows[:-1]
    climbs |= cols[1:] > cols[:-1]
    ordered = bool(climbs.all()) and bool(np.all(rows[1:] >= rows[:-1]))
    row_lo, row_hi = (rows[0], rows[-1]) if ordered else (rows.min(), rows.max())
    if row_lo < 0 or row_hi >= mat.nrows:
        bad(
            "range",
            "row coordinate out of bounds",
            min=int(row_lo),
            max=int(row_hi),
            nrows=mat.nrows,
        )
    # read unsigned, a negative column is huge: one max bounds both ends
    if cols.astype(np.int64, copy=False).view(np.uint64).max() >= mat.ncols:
        bad(
            "range",
            "column coordinate out of bounds",
            min=int(cols.min()),
            max=int(cols.max()),
            ncols=mat.ncols,
        )
    if not ordered and not out:  # keys only mean something for in-range coordinates
        diffs = np.diff(rows * mat.ncols + cols)
        if np.any(diffs < 0):
            bad(
                "sorted",
                "entries are not sorted by (row, col)",
                first_inversion=int(np.argmax(diffs < 0)),
            )
        else:
            bad(
                "unique",
                "duplicate coordinates stored",
                duplicates=int(np.count_nonzero(diffs == 0)),
            )

    stored_identity = mat.monoid.is_identity(mat.vals)
    if np.any(stored_identity):
        bad(
            "identity",
            "stored entries equal to the monoid identity",
            count=int(np.count_nonzero(stored_identity)),
        )

    cached = mat._rowptr
    if cached is not None:
        expect = np.zeros(mat.nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(mat.rows, minlength=mat.nrows), out=expect[1:])
        if not np.array_equal(cached, expect):
            bad("rowptr", "cached row pointer is stale")
    if mat._keys is not None and not np.array_equal(mat._keys, rows * mat.ncols + cols):
        bad("keys", "cached linearized keys are stale")
    return out


# ---------------------------------------------------------------------------
# DistMat distribution
# ---------------------------------------------------------------------------


def _check_splits(splits: np.ndarray, axis: str, site: str) -> list[Violation]:
    out: list[Violation] = []
    if splits[0] != 0:
        out.append(
            Violation(
                site,
                "splits",
                f"{axis} splits do not start at 0",
                {"first": int(splits[0]), "last": int(splits[-1])},
            )
        )
    if np.any(np.diff(splits) < 0):
        out.append(
            Violation(site, "splits", f"{axis} splits are not non-decreasing", {})
        )
    return out


def check_distmat(
    dmat: DistMat, *, site: str = "distmat", deep: bool = False
) -> list[Violation]:
    """Validate a block distribution.

    ``deep=True`` additionally gathers the matrix and verifies that blocks
    tile disjointly: the gathered canonical form must hold exactly the union
    of the block entries, with nothing folded across blocks.  Every read is
    a :meth:`DistMat.peek` — validation must not perturb the cost model, so
    a spilled tile is read from its segment, uncharged, and stays spilled.
    """
    out: list[Violation] = []
    layout = dmat.layout
    pr, pc = dmat.grid_shape

    ranks = layout.ranks2d.ravel()
    p = dmat.machine.p
    if len(ranks) and (ranks.min() < 0 or ranks.max() >= p):
        out.append(
            Violation(
                site,
                "ranks",
                "block owner outside the machine",
                {"min": int(ranks.min()), "max": int(ranks.max()), "p": p},
            )
        )
    if len(np.unique(ranks)) != len(ranks):
        out.append(
            Violation(
                site,
                "ranks",
                "two blocks share an owning rank (every layout the engine "
                "builds is 1:1: the home grid, a plan's strips or grid, and "
                "3D layers stacked along the dimension they split)",
                {"grid": (pr, pc)},
            )
        )

    out += _check_splits(layout.row_splits, "row", site)
    out += _check_splits(layout.col_splits, "col", site)

    schema = dmat.monoid.field_spec
    for i in range(pr):
        for j in range(pc):
            blk = dmat.peek(i, j)
            expect = layout.block_shapes[i][j]
            bsite = f"{site}.block[{i},{j}]"
            if blk.shape != expect:
                out.append(
                    Violation(
                        bsite,
                        "shape",
                        "block shape disagrees with the splits",
                        {"have": blk.shape, "want": expect},
                    )
                )
                continue
            if blk.monoid.field_spec != schema:
                out.append(
                    Violation(bsite, "monoid", "block monoid schema differs", {})
                )
                continue
            out += check_spmat(blk, site=bsite)

    if deep and not out:
        gathered = dmat.gather(charge=False, peek=True)
        block_nnz = dmat.nnz
        if gathered.nnz != block_nnz:
            out.append(
                Violation(
                    site,
                    "tiling",
                    "gathering folded entries: blocks are not disjoint or "
                    "store identity values",
                    {"gathered": gathered.nnz, "blocks": block_nnz},
                )
            )
        out += check_spmat(gathered, site=f"{site}.gathered")
    return out


def check_matrix(mat, *, site: str = "matrix", deep: bool = False) -> list[Violation]:
    """Dispatch to :func:`check_spmat` or :func:`check_distmat` by type."""
    if isinstance(mat, DistMat):
        return check_distmat(mat, site=site, deep=deep)
    if isinstance(mat, SpMat):
        return check_spmat(mat, site=site)
    return [
        Violation(site, "type", f"not a matrix this library knows: {type(mat).__name__}")
    ]


# ---------------------------------------------------------------------------
# Ledger accounting
# ---------------------------------------------------------------------------


def _nonneg_finite(arr: np.ndarray, name: str, site: str) -> list[Violation]:
    arr = np.asarray(arr, dtype=np.float64)
    out: list[Violation] = []
    if not np.all(np.isfinite(arr)):
        out.append(Violation(site, "finite", f"{name} has non-finite entries", {}))
    elif len(arr) and arr.min() < 0:
        out.append(
            Violation(
                site,
                "nonneg",
                f"{name} went negative",
                {"min": float(arr.min()), "rank": int(arr.argmin())},
            )
        )
    return out


def check_ledger(
    machine,
    *,
    site: str = "ledger",
    theory: dict | None = None,
    rtol: float = 1e-9,
) -> list[Violation]:
    """Validate the machine's charge accounting against the α-β model.

    ``theory``, when given, is a mapping with keys ``n``, ``m``, ``p``
    (and optionally ``c``, ``batches``, ``slack``); critical-path words are
    then also checked against ``slack · batches ·``
    :func:`repro.analysis.theory.mfbc_bandwidth_words` — an order-of-
    magnitude guard that a run's traffic is in the regime Theorem 5.1
    promises, not an exact-equality test.
    """
    led = machine.ledger
    cost = machine.cost
    out: list[Violation] = []

    # after an elastic shrink every per-rank array must have been compacted
    # in lockstep — a stale length means some accounting escaped the shrink
    for name in ("time", "comm_time", "words", "msgs", "compute_per_rank"):
        arr = getattr(led, name)
        if len(arr) != machine.p:
            out.append(
                Violation(
                    site,
                    "shape",
                    f"ledger array {name!r} has {len(arr)} entries for a "
                    f"machine with p={machine.p}",
                    {"len": len(arr), "p": machine.p},
                )
            )
    for name, arr in (("memory_used", machine._mem_used), ("memory_peak", machine._mem_peak)):
        if len(arr) != machine.p:
            out.append(
                Violation(
                    site,
                    "shape",
                    f"{name} has {len(arr)} entries for a machine with "
                    f"p={machine.p}",
                    {"len": len(arr), "p": machine.p},
                )
            )
    if led.p != machine.p:
        out.append(
            Violation(
                site,
                "shape",
                "ledger.p disagrees with machine.p",
                {"ledger_p": led.p, "p": machine.p},
            )
        )
    if out:
        return out

    for name in ("time", "comm_time", "words", "msgs", "compute_per_rank"):
        out += _nonneg_finite(getattr(led, name), name, site)
    for name in ("total_words", "total_msgs", "compute_ops"):
        out += _nonneg_finite(np.array([getattr(led, name)]), name, site)
    out += _nonneg_finite(machine._mem_used, "memory_used", site)
    out += _nonneg_finite(machine._mem_peak, "memory_peak", site)
    if out:
        return out  # the relational checks below assume sane values

    tol = rtol * max(1.0, float(led.time.max(initial=0.0)))
    if np.any(led.comm_time > led.time + tol):
        r = int(np.argmax(led.comm_time - led.time))
        out.append(
            Violation(
                site,
                "comm<=time",
                "communication time exceeds total modeled time",
                {"rank": r, "comm": float(led.comm_time[r]), "time": float(led.time[r])},
            )
        )

    # α-β closed form: every collective charges weight·(x·β + ⌈lg q⌉·α)
    # after a max-merge, so per rank comm_time ≤ β·words + α·msgs always.
    bound = cost.beta * led.words + cost.alpha * led.msgs
    if np.any(led.comm_time > bound + tol):
        r = int(np.argmax(led.comm_time - bound))
        out.append(
            Violation(
                site,
                "alpha-beta",
                "communication time exceeds β·words + α·msgs",
                {
                    "rank": r,
                    "comm": float(led.comm_time[r]),
                    "bound": float(bound[r]),
                },
            )
        )

    if led.total_words + tol < led.critical_words():
        out.append(
            Violation(
                site,
                "totals",
                "flat word total is below the critical-path words",
                {"total": led.total_words, "critical": led.critical_words()},
            )
        )
    if led.total_msgs + tol < led.critical_msgs():
        out.append(
            Violation(
                site,
                "totals",
                "flat message total is below the critical-path messages",
                {"total": led.total_msgs, "critical": led.critical_msgs()},
            )
        )
    cat_sum = float(sum(led.category_words.values()))
    if abs(cat_sum - led.total_words) > rtol * max(1.0, led.total_words):
        out.append(
            Violation(
                site,
                "categories",
                "traffic categories do not sum to the flat word total",
                {"categories": cat_sum, "total": led.total_words},
            )
        )

    if np.any(machine._mem_peak < machine._mem_used):
        r = int(np.argmax(machine._mem_used - machine._mem_peak))
        out.append(
            Violation(
                site,
                "mem-peak",
                "peak memory below current usage (high-water mark broken)",
                {
                    "rank": r,
                    "used": int(machine._mem_used[r]),
                    "peak": int(machine._mem_peak[r]),
                },
            )
        )
    if machine.memory_words is not None and np.any(
        machine._mem_used > machine.memory_words
    ):
        out.append(
            Violation(
                site,
                "mem-budget",
                "tracked usage exceeds the budget without raising",
                {"budget": int(machine.memory_words)},
            )
        )

    if theory is not None:
        from repro.analysis.theory import mfbc_bandwidth_words

        slack = float(theory.get("slack", 64.0))
        batches = float(theory.get("batches", 1.0))
        limit = slack * batches * mfbc_bandwidth_words(
            theory["n"], theory["m"], theory["p"], theory.get("c", 1)
        )
        if led.critical_words() > limit:
            out.append(
                Violation(
                    site,
                    "theory",
                    "critical-path words exceed the §5.3 bandwidth bound",
                    {"critical": led.critical_words(), "limit": limit},
                )
            )
    return out
