"""Supplementary: cost of one elementwise state update, by update size.

MFBF's ``T ⊕ product`` and MFBr's ``Z ⊗ valid`` fold a frontier-sized update
into a state matrix that is, by the last relaxations, fully dense.  The
paper's analysis (§4–§5.3) charges the two algorithms for their products
only, so the update must cost what the *update* holds, not what the state
holds.  This bench fixes a 2¹⁵-entry multpath / centpath state, folds in
updates of 2⁴ … 2¹⁵ entries — supports inside the state's (MFBr's case) and
half new (a growing MFBF frontier) — and times :meth:`SpMat.combine` against
the concatenate-and-sort merge it replaced, kept here as the reference.
"""

import time

import numpy as np

from repro.algebra import CENTPATH, MULTPATH
from repro.algebra.fields import concat_fields, take_fields
from repro.algebra.monoid import stable_key_sort
from repro.sparse import SpMat

NROWS, NCOLS = 16, 4096  # a 16-source batch, as in dist4-wuniform11
STATE_NNZ = 1 << 15
UPDATE_NNZ = [1 << k for k in range(4, 16)]
REPEATS = 7
#: ratchet: at a 1 % update (2⁸ of 2¹⁵ entries) locating the update must beat
#: re-sorting the state by at least this factor, for both monoids and both
#: supports (measured 13–16x inside the state's support and ≈ 5x half new;
#: loose because it is a ratio of ~0.1 ms timings)
MIN_SPEEDUP_AT_1PCT = 3.0


def concat_and_sort(state: SpMat, update: SpMat) -> SpMat:
    """The merge ``SpMat.combine`` performed before it located its update:
    concatenate both operands' triples, stable-sort all keys, reduce runs."""
    monoid = state.monoid
    keys = np.concatenate([state.keys(), update.keys()])
    vals = concat_fields([state.vals, update.vals])
    keys, order = stable_key_sort(keys)
    keys, vals = monoid._reduce_sorted(keys, take_fields(vals, order))
    return SpMat(*state.shape, *SpMat._split_pruned(keys, vals, NCOLS, monoid),
                 monoid, canonical=True)


def _matrix(rng, monoid, flat):
    flat = np.sort(flat)
    vals = {
        name: rng.integers(1, 9, len(flat)).astype(dtype)
        for name, dtype in monoid.field_spec
    }
    return SpMat(NROWS, NCOLS, flat // NCOLS, flat % NCOLS, vals, monoid, canonical=True)


def _best(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def build_rows():
    rng = np.random.default_rng(21)
    cells = NROWS * NCOLS
    rows = []
    for monoid in (MULTPATH, CENTPATH):
        stored = rng.choice(cells, STATE_NNZ, replace=False)
        unstored = np.setdiff1d(np.arange(cells), stored)
        state = _matrix(rng, monoid, stored)
        state.keys()  # a state has been aligned against before: keys cached
        for nnz in UPDATE_NNZ:
            for support in ("subset", "half new"):
                inside = nnz if support == "subset" else nnz // 2
                flat = np.concatenate([
                    rng.choice(stored, inside, replace=False),
                    rng.choice(unstored, nnz - inside, replace=False),
                ])
                update = _matrix(rng, monoid, flat)
                new, out = _best(state.combine, update)
                old, ref = _best(concat_and_sort, state, update)
                assert out.equals(ref) and out.nnz == STATE_NNZ + nnz - inside
                rows.append((
                    type(monoid).__name__.removesuffix("Monoid").lower(),
                    support,
                    nnz,
                    f"{nnz / STATE_NNZ:.2%}",
                    f"{old * 1e3:.3f}",
                    f"{new * 1e3:.3f}",
                    f"{old / new:.1f}x",
                ))
    return rows


def test_state_update(benchmark, save_table):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    save_table(
        "state_update",
        f"Supplementary: one elementwise state update — SpMat.combine vs the "
        f"concatenate-and-sort merge it replaced ({STATE_NNZ}-entry state, "
        f"{NROWS} x {NCOLS}, best of {REPEATS})",
        ["monoid", "update support", "update nnz", "of state", "concat+sort ms",
         "combine ms", "speedup"],
        rows,
    )
    for row in rows:
        if row[2] == STATE_NNZ // 128:  # the 1 % point (0.78 %)
            assert float(row[-1].rstrip("x")) >= MIN_SPEEDUP_AT_1PCT, row
