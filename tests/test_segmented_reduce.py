"""The sort-once segmented reducer (``repro.algebra.monoid``) and the mask
membership table (``repro.sparse.spgemm``).

``stable_key_sort`` must be ``np.argsort(kind="stable")`` on both sides of
its packing guard; ``tie_sum`` must equal, bit for bit, the
``lexsort((weight, key))`` reduction it replaced (kept here as the
reference); the dense mask table must agree with the binary search; an
``mfbc`` run must stay off ``np.lexsort`` / ``np.unique`` altogether; and a
state update must cost what the update holds — ``SpMat.combine`` sorts
nothing, and ``mfbr`` scans its whole state once on entry and once on exit.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ruled
from repro.algebra.centpath import CENTPATH
from repro.algebra.monoid import (
    MinWeightTieSumMonoid,
    run_starts,
    segments,
    stable_key_sort,
)
from repro.algebra.multpath import MULTPATH
from repro.check import strategies as cst
from repro.core import mfbc, mfbf, mfbr
from repro.core.specs import BRANDES_SPEC
from repro.graphs import Graph, uniform_random_graph_nm, with_random_weights
from repro.sparse import SpMat, spgemm

#: the module: ``repro.sparse.spgemm`` as an attribute is the function
kernel = importlib.import_module("repro.sparse.spgemm")

#: select="max" with two fractional sum fields (CENTPATH's ``c`` is integral)
MAXFRAC = MinWeightTieSumMonoid(
    [("w", np.float64), ("p", np.float64), ("q", np.float64)],
    {"w": -np.inf, "p": 0.0, "q": 0.0},
    select="max",
)
TIE_MONOIDS = [MULTPATH, CENTPATH, MAXFRAC]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes — tells ``-0.0`` from ``0.0``."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- stable_key_sort -----------------------------------------------------------


def count_calls(monkeypatch, name: str) -> list:
    """Patch ``np.<name>`` to log each call; returns the log."""
    calls = []
    original = getattr(np, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, name, counting)
    return calls


def assert_stable_sort(keys: np.ndarray) -> None:
    sorted_keys, order = stable_key_sort(keys)
    expect = np.argsort(keys, kind="stable")
    assert np.array_equal(order, expect)
    assert np.array_equal(sorted_keys, keys[expect])
    assert sorted_keys.dtype == np.int64


@given(
    st.lists(st.integers(0, 40), max_size=60),
    st.sampled_from([1, 1 << 20, 1 << 55, (1 << 62) // 40]),
    st.booleans(),
)
def test_stable_key_sort_is_stable_argsort(keys, scale, negate):
    keys = np.array(keys, dtype=np.int64) * scale
    assert_stable_sort(-keys if negate else keys)


@pytest.mark.parametrize("n", [0, 1])
def test_stable_key_sort_trivial_lengths(n):
    assert_stable_sort(np.full(n, 7, dtype=np.int64))


def test_stable_key_sort_packing_guard(monkeypatch):
    """n = 5 packs positions into 3 bits, so keys below 2**59 pack and 2**59
    itself (or any negative key) takes the ``argsort`` fallback."""
    fallbacks = count_calls(monkeypatch, "argsort")
    top = (1 << 59) - 1
    for keys, falls_back in [
        ([top, 3, top, 0, 3], False),
        ([top + 1, 3, top + 1, 0, 3], True),
        ([2, -1, 2, -1, 0], True),
    ]:
        del fallbacks[:]
        keys = np.array(keys, dtype=np.int64)
        sorted_keys, order = stable_key_sort(keys)
        assert bool(fallbacks) == falls_back
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(sorted_keys, keys[order])


# -- segments ------------------------------------------------------------------


@given(st.lists(st.integers(0, 12), max_size=40))
def test_segments_match_unique_and_searchsorted(keys):
    keys = np.sort(np.array(keys, dtype=np.int64))
    starts, seg_id = segments(keys)
    uniq, ref_starts = np.unique(keys, return_index=True)
    assert np.array_equal(starts, ref_starts)
    assert np.array_equal(run_starts(keys), ref_starts)
    assert np.array_equal(keys[starts], uniq)
    ref_ids = np.searchsorted(ref_starts, np.arange(len(keys)), side="right") - 1
    assert np.array_equal(seg_id, ref_ids)


# -- tie_sum vs the lexsort reduction it replaced ------------------------------


def lexsort_reduce(monoid, keys, vals):
    """The pre-sort-once reduction: order by (key, weight, position), take
    each run's first weight, ``add.reduceat`` the tied prefix over zeros."""
    w = vals[monoid.weight_field]
    order = np.lexsort((w if monoid.select == "min" else -w, keys))
    keys = keys[order]
    vals = {name: col[order] for name, col in vals.items()}
    w = vals[monoid.weight_field]
    uniq, starts = np.unique(keys, return_index=True)
    seg_id = np.searchsorted(starts, np.arange(len(keys)), side="right") - 1
    tied = w == w[starts][seg_id]
    out = {monoid.weight_field: w[starts]}
    for name, dtype in monoid.field_spec:
        if name != monoid.weight_field:
            col = np.where(tied, vals[name], 0)
            out[name] = np.add.reduceat(col, starts).astype(dtype, copy=False)
    return uniq, out


def assert_matches_lexsort(monoid, keys, vals):
    ref_keys, ref = lexsort_reduce(monoid, keys, vals)
    got_keys, got = monoid.reduce_by_key(keys, vals)
    assert np.array_equal(got_keys, ref_keys)
    for name in monoid.field_names:
        assert same_bits(got[name], ref[name]), name


#: weight palettes: all runs one tie / no two weights equal / mixed, with
#: both zeros and both infinities in the mix
PALETTES = {
    "all-tied": [3.0],
    "mixed": [1.0, 2.5, 7.0],
    "zeros": [0.0, -0.0, 1.0],
    "infinite": [np.inf, -np.inf, 4.0, np.inf],
}


@given(
    st.sampled_from(TIE_MONOIDS),
    st.sampled_from(sorted(PALETTES)),
    st.integers(1, 300),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_tie_sum_bitwise_equals_lexsort_reduction(monoid, palette, n, nkeys, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, nkeys, n)
    vals = {monoid.weight_field: rng.choice(PALETTES[palette], n)}
    for name in monoid.sum_fields:
        # fractional payloads of mixed magnitude: any change in summation
        # order or grouping shows up in the low bits
        vals[name] = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
    vals = {name: vals[name].astype(dtype) for name, dtype in monoid.field_spec}
    assert_matches_lexsort(monoid, keys, vals)


@pytest.mark.parametrize("monoid", TIE_MONOIDS)
def test_tie_sum_no_two_weights_tie(monoid, rng):
    n = 500
    keys = rng.integers(0, 30, n)
    vals = {monoid.weight_field: rng.permutation(n).astype(np.float64)}
    for name in monoid.sum_fields:
        vals[name] = rng.random(n)
    vals = {name: vals[name].astype(dtype) for name, dtype in monoid.field_spec}
    assert_matches_lexsort(monoid, keys, vals)


def test_tie_sum_long_runs_keep_pairwise_grouping(rng):
    """Runs past numpy's pairwise-summation block (128) are where run length
    and tied-prefix position decide the low bits."""
    n = 6000
    keys = rng.integers(0, 4, n)
    vals = {"w": rng.choice([1.0, 2.0], n), "m": rng.random(n)}
    assert_matches_lexsort(MULTPATH, keys, vals)


def test_tie_sum_keeps_first_tied_zero_sign():
    keys = np.array([0, 0, 1, 1])
    vals = {"w": np.array([-0.0, 0.0, 0.0, -0.0]), "m": np.ones(4)}
    _, out = MULTPATH.reduce_by_key(keys, vals)
    assert np.signbit(out["w"]).tolist() == [True, False]
    assert out["m"].tolist() == [2.0, 2.0]


def test_tie_sum_asks_payload_for_tied_entries_only():
    w = np.array([5.0, 1.0, 1.0, 9.0, 2.0])
    keys = np.array([0, 0, 0, 1, 1])
    starts, seg_id = segments(keys)
    asked = []

    def payload(idx):
        asked.append(np.arange(len(w))[idx])
        return {"m": np.arange(10.0, 15.0)[idx]}

    out = MULTPATH.tie_sum(w, starts, seg_id, payload)
    assert [a.tolist() for a in asked] == [[1, 2, 4]]
    assert out["w"].tolist() == [1.0, 2.0]
    assert out["m"].tolist() == [23.0, 14.0]


@pytest.mark.parametrize("monoid", TIE_MONOIDS)
@pytest.mark.parametrize("where", ["last run", "middle run", "every entry"])
def test_tie_sum_rejects_nan_weights(monoid, where):
    """A NaN ties with nothing, so its run has no best entry: that must
    raise, not borrow the next run's entry."""
    keys = np.array([0, 0, 1, 1, 2])
    w = np.array([1.0, 2.0, 3.0, 3.0, 4.0])
    w[{"last run": [4], "middle run": [2], "every entry": slice(None)}[where]] = np.nan
    vals = {monoid.weight_field: w}
    for name in monoid.sum_fields:
        vals[name] = np.ones(5)
    vals = {name: vals[name].astype(dtype) for name, dtype in monoid.field_spec}
    with pytest.raises(ValueError, match="NaN weight"):
        monoid.reduce_by_key(keys, vals)


# -- mask membership: table vs binary search -----------------------------------


@given(cst.spmats(min_side=1, max_side=9), st.booleans(), st.integers(0, 2**32 - 1))
def test_mask_table_agrees_with_searchsorted(mask, complement, seed):
    space = mask.nrows * mask.ncols
    keys = np.random.default_rng(seed).integers(0, space, 50)
    table = kernel._mask_filter(mask.keys(), complement, space, expansion=space)
    search = kernel._mask_filter(mask.keys(), complement, space, expansion=0)
    assert isinstance(getattr(table, "__self__", None), np.ndarray)
    assert getattr(search, "__self__", None) is None
    member = np.isin(keys, mask.keys())
    assert np.array_equal(table(keys), member != complement)
    assert np.array_equal(search(keys), member != complement)


@pytest.mark.parametrize("complement", [False, True])
def test_masked_product_same_either_side_of_table_threshold(
    monkeypatch, rng, complement
):
    flat = np.sort(rng.choice(8 * 60, 200, replace=False))
    front = SpMat(
        8, 60, flat // 60, flat % 60,
        CENTPATH.make(rng.integers(1, 5, 200), rng.random(200), np.ones(200)),
        CENTPATH,
    )
    adj = cst.random_weight_spmat(rng, 60, 60, 0.2)
    mask = cst.random_weight_spmat(rng, 8, 60, 0.5)
    results = []
    for span in (0, 1 << 30):  # never / always the dense table
        monkeypatch.setattr(kernel, "_MASK_TABLE_SPAN", span)
        for mode in ("generic", "auto"):
            results.append(
                spgemm(front, adj, ruled(BRANDES_SPEC, "complement" if complement else "keep"),
                       mask=mask, kernel=mode, chunk=97)
            )
    assert all(r.matrix.equals(results[0].matrix) for r in results)
    assert {r.ops for r in results} == {results[0].ops}
    for name in CENTPATH.field_names:
        assert all(
            same_bits(r.matrix.vals[name], results[0].matrix.vals[name])
            for r in results
        )


# -- structural: the product path neither re-sorts nor searches ----------------


@pytest.mark.parametrize("weighted", [False, True])
def test_mfbc_makes_no_lexsort_or_unique_calls(monkeypatch, weighted):
    graph = uniform_random_graph_nm(120, 5.0, seed=5)
    if weighted:
        graph = with_random_weights(graph, 1, 4, seed=6)
    lexsorts = count_calls(monkeypatch, "lexsort")
    uniques = count_calls(monkeypatch, "unique")
    result = mfbc(graph, 8, sources=np.arange(16))
    assert result.scores.max() > 0
    assert lexsorts == [] and uniques == []


# -- structural: a state update never re-sorts or re-scans the state -------------


@pytest.mark.parametrize("monoid", [MULTPATH, CENTPATH], ids=["multpath", "centpath"])
def test_combine_never_sorts(monkeypatch, rng, monoid):
    def matrix(flat):
        vals = {n: rng.integers(1, 4, len(flat)).astype(dt) for n, dt in monoid.field_spec}
        return SpMat(8, 64, flat // 64, flat % 64, vals, monoid, canonical=True)

    state = matrix(np.sort(rng.choice(512, 300, replace=False)))
    sorts = count_calls(monkeypatch, "argsort") + count_calls(monkeypatch, "sort")
    for module in ("repro.algebra.monoid", "repro.sparse.spmatrix"):
        original = stable_key_sort

        def spy(keys, _original=original):
            sorts.append("stable_key_sort")
            return _original(keys)

        monkeypatch.setattr(importlib.import_module(module), "stable_key_sort", spy)
    # hits only, misses only, both
    inside, outside = state.keys(), np.setdiff1d(np.arange(512), state.keys())
    for flat in (inside[::3], outside[::2], np.sort(np.r_[inside[::5], outside[::7]])):
        out = state.combine(matrix(flat))
        assert out.nnz == len(np.union1d(inside, flat))
    assert sorts == []
    state.transpose()  # the spy is live: a transpose does sort
    assert sorts == ["stable_key_sort"]


def test_mfbr_scans_its_state_on_entry_and_exit_only(monkeypatch):
    # a binary tree, three levels below the source: its 4 leaves fire first,
    # then the 2 inner vertices, then the source, whose frontier reaches nothing
    tree = Graph(7, np.array([0, 0, 1, 1, 2, 2]), np.array([1, 2, 3, 4, 5, 6]))
    adj = tree.adjacency()
    t_mat = mfbf(adj, np.array([0]))
    scans = []
    for name in ("map", "filter"):
        def spy(self, *args, _name=name, _original=getattr(SpMat, name), **kwargs):
            scans.append((_name, self.nnz))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SpMat, name, spy)
    z_mat = mfbr(adj, t_mat)
    # seed, then the pending set and the leaves; then zero counters are
    # looked for among the touched entries alone (the pending set loses the
    # fired by a difference, not a scan); one pass parks every fired counter
    # on return
    assert scans == [
        ("map", 7), ("filter", 7), ("filter", 7), ("filter", 2), ("filter", 1), ("filter", 0),
        ("map", 7),
    ]
    assert z_mat.vals["c"].tolist() == [-1] * 7
