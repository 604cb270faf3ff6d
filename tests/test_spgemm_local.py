"""The node-local generalized SpGEMM kernel against dense references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import MULTPATH, REAL_PLUS_TIMES, TROPICAL, MatMulSpec
from repro.algebra import bellman_ford_action
from repro.algebra.monoid import MinMonoid, PlusMonoid
from repro.core.specs import BELLMAN_FORD_SPEC, BRANDES_SPEC
from repro.sparse import SpMat, spgemm
from repro.sparse.spgemm import _chunk_bounds, count_ops

from repro.check.strategies import random_weight_spmat
from conftest import KERNELS, WEIGHT, assert_bits, ruled

W = MinMonoid()


def dense_tropical(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.full((a.shape[0], b.shape[1]), np.inf)
    for i in range(a.shape[0]):
        for kk in range(a.shape[1]):
            if np.isfinite(a[i, kk]):
                out[i] = np.minimum(out[i], a[i, kk] + b[kk])
    return out


class TestTropical:
    @pytest.mark.parametrize("shape", [(10, 12, 8), (1, 20, 20), (15, 1, 15)])
    def test_matches_dense(self, rng, shape):
        m, k, n = shape
        a = random_weight_spmat(rng, m, k, 0.3)
        b = random_weight_spmat(rng, k, n, 0.3)
        c = spgemm(a, b, TROPICAL.matmul_spec()).matrix
        ref = dense_tropical(a.to_dense("w"), b.to_dense("w"))
        got = c.to_dense("w")
        assert np.allclose(
            np.where(np.isfinite(ref), ref, -1), np.where(np.isfinite(got), got, -1)
        )

    def test_empty_a(self, rng):
        a = SpMat.empty(5, 6, W)
        b = random_weight_spmat(rng, 6, 7, 0.5)
        res = spgemm(a, b, TROPICAL.matmul_spec())
        assert res.matrix.nnz == 0 and res.ops == 0

    def test_empty_b(self, rng):
        a = random_weight_spmat(rng, 5, 6, 0.5)
        b = SpMat.empty(6, 7, W)
        res = spgemm(a, b, TROPICAL.matmul_spec())
        assert res.matrix.nnz == 0 and res.ops == 0

    def test_dimension_mismatch_raises(self, rng):
        a = random_weight_spmat(rng, 5, 6, 0.5)
        b = random_weight_spmat(rng, 7, 5, 0.5)
        with pytest.raises(ValueError, match="inner dimension"):
            spgemm(a, b, TROPICAL.matmul_spec())

    def test_no_overlap_zero_ops(self):
        # A's columns miss all of B's rows
        a = SpMat(2, 4, np.array([0]), np.array([0]), {"w": np.ones(1)}, W)
        b = SpMat(4, 2, np.array([3]), np.array([1]), {"w": np.ones(1)}, W)
        res = spgemm(a, b, TROPICAL.matmul_spec())
        assert res.ops == 0 and res.matrix.nnz == 0


class TestRealSemiring:
    def test_matches_scipy(self, rng):
        import scipy.sparse

        a = scipy.sparse.random(12, 9, density=0.3, random_state=5).tocoo()
        b = scipy.sparse.random(9, 11, density=0.3, random_state=6).tocoo()
        from repro.algebra.monoid import PlusMonoid

        plus = PlusMonoid()
        sa = SpMat(12, 9, a.row.astype(np.int64), a.col.astype(np.int64), {"w": a.data}, plus)
        sb = SpMat(9, 11, b.row.astype(np.int64), b.col.astype(np.int64), {"w": b.data}, plus)
        c = spgemm(sa, sb, REAL_PLUS_TIMES.matmul_spec()).matrix
        ref = (a.tocsr() @ b.tocsr()).toarray()
        assert np.allclose(c.to_dense("w", fill=0.0), ref, atol=1e-12)


class TestOpsCounting:
    def test_count_ops_matches_execution(self, rng):
        a = random_weight_spmat(rng, 10, 10, 0.3)
        b = random_weight_spmat(rng, 10, 10, 0.3)
        res = spgemm(a, b, TROPICAL.matmul_spec())
        assert res.ops == count_ops(a, b)

    def test_ops_formula_dense(self):
        # fully dense blocks: ops = m*k*n
        m, k, n = 4, 5, 6
        r, c = np.meshgrid(np.arange(m), np.arange(k), indexing="ij")
        a = SpMat(m, k, r.ravel(), c.ravel(), {"w": np.ones(m * k)}, W)
        r, c = np.meshgrid(np.arange(k), np.arange(n), indexing="ij")
        b = SpMat(k, n, r.ravel(), c.ravel(), {"w": np.ones(k * n)}, W)
        assert count_ops(a, b) == m * k * n


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 3, 17, 1 << 20])
    def test_chunked_equals_unchunked(self, rng, chunk):
        a = random_weight_spmat(rng, 14, 14, 0.3)
        b = random_weight_spmat(rng, 14, 14, 0.3)
        ref = spgemm(a, b, TROPICAL.matmul_spec())
        got = spgemm(a, b, TROPICAL.matmul_spec(), chunk=chunk)
        assert got.matrix.equals(ref.matrix) and got.ops == ref.ops

    def test_chunk_bounds_cover(self):
        # row joins 5, 11, 2, 110 and 1 against a chunk of 10
        rows = np.array([0, 0, 1, 1, 2, 3, 3, 4])
        counts = np.array([5, 0, 9, 2, 2, 60, 50, 1])
        bounds = _chunk_bounds(rows, counts, 10)
        covered = []
        for lo, hi in bounds:
            assert hi > lo
            assert lo == 0 or rows[lo] != rows[lo - 1]  # no part starts inside a row
            assert counts[lo:hi].sum() <= 10 or len(set(rows[lo:hi])) == 1
            covered.extend(range(lo, hi))
        assert covered == list(range(len(counts)))
        # each row above the chunk (rows 1 and 3) is a part of its own
        assert bounds == [(0, 2), (2, 4), (4, 5), (5, 7), (7, 8)]
        assert _chunk_bounds(rows, counts, 1 << 22) == [(0, 8)]

    def test_chunk_invalid_raises(self):
        with pytest.raises(ValueError, match="positive"):
            _chunk_bounds(np.array([0]), np.array([1]), 0)

    @pytest.mark.parametrize("route", KERNELS)
    @pytest.mark.parametrize(
        "payload, masking",
        [
            (payload, masking)
            for payload in ("plus", "bf", "brandes")
            for masking in ("none", "mask", "complement", "tie")
            if (payload, masking) != ("plus", "tie")  # plus-times has no weight to tie
        ],
    )
    def test_chunking_never_changes_a_bit(self, rng, route, payload, masking):
        for _ in range(5):
            a, b, spec = _real_product(rng, payload)
            mask, spec = _chunk_mask(rng, a, b, spec, masking)
            want = spgemm(a, b, spec, mask=mask, kernel=route)
            for chunk in (1, 2, 7, 1 << 22):
                got = spgemm(a, b, spec, mask=mask, chunk=chunk, kernel=route)
                assert_bits(got.matrix, want.matrix)
                assert np.array_equal(got.row_ops, want.row_ops)


def _real_product(rng, payload):
    """``(a, b, spec)``: a 6 × 40 by 40 × 5 product whose every entry sums
    many real-valued terms (for the path payloads, of few weights, so they
    tie), so that a row reduced in two pieces shows in the bits."""

    def pattern(m, n):
        rows, cols = (rng.random((m, n)) < 0.8).nonzero()
        return m, n, rows, cols

    left, right = pattern(6, 40), pattern(40, 5)
    if payload == "plus":
        a, b = (SpMat(*pat, {"w": rng.random(len(pat[2])) + 0.5}, PlusMonoid())
                for pat in (left, right))
        return a, b, REAL_PLUS_TIMES.matmul_spec()
    spec = BELLMAN_FORD_SPEC if payload == "bf" else BRANDES_SPEC
    nnz = len(left[2])
    vals = {
        name: (rng.random(nnz) if dtype == np.float64 and name != "w"
               else rng.integers(1, 3, nnz)).astype(dtype)
        for name, dtype in spec.monoid.field_spec
    }
    weights = {"w": rng.integers(1, 3, len(right[2])).astype(np.float64)}
    return SpMat(*left, vals, spec.monoid), SpMat(*right, weights, WEIGHT), spec


def _chunk_mask(rng, a, b, spec, masking):
    """``(mask, spec)`` for one masking case of a 6 × 5 product."""
    if masking == "none":
        return None, spec
    if masking == "tie":
        # each entry's best weight: its winning pairs tie, the others do not
        best = spgemm(a, b, spec, kernel="generic").matrix
        return best.map(lambda v: {"w": v["w"]}, monoid=WEIGHT), ruled(spec, "tie")
    rule = "keep" if masking == "mask" else "complement"
    return random_weight_spmat(rng, 6, 5, 0.5), ruled(spec, rule)


class TestMultpathProduct:
    def test_multiplicity_counting(self):
        """Two equal-weight paths through different middles sum multiplicity."""
        # frontier at vertices 1 and 2 with weight 1, multiplicity 1 each
        f = SpMat(
            1,
            4,
            np.zeros(2, np.int64),
            np.array([1, 2]),
            MULTPATH.make([1.0, 1.0], [1.0, 1.0]),
            MULTPATH,
        )
        # edges 1->3 and 2->3 with weight 1
        a = SpMat(
            4, 4, np.array([1, 2]), np.array([3, 3]), {"w": np.ones(2)}, W
        )
        spec = MatMulSpec(MULTPATH, bellman_ford_action, "bf")
        out = spgemm(f, a, spec).matrix
        e = out.get(0, 3)
        assert e["w"] == 2.0 and e["m"] == 2.0

    def test_min_weight_wins_in_product(self):
        f = SpMat(
            1,
            3,
            np.zeros(2, np.int64),
            np.array([0, 1]),
            MULTPATH.make([0.0, 5.0], [1.0, 9.0]),
            MULTPATH,
        )
        a = SpMat(
            3, 3, np.array([0, 1]), np.array([2, 2]), {"w": np.array([4.0, 1.0])}, W
        )
        spec = MatMulSpec(MULTPATH, bellman_ford_action, "bf")
        out = spgemm(f, a, spec).matrix
        e = out.get(0, 2)
        # path via 0: 0+4=4 (m=1); via 1: 5+1=6 -> min is 4
        assert e["w"] == 4.0 and e["m"] == 1.0


@given(
    st.integers(2, 10),
    st.integers(2, 10),
    st.integers(2, 10),
    st.integers(0, 10_000),
)
def test_tropical_property(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = random_weight_spmat(rng, m, k, 0.4)
    b = random_weight_spmat(rng, k, n, 0.4)
    c = spgemm(a, b, TROPICAL.matmul_spec()).matrix
    ref = dense_tropical(a.to_dense("w"), b.to_dense("w"))
    got = c.to_dense("w")
    assert np.allclose(
        np.where(np.isfinite(ref), ref, -1), np.where(np.isfinite(got), got, -1)
    )
