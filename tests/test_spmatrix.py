"""SpMat: canonical form, elementwise/structural operations, error paths."""

import numpy as np
import pytest

from repro.algebra.monoid import MinMonoid, PlusMonoid
from repro.algebra.multpath import MULTPATH
from repro.sparse import SpMat

from conftest import random_weight_spmat

W = MinMonoid()
PLUS = PlusMonoid()


def mk(nrows, ncols, triples, monoid=W):
    """triples: list of (i, j, value-dict-or-float)."""
    rows = np.array([t[0] for t in triples], dtype=np.int64)
    cols = np.array([t[1] for t in triples], dtype=np.int64)
    if triples and isinstance(triples[0][2], dict):
        keys = triples[0][2].keys()
        vals = {k: np.array([t[2][k] for t in triples], dtype=float) for k in keys}
    else:
        vals = {"w": np.array([t[2] for t in triples], dtype=float)}
    return SpMat(nrows, ncols, rows, cols, vals, monoid)


class TestConstruction:
    def test_canonical_sorted_unique(self):
        m = mk(3, 3, [(2, 1, 5.0), (0, 0, 1.0), (2, 1, 3.0)])
        assert m.nnz == 2
        assert list(m.rows) == [0, 2] and list(m.cols) == [0, 1]
        # duplicates folded with min
        assert m.get(2, 1)["w"] == 3.0

    def test_identity_entries_pruned(self):
        m = mk(2, 2, [(0, 0, np.inf), (1, 1, 2.0)])
        assert m.nnz == 1 and m.get(1, 1)["w"] == 2.0
        assert m.get(0, 0)["w"] == np.inf  # implicit identity

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError, match="out of bounds"):
            mk(2, 2, [(2, 0, 1.0)])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            SpMat(2, 2, np.array([0]), np.array([0, 1]), {"w": np.ones(1)}, W)

    def test_vals_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            SpMat(2, 2, np.array([0]), np.array([0]), {"w": np.ones(2)}, W)

    def test_negative_dims_raise(self):
        with pytest.raises(ValueError, match="negative"):
            SpMat(-1, 2, np.empty(0, np.int64), np.empty(0, np.int64), {"w": np.empty(0)}, W)

    def test_empty(self):
        m = SpMat.empty(3, 4, MULTPATH)
        assert m.nnz == 0 and m.shape == (3, 4)

    def test_to_dense_fill(self):
        m = mk(2, 2, [(0, 1, 3.0)])
        d = m.to_dense("w")
        assert d[0, 1] == 3.0 and np.isinf(d[0, 0])
        d2 = m.to_dense("w", fill=-1.0)
        assert d2[0, 0] == -1.0

    def test_words_positive(self):
        m = mk(2, 2, [(0, 1, 3.0)])
        assert m.words() >= 3  # 2 coords + 1 value


class TestElementwise:
    def test_combine_union_min(self):
        a = mk(2, 2, [(0, 0, 5.0), (0, 1, 2.0)])
        b = mk(2, 2, [(0, 0, 3.0), (1, 1, 7.0)])
        c = a.combine(b)
        assert c.get(0, 0)["w"] == 3.0
        assert c.get(0, 1)["w"] == 2.0
        assert c.get(1, 1)["w"] == 7.0

    def test_combine_shape_mismatch_raises(self):
        a = mk(2, 2, [(0, 0, 1.0)])
        b = mk(2, 3, [(0, 0, 1.0)])
        with pytest.raises(ValueError, match="shape"):
            a.combine(b)

    def test_filter(self):
        a = mk(2, 2, [(0, 0, 5.0), (0, 1, 2.0), (1, 1, 9.0)])
        out = a.filter(lambda v: v["w"] > 3.0)
        assert out.nnz == 2 and out.get(0, 1)["w"] == np.inf

    def test_filter_bad_mask_raises(self):
        a = mk(2, 2, [(0, 0, 5.0)])
        with pytest.raises(ValueError, match="mask"):
            a.filter(lambda v: np.ones(7, dtype=bool))

    def test_map_prunes_new_identities(self):
        a = mk(2, 2, [(0, 0, 5.0), (1, 1, 2.0)])
        out = a.map(lambda v: {"w": np.where(v["w"] > 3, np.inf, v["w"])})
        assert out.nnz == 1

    def test_map_changes_monoid(self):
        a = mk(2, 2, [(0, 0, 5.0)])
        out = a.map(
            lambda v: {"w": v["w"], "m": np.ones_like(v["w"])}, monoid=MULTPATH
        )
        assert out.monoid is MULTPATH and out.get(0, 0)["m"] == 1.0

    def test_align_values_identity_default(self):
        a = mk(2, 2, [(0, 0, 1.0), (1, 1, 2.0)])
        b = mk(2, 2, [(1, 1, 9.0)])
        aligned = a.align_values(b)
        assert aligned["w"][0] == np.inf and aligned["w"][1] == 9.0

    def test_align_values_empty_other(self):
        a = mk(2, 2, [(0, 0, 1.0)])
        b = SpMat.empty(2, 2, W)
        aligned = a.align_values(b)
        assert np.isinf(aligned["w"]).all()

    def test_zip_filter(self):
        a = mk(2, 2, [(0, 0, 1.0), (1, 1, 5.0)])
        b = mk(2, 2, [(1, 1, 5.0)])
        out = a.zip_filter(b, lambda av, bv: av["w"] == bv["w"])
        assert out.nnz == 1 and out.get(1, 1)["w"] == 5.0

    def test_zip_map(self):
        a = mk(2, 2, [(0, 0, 1.0), (1, 1, 5.0)])
        b = mk(2, 2, [(1, 1, 2.0)], monoid=PLUS)
        out = a.zip_map(b, lambda av, bv: {"w": av["w"] + bv["w"]})
        assert out.get(1, 1)["w"] == 7.0
        # where b has no entry, its PLUS identity 0 is used: 1.0 + 0 = 1.0
        assert out.get(0, 0)["w"] == 1.0


class TestStructural:
    def test_transpose_roundtrip(self, rng):
        a = random_weight_spmat(rng, 7, 5, 0.4)
        t = a.transpose()
        assert t.shape == (5, 7)
        assert t.transpose().equals(a)

    def test_block(self):
        a = mk(4, 4, [(0, 0, 1.0), (2, 3, 2.0), (3, 1, 3.0)])
        b = a.block(2, 4, 1, 4)
        assert b.shape == (2, 3)
        assert b.get(0, 2)["w"] == 2.0
        assert b.get(1, 0)["w"] == 3.0

    def test_block_out_of_bounds_raises(self):
        a = mk(2, 2, [(0, 0, 1.0)])
        with pytest.raises(ValueError, match="out of bounds"):
            a.block(0, 3, 0, 1)

    def test_copy_independent(self):
        a = mk(2, 2, [(0, 0, 1.0)])
        b = a.copy()
        b.vals["w"][0] = 99.0
        assert a.get(0, 0)["w"] == 1.0

    def test_equals(self):
        a = mk(2, 2, [(0, 0, 1.0)])
        b = mk(2, 2, [(0, 0, 1.0)])
        c = mk(2, 2, [(0, 0, 2.0)])
        assert a.equals(b) and not a.equals(c)
        assert not a.equals(mk(2, 2, [(0, 1, 1.0)]))
