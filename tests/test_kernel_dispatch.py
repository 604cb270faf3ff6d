"""The kernel dispatch tier: recognition, the keyword, and generic/fast identity.

The contract under test is the one ``repro.check`` enforces at runtime:
every fast path must be **bit-identical** to the generic kernel at matched
chunking, for every recognized semiring, masked or not.  The generic kernel
is the oracle throughout.
"""

import importlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bits, kernel, ruled
from repro import mfbc, obs, rmat_graph
from repro.algebra import (
    CENTPATH,
    MAX_MIN,
    MULTPATH,
    REAL_PLUS_TIMES,
    TROPICAL,
    MatMulSpec,
    Semiring,
    left_project,
)
from repro.algebra.monoid import MinMonoid, PlusMonoid
from repro.check import strategies as cst
from repro.check.replay import ReplayCase, load_case, replay, resolve_spec, save_case
from repro.check.strategies import WEIGHT_MONOID
from repro.core.engine import SequentialEngine
from repro.algebra.multpath import bellman_ford_action
from repro.core.specs import BELLMAN_FORD_SPEC, BFS_LEVEL_SPEC, BRANDES_SPEC, SUCCESSOR_SPEC
from repro.dist import DistributedEngine
from repro.machine import Machine
from repro.sparse import SpGemmResult, SpMat, spgemm
from repro.sparse import _native
from repro.sparse.dispatch import dispatch_spgemm

spgemm_mod = sys.modules[spgemm.__module__]

CC_SPEC = Semiring(
    add_monoid=MinMonoid(), multiply=left_project, name="cc"
).matmul_spec()


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


def _dispatch_series(a, b, spec):
    """The one ``kernel.dispatch`` series a product lands in, as a label dict."""
    metrics = obs.Metrics()
    with obs.use(metrics=metrics):
        dispatch_spgemm(a, b, spec, mask_keys=None, chunk=1 << 22)
    ((labels, count),) = metrics.series("kernel.dispatch").items()
    assert count == 1.0
    return dict(labels)


class TestRecognition:
    @pytest.mark.parametrize(
        "spec, path, field",
        [
            # every semiring runs the generic kernel, plus-times included
            pytest.param(REAL_PLUS_TIMES.matmul_spec(), None, "w", id="spec0-plus-times-w"),
            (TROPICAL.matmul_spec(), None, None),
            (TROPICAL.matmul_spec(name="bfs"), None, None),
            (MAX_MIN.matmul_spec(), None, None),
            (CC_SPEC, None, None),
            (BELLMAN_FORD_SPEC, "multpath", None),
            (BRANDES_SPEC, "centpath", None),
        ],
    )
    def test_builtin_traits(self, spec, path, field, rng):
        pathsum = path in ("multpath", "centpath")
        a = _random_path_spmat(rng, spec.monoid, 5, 6)
        b = _random_path_spmat(rng, WEIGHT_MONOID if pathsum else spec.monoid, 6, 7)
        if field is not None:
            assert spec.monoid.field_names == (field,)
        labels = _dispatch_series(a, b, spec)
        assert labels["phase"] == spec.name
        if path is None:
            assert (labels["kernel"], labels["outcome"]) == ("generic", "unrecognized")
        else:
            assert labels["kernel"] == path
            assert labels["outcome"] in ("hit", "declined")

    def test_opaque_action_unrecognized(self, rng):
        # a bare callable carries no recognizable algebraic structure
        spec = MatMulSpec(MULTPATH, lambda a, b: a, name="opaque")
        a = _random_path_spmat(rng, MULTPATH, 4, 4)
        b = cst.random_weight_spmat(rng, 4, 4, 0.6)
        assert _dispatch_series(a, b, spec) == {
            "kernel": "generic",
            "outcome": "unrecognized",
            "phase": "opaque",
        }


# ---------------------------------------------------------------------------
# the mode is no run setting: every product dispatches, and kernel="generic"
# is the oracle's keyword on spgemm alone
# ---------------------------------------------------------------------------


class TestModeKnob:
    def test_default_is_auto(self, rng):
        a = cst.random_weight_spmat(rng, 6, 6, 0.5)
        metrics = obs.Metrics()
        with obs.use(metrics=metrics):
            spgemm(a, a, TROPICAL.matmul_spec())
        assert metrics.total("kernel.dispatch", outcome="unrecognized") == 1.0

    def test_env_beats_nothing(self, rng, monkeypatch):
        # a stray REPRO_KERNEL is read by nothing: the product still dispatches
        if _native.pathsum() is None:
            pytest.skip("compiled path kernel unavailable here")
        monkeypatch.setenv("REPRO_KERNEL", "generic")
        a = _random_path_spmat(rng, MULTPATH, 6, 6)
        b = cst.random_weight_spmat(rng, 6, 6, 0.5)
        metrics = obs.Metrics()
        with obs.use(metrics=metrics):
            spgemm(a, b, BELLMAN_FORD_SPEC)
        assert metrics.total("kernel.dispatch", outcome="hit") == 1.0

    def test_normalization_and_rejection(self, rng):
        a = cst.random_weight_spmat(rng, 3, 3, 0.5)
        for gone in ("turbo", "fast", "  Generic ", None):
            with pytest.raises(ValueError, match="unknown kernel"):
                spgemm(a, a, TROPICAL.matmul_spec(), kernel=gone)

    def test_sequential_engine_knob(self):
        with pytest.raises(TypeError, match="takes no arguments"):
            SequentialEngine(kernel="generic")

    def test_machine_knob(self):
        with pytest.raises(TypeError, match="kernel"):
            Machine(4, kernel="generic")
        assert not hasattr(Machine(4), "kernel")

    def test_cli_flag(self, capsys):
        from repro.cli import build_parser

        for command in ("bc", "simulate", "trace", "serve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "g.txt", "--kernel", "generic"])
            assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_dispatch_counter(self, rng):
        a = cst.random_weight_spmat(rng, 6, 6, 0.5)
        metrics = obs.Metrics()
        with obs.use(metrics=metrics):
            spgemm(a, a, TROPICAL.matmul_spec(), kernel="auto")
            # plus-times has no fast path, at any size
            spgemm(a, a, REAL_PLUS_TIMES.matmul_spec(), kernel="auto")
            big = _plus_spmat(_spread(rng, 40, 40, 1.0, 0))
            spgemm(big, big, REAL_PLUS_TIMES.matmul_spec(), kernel="auto")

        assert metrics.total("kernel.dispatch") == 3.0
        assert metrics.total("kernel.dispatch", kernel="generic", outcome="unrecognized") == 3.0


# ---------------------------------------------------------------------------
# differential fuzz: fast == generic, bit for bit, at matched chunking
# ---------------------------------------------------------------------------


def _assert_identical(a, b, spec, mask, complement, chunk):
    spec = ruled(spec, "complement" if complement else spec.mask_rule)
    gen = spgemm(a, b, spec, mask=mask, chunk=chunk, kernel="generic")
    got = spgemm(a, b, spec, mask=mask, chunk=chunk, kernel="auto")
    assert got.matrix.equals(gen.matrix)
    assert got.ops == gen.ops


def _spread(rng, m, n, density, decades):
    """A dense ``m × n`` array of real payloads of either sign spread over
    ``decades`` decades, zero outside a ``density`` share of the cells."""
    dense = rng.choice([-1.0, 1.0], (m, n)) * 10.0 ** rng.uniform(
        -decades / 2, decades / 2, (m, n)
    )
    dense[rng.random((m, n)) >= density] = 0.0
    return dense


def _plus_spmat(dense):
    rows, cols = dense.nonzero()
    return SpMat(*dense.shape, rows, cols, {"w": dense[rows, cols]}, PlusMonoid())


@st.composite
def _products(draw, a_monoid, b_monoid=None):
    """(a, b, mask, complement, chunk) with compatible shapes."""
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    a = draw(cst.spmats(monoid=a_monoid, shape=(m, k)))
    b = draw(cst.spmats(monoid=b_monoid or a_monoid, shape=(k, n)))
    mask = draw(
        st.none() | cst.spmats(monoid=WEIGHT_MONOID, shape=(m, n))
    )
    complement = draw(st.booleans()) if mask is not None else False
    chunk = draw(st.sampled_from([5, 64, 1 << 22]))
    return a, b, mask, complement, chunk


class TestDifferentialFuzz:
    @pytest.mark.parametrize(
        "spec",
        [
            REAL_PLUS_TIMES.matmul_spec(),
            TROPICAL.matmul_spec(),
            MAX_MIN.matmul_spec(),
            CC_SPEC,
        ],
        ids=lambda s: s.name,
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_semiring_paths(self, spec, data):
        a, b, mask, complement, chunk = data.draw(_products(spec.monoid))
        _assert_identical(a, b, spec, mask, complement, chunk)

    @pytest.mark.parametrize(
        "spec, a_monoid",
        [(BELLMAN_FORD_SPEC, MULTPATH), (BRANDES_SPEC, CENTPATH)],
        ids=["multpath", "centpath"],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_pathsum_paths(self, spec, a_monoid, data):
        a, b, mask, complement, chunk = data.draw(
            _products(a_monoid, WEIGHT_MONOID)
        )
        _assert_identical(a, b, spec, mask, complement, chunk)

    def test_scipy_point_is_bitwise(self, rng):
        # a dense real-valued plus-times point, every entry of C the sum of
        # ≥ 3 products over 16 decades: a kernel summing each entry left to
        # right (scipy's csr @ csr) gets many of them wrong in the last bits.
        # A's row 0 makes C(0, 0) the run [1e16, 1, 1]: the generic kernel
        # adds the first term to the pairwise sum of the rest, 1e16 + 2.
        da, db = _spread(rng, 48, 48, 0.7, 16), _spread(rng, 48, 48, 0.7, 16)
        da[0] = 0.0
        da[0, :3] = [1e16, 1.0, 1.0]
        db[:3] = _spread(rng, 3, 48, 1.0, 16)
        db[:3, 0] = 1.0
        terms = (da != 0).astype(np.int64) @ (db != 0).astype(np.int64)
        assert terms[terms > 0].min() >= 3
        a, b, spec = _plus_spmat(da), _plus_spmat(db), REAL_PLUS_TIMES.matmul_spec()
        want = spgemm(a, b, spec, kernel="generic")
        assert (want.matrix.rows[0], want.matrix.cols[0]) == (0, 0)
        assert want.matrix.vals["w"][0] == 1e16 + 2.0
        got = spgemm(a, b, spec, kernel="auto")
        assert_bits(got.matrix, want.matrix)
        assert got.ops == want.ops

    @given(
        shape=st.tuples(*[st.integers(20, 32)] * 3),
        density=st.sampled_from([0.8, 0.9, 1.0]),
        decades=st.integers(0, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_plus_times_real_payloads_are_bitwise(self, shape, density, decades, seed):
        # products of ≥ 4 096 ops with real payloads: auto sums every entry
        # of C as the generic kernel groups it, whatever size the product is
        rng = np.random.default_rng(seed)
        m, k, n = shape
        a = _plus_spmat(_spread(rng, m, k, density, decades))
        b = _plus_spmat(_spread(rng, k, n, density, decades))
        spec = REAL_PLUS_TIMES.matmul_spec()
        want = spgemm(a, b, spec, kernel="generic")
        got = spgemm(a, b, spec, kernel="auto")
        assert_bits(got.matrix, want.matrix)
        assert got.ops == want.ops

    def test_empty_operands(self):
        for monoid, spec in [
            (MinMonoid(), TROPICAL.matmul_spec()),
            (MULTPATH, BELLMAN_FORD_SPEC),
        ]:
            a = SpMat.empty(4, 5, monoid)
            b = SpMat.empty(5, 3, WEIGHT_MONOID)
            _assert_identical(a, b, spec, None, False, 1 << 22)


# ---------------------------------------------------------------------------
# the compiled path kernel == generic, to the bit
# ---------------------------------------------------------------------------

#: weights that tie, tie across a sign (±0.0), overflow to ±inf, and (with
#: NaN, and inf − inf) make the reduction refuse; payloads whose sum depends
#: on the order and grouping of the additions
_WEIGHTS = [0.0, -0.0, 0.5, 1.0, 1.25, 2.0, np.inf, -np.inf, np.nan]
_PAYLOADS = [0.0, -0.0, 0.1, 0.2, 0.3, 1.0, -1.0, 1e16, 1 / 3]

PATHSUM_SPECS = pytest.mark.parametrize(
    "spec, a_monoid",
    [(BELLMAN_FORD_SPEC, MULTPATH), (BRANDES_SPEC, CENTPATH)],
    ids=["multpath", "centpath"],
)


@st.composite
def _path_operand(draw, monoid, nrows, ncols):
    """A canonical matrix over ``monoid`` drawing from the awkward values."""
    cells = nrows * ncols
    flat = draw(st.lists(st.integers(0, cells - 1), unique=True, max_size=min(cells, 20)))
    rows, cols = np.divmod(np.array(sorted(flat), dtype=np.int64), ncols)
    vals = {}
    for name, dtype in monoid.field_spec:
        if dtype == np.int64:
            pool = st.integers(-3, 3)
        else:
            pool = st.sampled_from(_WEIGHTS if name == "w" else _PAYLOADS)
        vals[name] = np.array(
            draw(st.lists(pool, min_size=len(flat), max_size=len(flat))), dtype=dtype
        )
    # canonical by hand: the canonicalizing constructor refuses a NaN weight
    keep = ~monoid.is_identity(vals)
    vals = {name: col[keep] for name, col in vals.items()}
    return SpMat(nrows, ncols, rows[keep], cols[keep], vals, monoid, canonical=True)


@st.composite
def _path_products(draw, a_monoid):
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    a = draw(_path_operand(a_monoid, m, k))
    b = draw(_path_operand(WEIGHT_MONOID, k, n))
    mask = draw(st.none() | cst.spmats(monoid=WEIGHT_MONOID, shape=(m, n)))
    complement = draw(st.booleans()) if mask is not None else False
    # at 1 and 3 a row joining more pairs than the chunk is a chunk of its own
    chunk = draw(st.sampled_from([1, 3, 7, 1 << 22]))
    return a, b, mask, complement, chunk


def _outcome(a, b, spec, mask, complement, chunk, kernel):
    """The product, or the message of the ``ValueError`` it raised."""
    try:
        spec = ruled(spec, "complement" if complement else spec.mask_rule)
        return spgemm(a, b, spec, mask=mask, chunk=chunk, kernel=kernel)
    except ValueError as exc:
        return str(exc)


def _assert_same_bits(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.ops == want.ops
    x, y = got.matrix, want.matrix
    assert x.shape == y.shape
    assert np.array_equal(x.rows, y.rows) and np.array_equal(x.cols, y.cols)
    for name, col in y.vals.items():
        assert x.vals[name].dtype == col.dtype, name
        assert np.array_equal(x.vals[name].view(np.uint64), col.view(np.uint64)), name


@st.composite
def _long_run_products(draw, a_monoid):
    """Runs of up to ≈ 300 pairs: past numpy's left-to-right regime (≥ 9
    pairs go through eight lanes) and its recursive split (> 129), the
    regimes the compiled kernel's payload sums reproduce in C."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 300)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(monoid, nrows, ncols, density):
        rows, cols = (rng.random((nrows, ncols)) < density).nonzero()
        vals = {}
        for name, dtype in monoid.field_spec:
            if dtype == np.int64:
                vals[name] = rng.integers(-3, 4, len(rows))
            else:  # a small weight pool: ties interleave with losers
                pool = _LONG_RUN_WEIGHTS if name == "w" else _PAYLOADS
                vals[name] = rng.choice(np.array(pool), len(rows))
        keep = ~monoid.is_identity(vals)
        vals = {name: col[keep] for name, col in vals.items()}
        return SpMat(nrows, ncols, rows[keep], cols[keep], vals, monoid, canonical=True)

    a = operand(a_monoid, m, k, draw(st.sampled_from([0.3, 0.9, 1.0])))
    b = operand(WEIGHT_MONOID, k, n, draw(st.sampled_from([0.5, 1.0])))
    mask = draw(st.none() | st.just(operand(WEIGHT_MONOID, m, n, 0.6)))
    complement = draw(st.booleans()) if mask is not None else False
    # the small chunks are below a row's join: each such row is a chunk alone
    chunk = draw(st.sampled_from([7, 100, 250, 1 << 22]))
    return a, b, mask, complement, chunk


_LONG_RUN_WEIGHTS = [0.0, -0.0, 1.0, 2.0]


def _random_path_spmat(rng, monoid, m, n, density=0.5):
    rows, cols = (rng.random((m, n)) < density).nonzero()
    vals = {
        name: rng.integers(1, 4, len(rows)).astype(dtype)
        for name, dtype in monoid.field_spec
    }
    return SpMat(m, n, rows, cols, vals, monoid)


class TestCompiledPathsum:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf − inf
    @PATHSUM_SPECS
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_generic_bitwise(self, spec, a_monoid, data):
        if _native.pathsum() is None:
            pytest.skip("compiled path kernel unavailable here")
        product = data.draw(_path_products(a_monoid))
        want = _outcome(*product[:2], spec, *product[2:], "generic")
        _assert_same_bits(_outcome(*product[:2], spec, *product[2:], "auto"), want)

    @PATHSUM_SPECS
    def test_compiled_body_is_the_one_running(self, spec, a_monoid, rng, monkeypatch):
        # the property above proves nothing about C if C quietly declines
        if _native.pathsum() is None:
            pytest.skip("compiled path kernel unavailable here")
        a = _random_path_spmat(rng, a_monoid, 5, 6)
        b = cst.random_weight_spmat(rng, 6, 7, 0.6)
        mask = cst.random_weight_spmat(rng, 5, 7, 0.5)
        for chunk in (2, 1 << 22):
            want = spgemm(a, b, ruled(spec), mask=mask, chunk=chunk, kernel="generic")
            with monkeypatch.context() as patch:
                patch.setattr(
                    spgemm_mod, "_spgemm_generic", lambda *a, **k: pytest.fail("declined")
                )
                got = spgemm(a, b, ruled(spec), mask=mask, chunk=chunk)
            _assert_same_bits(got, want)

    @PATHSUM_SPECS
    def test_nan_weight_raises_the_generic_error(self, spec, a_monoid):
        vals = {n: np.ones(1, dtype=d) for n, d in a_monoid.field_spec}
        a = SpMat(1, 1, [0], [0], vals, a_monoid, canonical=True)
        b = SpMat(1, 1, [0], [0], {"w": np.array([np.nan])}, WEIGHT_MONOID, canonical=True)
        with pytest.raises(ValueError, match="NaN weight in a tie-sum reduction"):
            spgemm(a, b, spec, kernel="generic")
        with pytest.raises(ValueError, match="NaN weight in a tie-sum reduction"):
            spgemm(a, b, spec)
        # masked out, the pair is never formed: neither kernel may look at it
        hidden = SpMat(1, 1, [0], [0], {"w": np.ones(1)}, WEIGHT_MONOID)
        assert spgemm(a, b, ruled(spec), mask=hidden).ops == 0

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_tied_signed_zero_weights_keep_the_first(self, first):
        # +0.0 == −0.0 ties; the run's weight is the first pair's, sign and all
        a = SpMat(
            1, 2, [0, 0], [0, 1], MULTPATH.make([first, -first], [1.0, 2.0]), MULTPATH
        )
        b = SpMat(2, 1, [0, 1], [0, 0], {"w": np.array([first, -first])}, WEIGHT_MONOID)
        want = spgemm(a, b, BELLMAN_FORD_SPEC, kernel="generic")
        assert np.signbit(want.matrix.vals["w"][0]) == np.signbit(first)
        assert want.matrix.vals["m"][0] == 3.0
        _assert_same_bits(spgemm(a, b, BELLMAN_FORD_SPEC), want)

    def test_negative_zero_payload_takes_tie_sums_side(self):
        # docs/performance_model.md §5: a lone winner beside a loser is padded
        # with +0.0 by tie_sum, so its −0.0 payload reads +0.0 — from both kernels
        a = SpMat(
            1, 2, [0, 0], [0, 1], MULTPATH.make([1.0, 5.0], [-0.0, 7.0]), MULTPATH
        )
        b = SpMat(2, 1, [0, 1], [0, 0], {"w": np.array([1.0, 1.0])}, WEIGHT_MONOID)
        want = spgemm(a, b, BELLMAN_FORD_SPEC, kernel="generic")
        assert not np.signbit(want.matrix.vals["m"][0])
        _assert_same_bits(spgemm(a, b, BELLMAN_FORD_SPEC), want)

    @PATHSUM_SPECS
    def test_threads_multiplying_at_once_agree_with_serial(
        self, spec, a_monoid, rng, tmp_path, monkeypatch
    ):
        """A ``BCService`` multiplies on its dispatcher thread and two
        services can share a process: more workers than cores, a short
        switch interval, and a cold loader cache so the first products of
        several threads race into the build as well."""
        pairs = [
            (_random_path_spmat(rng, a_monoid, 9, 11), cst.random_weight_spmat(rng, 11, 13, 0.5))
            for _ in range(24)
        ]
        masks = [cst.random_weight_spmat(rng, 9, 13, 0.5) for _ in pairs]
        want = [
            spgemm(x, y, spec, mask=m, kernel="generic")
            for (x, y), m in zip(pairs, masks)
        ]
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [tmp_path / "cache"])
        _native._library.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(5):
                    got = pool.map(
                        lambda xy, m: spgemm(*xy, spec, mask=m),
                        pairs,
                        masks,
                        timeout=60.0,
                    )
                    for g, w in zip(got, want, strict=True):
                        _assert_same_bits(g, w)
        finally:
            sys.setswitchinterval(interval)
            _native._library.cache_clear()

    @PATHSUM_SPECS
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_long_runs_match_generic_bitwise(self, spec, a_monoid, data):
        if _native.pathsum() is None:
            pytest.skip("compiled path kernel unavailable here")
        product = data.draw(_long_run_products(a_monoid))
        want = _outcome(*product[:2], spec, *product[2:], "generic")
        _assert_same_bits(_outcome(*product[:2], spec, *product[2:], "auto"), want)

    def test_run_sums_equal_reduceat_on_tie_then_zero_layouts(self):
        """Every run length 1–300 with every tie count 1…length, the C sum
        against ``np.add.reduceat`` over ``tie_sum``'s layout."""
        lib = _native._library()
        if lib is None:
            pytest.skip("compiled library unavailable here")
        rng = np.random.default_rng(17)
        for length in range(1, 301):
            counts = np.arange(1, length + 1)  # run r: r + 1 ties, then zeros
            starts = np.arange(0, length * length, length)
            behind = np.arange(length) >= counts[:, None]
            for value in (
                rng.choice(np.array(_PAYLOADS), (length, length))
                * rng.choice([1.0, 1e-9, 1e9], (length, length)),
                np.full((length, length), -0.0),
            ):
                value[behind] = 0.0
                layout = value.ravel()
                want = np.add.reduceat(layout, starts)
                got = _native.run_sums(lib, layout, starts, counts)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), length


# ---------------------------------------------------------------------------
# mask semantics (mode-independent)
# ---------------------------------------------------------------------------


class TestMaskSemantics:
    @pytest.fixture
    def abm(self, rng):
        a = cst.random_weight_spmat(rng, 8, 8, 0.4)
        b = cst.random_weight_spmat(rng, 8, 8, 0.4)
        mask = cst.random_weight_spmat(rng, 8, 8, 0.3)
        return a, b, mask

    @pytest.mark.parametrize("kernel", ["generic", "auto"])
    def test_mask_restricts_support(self, abm, kernel):
        a, b, mask = abm
        spec = TROPICAL.matmul_spec()
        full = spgemm(a, b, spec, kernel=kernel)
        kept = spgemm(a, b, spec, mask=mask, kernel=kernel)
        comp = spgemm(a, b, ruled(spec), mask=mask, kernel=kernel)
        mk = set(zip(mask.rows.tolist(), mask.cols.tolist()))
        kept_keys = set(zip(kept.matrix.rows.tolist(), kept.matrix.cols.tolist()))
        comp_keys = set(zip(comp.matrix.rows.tolist(), comp.matrix.cols.tolist()))
        full_keys = set(zip(full.matrix.rows.tolist(), full.matrix.cols.tolist()))
        assert kept_keys == full_keys & mk
        assert comp_keys == full_keys - mk
        # masked ops count only the surviving elementary products
        assert kept.ops + comp.ops == full.ops

    @pytest.mark.parametrize("kernel", ["generic", "auto"])
    def test_empty_mask(self, abm, kernel):
        a, b, _ = abm
        spec = TROPICAL.matmul_spec()
        empty = SpMat.empty(8, 8, WEIGHT_MONOID)
        out = spgemm(a, b, spec, mask=empty, kernel=kernel)
        assert out.matrix.nnz == 0 and out.ops == 0
        # complemented empty mask excludes nothing
        out = spgemm(a, b, ruled(spec), mask=empty, kernel=kernel)
        ref = spgemm(a, b, spec, kernel="generic")
        assert out.matrix.equals(ref.matrix) and out.ops == ref.ops

    def test_mask_shape_validated(self, abm):
        a, b, _ = abm
        bad = SpMat.empty(3, 3, WEIGHT_MONOID)
        with pytest.raises(ValueError):
            spgemm(a, b, TROPICAL.matmul_spec(), mask=bad)


# ---------------------------------------------------------------------------
# unified signature + deprecated alias
# ---------------------------------------------------------------------------


class TestUnifiedApi:
    def test_result_shape(self, rng):
        a = cst.random_weight_spmat(rng, 5, 5, 0.5)
        res = spgemm(a, a, TROPICAL.matmul_spec())
        assert isinstance(res, SpGemmResult)
        assert res.ops == res.row_ops.sum()


# ---------------------------------------------------------------------------
# end to end: the full MFBC pipeline is mode-invariant
# ---------------------------------------------------------------------------


def _generic_scores(graph):
    with kernel("generic"):
        return mfbc(graph, engine=SequentialEngine()).scores


class TestEndToEnd:
    def test_mfbc_sequential_bitwise(self):
        g = rmat_graph(scale=5, avg_degree=4, seed=3)
        ref = _generic_scores(g)
        got = mfbc(g, engine=SequentialEngine()).scores
        assert np.array_equal(ref, got)

    def test_mfbc_distributed_checked_fast(self):
        # full differential replay: every fast-path product is re-verified
        # against the generic oracle inside CheckedEngine
        g = rmat_graph(scale=4, avg_degree=4, seed=7)
        ref = _generic_scores(g)
        engine = DistributedEngine(Machine(4, check="full"))
        got = mfbc(g, engine=engine).scores
        assert np.array_equal(ref, got)
        stats = engine.stats
        assert stats["mismatches"] == 0 and stats["replayed"] > 0


# ---------------------------------------------------------------------------
# the tie mask: a pair survives only on its mask entry's weight
# ---------------------------------------------------------------------------

#: the Bellman-Ford product under a tie mask, so both path kernels' weight
#: rules (a sum, a difference) meet the rule
_TIE_BF_SPEC = MatMulSpec(MULTPATH, bellman_ford_action, name="tie-bf", mask_rule="tie")

TIE_SPECS = pytest.mark.parametrize(
    "spec, a_monoid",
    [(_TIE_BF_SPEC, MULTPATH), (SUCCESSOR_SPEC, CENTPATH)],
    ids=["multpath", "centpath"],
)


#: few weights, so that pairs tie with the mask often: ±0.0, an infinity
#: and NaN among them, on the mask's side too
_TIE_WEIGHTS = (0.0, -0.0, 1.0, 2.0, np.inf, np.nan)


@st.composite
def _tie_operand(draw, monoid, nrows, ncols):
    """A canonical matrix over ``monoid`` with each cell present by a coin
    toss (rows left empty included), its weights from ``_TIE_WEIGHTS``."""
    present = draw(st.lists(st.booleans(), min_size=nrows * ncols, max_size=nrows * ncols))
    rows, cols = np.divmod(np.flatnonzero(present), ncols)
    vals = {}
    for name, dtype in monoid.field_spec:
        if dtype == np.int64:
            pool = st.integers(-3, 3)
        else:
            pool = st.sampled_from(_TIE_WEIGHTS if name == "w" else _PAYLOADS)
        vals[name] = np.array(
            draw(st.lists(pool, min_size=len(rows), max_size=len(rows))), dtype=dtype
        )
    keep = ~monoid.is_identity(vals)
    vals = {name: col[keep] for name, col in vals.items()}
    return SpMat(nrows, ncols, rows[keep], cols[keep], vals, monoid, canonical=True)


@st.composite
def _tie_products(draw, a_monoid):
    """Products whose mask weights come from the pairs' own small pool, at
    chunks below a row's join (each such row a chunk of its own)."""
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    a = draw(_tie_operand(a_monoid, m, k))
    b = draw(_tie_operand(WEIGHT_MONOID, k, n))
    mask = draw(_tie_operand(WEIGHT_MONOID, m, n))
    chunk = draw(st.sampled_from([1, 2, 3, 7, 1 << 22]))
    return a, b, mask, chunk


class TestTieMask:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf − inf
    @TIE_SPECS
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_generic_bitwise(self, spec, a_monoid, data):
        if _native.pathsum() is None:
            pytest.skip("compiled path kernel unavailable here")
        a, b, mask, chunk = data.draw(_tie_products(a_monoid))
        want = _outcome(a, b, spec, mask, False, chunk, "generic")
        _assert_same_bits(_outcome(a, b, spec, mask, False, chunk, "auto"), want)

    @TIE_SPECS
    def test_compiled_body_is_the_one_running(self, spec, a_monoid, rng, monkeypatch):
        if _native.pathsum() is None:
            pytest.skip("compiled path kernel unavailable here")
        a = _random_path_spmat(rng, a_monoid, 5, 6)
        b = cst.random_weight_spmat(rng, 6, 7, 0.6)
        # the mask holds each entry's best weight: the product's winners tie
        untied = ruled(spec, "keep")
        mask = spgemm(a, b, untied, kernel="generic").matrix.map(
            lambda v: {"w": v["w"]}, monoid=WEIGHT_MONOID
        )
        for chunk in (2, 1 << 22):
            want = spgemm(a, b, spec, mask=mask, chunk=chunk, kernel="generic")
            assert 0 < want.ops < spgemm(a, b, untied, mask=mask, chunk=chunk).ops
            with monkeypatch.context() as patch:
                patch.setattr(
                    spgemm_mod, "_spgemm_generic", lambda *a, **k: pytest.fail("declined")
                )
                got = spgemm(a, b, spec, mask=mask, chunk=chunk)
            _assert_same_bits(got, want)

    @pytest.mark.parametrize("kernel", ["generic", "auto"])
    def test_only_tying_pairs_are_formed_and_counted(self, kernel):
        # row 0 joins three pairs onto column 0 at weights 3 − 1, 3 − 2 and
        # 4 − 2; the mask's 2.0 keeps the first and the last, c = 1 + 1
        a = SpMat(1, 3, [0, 0, 0], [0, 1, 2], CENTPATH.make([3.0, 3.0, 4.0], [0.0] * 3, [1] * 3), CENTPATH)
        b = SpMat(3, 1, [0, 1, 2], [0, 0, 0], {"w": np.array([1.0, 2.0, 2.0])}, WEIGHT_MONOID)
        mask = SpMat(1, 1, [0], [0], {"w": np.array([2.0])}, WEIGHT_MONOID)
        got = spgemm(a, b, SUCCESSOR_SPEC, mask=mask, kernel=kernel)
        assert got.ops == 2 and got.row_ops.tolist() == [2]
        assert got.matrix.vals["w"].tolist() == [2.0] and got.matrix.vals["c"].tolist() == [2]
        # a NaN mask weight ties nothing, and no pair is formed
        nan = SpMat(1, 1, [0], [0], {"w": np.array([np.nan])}, WEIGHT_MONOID, canonical=True)
        none = spgemm(a, b, SUCCESSOR_SPEC, mask=nan, kernel=kernel)
        assert none.ops == 0 and none.matrix.nnz == 0

    def test_needs_a_plain_mask(self):
        a = SpMat(1, 1, [0], [0], CENTPATH.make([1.0], [0.0], [1]), CENTPATH)
        b = SpMat(1, 1, [0], [0], {"w": np.ones(1)}, WEIGHT_MONOID)
        for kernel in ("generic", "auto"):
            with pytest.raises(ValueError, match="'tie' mask rule requires a mask"):
                spgemm(a, b, SUCCESSOR_SPEC, kernel=kernel)
        # one rule per operator: a complemented tie rule cannot be stated
        with pytest.raises(ValueError, match="is not one of"):
            ruled(SUCCESSOR_SPEC, "complement-tie")


# ---------------------------------------------------------------------------
# replay cases carry masks (v2) and still load v1 archives
# ---------------------------------------------------------------------------


class TestReplayCases:
    def _case(self, rng, *, mask):
        a = cst.random_weight_spmat(rng, 6, 6, 0.5)
        b = cst.random_weight_spmat(rng, 6, 6, 0.5)
        got = spgemm(a, b, TROPICAL.matmul_spec(), mask=mask, kernel="generic")
        return ReplayCase(
            a=a,
            b=b,
            spec_name="tropical",
            got=got.matrix,
            got_ops=got.ops,
            mask=mask,
        )

    def test_masked_roundtrip(self, rng, tmp_path):
        mask = cst.random_weight_spmat(rng, 6, 6, 0.4)
        case = self._case(rng, mask=mask)
        path = tmp_path / "case.npz"
        save_case(case, path)
        loaded = load_case(path)
        assert loaded.mask is not None and loaded.mask.equals(mask)
        assert loaded.spec.mask_rule == "keep"
        assert replay(loaded).matches

    @staticmethod
    def _rewrite(path, out, **meta_changes):
        """``path``'s archive saved at ``out`` with its meta changed."""
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta.update(meta_changes)
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(out, **data)
        return out

    def test_v1_archive_still_loads(self, rng, tmp_path):
        case = self._case(rng, mask=None)
        path = tmp_path / "case.npz"
        save_case(case, path)
        # rewrite the archive as a pre-mask v1 case
        loaded = load_case(self._rewrite(path, tmp_path / "case_v1.npz", version=1))
        assert loaded.mask is None
        assert replay(loaded).matches

    @pytest.mark.parametrize(
        "base, operator",
        [
            ("bellman-ford", "repro.core.specs:BFS_LEVEL_SPEC"),
            ("real", "repro.baselines.combblas_bc:_FORWARD"),
            ("bfs", "repro.apps.bfs:_SPEC"),
        ],
        ids=["mfbf-level", "combblas-forward", "bfs-app"],
    )
    def test_v2_complemented_archive_replays_on_its_operator(self, base, operator, rng, tmp_path):
        # a v2 archive named the plain operator and flagged the complement
        # beside it; it loads as the complemented operator the caller runs
        module, name = operator.split(":")
        operator = getattr(importlib.import_module(module), name)
        if operator.monoid is MULTPATH:
            a = _random_path_spmat(rng, MULTPATH, 6, 6)
        else:
            a = cst.random_weight_spmat(rng, 6, 6, 0.5)
            a = a.map(lambda v: {"w": v["w"]}, monoid=operator.monoid)
        b = cst.random_weight_spmat(rng, 6, 6, 0.5)
        mask = cst.random_weight_spmat(rng, 6, 6, 0.4)
        got = spgemm(a, b, operator, mask=mask)
        path = tmp_path / "case.npz"
        save_case(
            ReplayCase(a=a, b=b, spec_name=operator.name, got=got.matrix,
                       got_ops=got.ops, mask=mask),
            path,
        )
        v2 = self._rewrite(path, tmp_path / "case_v2.npz", version=2, spec=base,
                           mask_complement=True)
        loaded = load_case(v2)
        assert loaded.spec is operator and loaded.spec.mask_rule == "complement"
        ref = spgemm(loaded.a, loaded.b, loaded.spec, mask=loaded.mask, kernel="generic")
        assert_bits(ref.matrix, got.matrix)
        assert ref.ops == got.ops < spgemm(a, b, ruled(operator, "keep")).ops
        assert replay(loaded).matches

    @pytest.mark.parametrize(
        "app", ["bfs", "connected", "sssp", "triangles", "widest_path"]
    )
    def test_app_specs_resolve_to_the_objects_the_apps_run(self, app):
        spec = importlib.import_module(f"repro.apps.{app}")._SPEC
        assert resolve_spec(spec.name) is spec
        # the BFS app's screen is its operator's complemented mask
        assert spec.mask_rule == ("complement" if app == "bfs" else "keep")

    def test_the_combblas_spec_resolves_to_the_object_the_baseline_runs(self):
        # the package re-exports the function under the module's name
        combblas_bc = importlib.import_module("repro.baselines.combblas_bc")
        assert resolve_spec(combblas_bc._SPEC.name) is combblas_bc._SPEC
        forward = combblas_bc._FORWARD
        assert resolve_spec(forward.name) is forward and forward.mask_rule == "complement"

    def test_core_specs_resolve_to_themselves(self):
        assert resolve_spec("bellman-ford") is BELLMAN_FORD_SPEC
        assert resolve_spec("bf") is BELLMAN_FORD_SPEC
        assert resolve_spec("brandes") is BRANDES_SPEC
        assert resolve_spec("bfs-level") is BFS_LEVEL_SPEC

    @pytest.mark.parametrize("caller", ["mfbc", "bfs_levels", "combblas_bc"])
    def test_every_operator_a_run_multiplies_with_resolves_to_itself(self, caller, monkeypatch):
        # the registry holds the very objects a run multiplies with, each
        # complemented operator under its own name
        from repro import bfs_levels, combblas_bc

        seen = {}
        inner = SequentialEngine.spgemm

        def recording(self, a, b, spec, *, mask=None):
            seen[spec.name] = spec
            return inner(self, a, b, spec, mask=mask)

        monkeypatch.setattr(SequentialEngine, "spgemm", recording)
        graph, sources = rmat_graph(5, 4, seed=3), np.arange(4)
        if caller == "bfs_levels":
            bfs_levels(graph, sources)
        else:
            {"mfbc": mfbc, "combblas_bc": combblas_bc}[caller](graph, sources=sources)
        assert any(spec.mask_rule == "complement" for spec in seen.values())
        for name, spec in seen.items():
            assert resolve_spec(name) is spec

    def test_successor_spec_resolves_to_itself(self):
        assert resolve_spec("successor") is SUCCESSOR_SPEC

    def test_tie_masked_case_replays_bit_for_bit(self, rng, tmp_path):
        a = _random_path_spmat(rng, CENTPATH, 6, 6)
        b = cst.random_weight_spmat(rng, 6, 6, 0.5)
        mask = spgemm(a, b, BRANDES_SPEC, kernel="generic").matrix.map(
            lambda v: {"w": v["w"]}, monoid=WEIGHT_MONOID
        )
        got = spgemm(a, b, SUCCESSOR_SPEC, mask=mask)
        assert got.ops > 0
        path = tmp_path / "case.npz"
        save_case(
            ReplayCase(a=a, b=b, spec_name="successor", got=got.matrix, got_ops=got.ops, mask=mask),
            path,
        )
        loaded = load_case(path)
        assert loaded.spec is SUCCESSOR_SPEC
        ref = spgemm(loaded.a, loaded.b, loaded.spec, mask=loaded.mask, kernel="generic")
        assert_bits(ref.matrix, got.matrix)
        assert ref.ops == got.ops and replay(loaded).matches
