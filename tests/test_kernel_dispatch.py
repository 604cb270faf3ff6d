"""The kernel dispatch tier: recognition, knobs, and generic/fast identity.

The contract under test is the one ``repro.check`` enforces at runtime:
every fast path must be **bit-identical** to the generic kernel at matched
chunking, for every recognized semiring, masked or not.  The generic kernel
is the oracle throughout.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.check.replay import ReplayCase, load_case, replay, save_case
from repro.check.strategies import WEIGHT_MONOID
from repro.core.engine import SequentialEngine
from repro.core.specs import BELLMAN_FORD_SPEC, BRANDES_SPEC
from repro.dist import DistributedEngine
from repro.machine import Machine
from repro.sparse import (
    KernelTraits,
    SpGemmResult,
    SpMat,
    recognize,
    resolve_kernel_mode,
    spgemm,
)
from repro.sparse import dispatch as dispatch_mod
from repro.sparse.dispatch import dispatch_spgemm, register_fast_path

CC_SPEC = Semiring(
    add_monoid=MinMonoid(), multiply=left_project, name="cc"
).matmul_spec()


@pytest.fixture(autouse=True)
def _clean_kernel_env(monkeypatch):
    """Every test starts from the ambient default (no env)."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


class TestRecognition:
    @pytest.mark.parametrize(
        "spec, path, field",
        [
            (REAL_PLUS_TIMES.matmul_spec(), "plus-times", "w"),
            # every other semiring runs the generic kernel
            (TROPICAL.matmul_spec(), None, None),
            (TROPICAL.matmul_spec(name="bfs"), None, None),
            (MAX_MIN.matmul_spec(), None, None),
            (CC_SPEC, None, None),
            (BELLMAN_FORD_SPEC, "multpath", None),
            (BRANDES_SPEC, "centpath", None),
        ],
    )
    def test_builtin_traits(self, spec, path, field):
        expected = KernelTraits(path, field=field) if path else None
        assert recognize(spec) == expected

    def test_opaque_action_unrecognized(self):
        # a bare callable carries no recognizable algebraic structure
        spec = MatMulSpec(MULTPATH, lambda a, b: a, name="opaque")
        assert recognize(spec) is None

    def test_extension_registration(self, rng):
        spec = MatMulSpec(MULTPATH, lambda a, b: a, name="ext")
        sentinel = SpGemmResult(SpMat.empty(2, 2, MULTPATH), 0)
        n_before = len(dispatch_mod._FAST_PATHS)
        register_fast_path(
            lambda s: KernelTraits("ext") if s.name == "ext" else None,
            lambda *a, **k: sentinel,
        )
        try:
            assert recognize(spec) == KernelTraits("ext")
            a = cst.random_weight_spmat(rng, 3, 3, 0.5)
            got = dispatch_spgemm(
                a, a, spec, mask_keys=None, mask_complement=False,
                chunk=1 << 22,
            )
            assert got is sentinel
        finally:
            del dispatch_mod._FAST_PATHS[n_before:]


# ---------------------------------------------------------------------------
# mode grammar and where the knob lands (precedence: tests/test_config.py)
# ---------------------------------------------------------------------------


class TestModeKnob:
    def test_default_is_auto(self):
        assert resolve_kernel_mode() == "auto"
        assert resolve_kernel_mode(None) == "auto"

    def test_env_beats_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "generic")
        assert resolve_kernel_mode() == "generic"

    def test_normalization_and_rejection(self):
        assert resolve_kernel_mode("  Generic ") == "generic"
        for gone in ("turbo", "fast"):
            with pytest.raises(ValueError, match="unknown kernel mode"):
                resolve_kernel_mode(gone)

    def test_sequential_engine_knob(self):
        assert SequentialEngine(kernel="generic").kernel == "generic"
        assert SequentialEngine().kernel is None

    def test_machine_knob(self):
        m = Machine(4, kernel="generic")
        assert m.kernel == "generic"
        assert m.executor.kernel_mode == "generic"
        assert "kernel=generic" in repr(m)
        # the machine hands its workers a resolved mode, never "ask the env"
        plain = Machine(4)
        assert plain.kernel == plain.executor.kernel_mode == "auto"

    def test_cli_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bc", "g.txt", "--kernel", "generic"])
        assert args.kernel == "generic"
        assert build_parser().parse_args(["bc", "g.txt"]).kernel is None
        for gone in ("turbo", "fast"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bc", "g.txt", "--kernel", gone])

    def test_spgemm_reads_env(self, rng, monkeypatch):
        # REPRO_KERNEL=generic must disable dispatch even for recognized specs
        a = cst.random_weight_spmat(rng, 6, 6, 0.5)
        metrics = obs.Metrics()
        monkeypatch.setenv("REPRO_KERNEL", "generic")
        with obs.use(metrics=metrics):
            spgemm(a, a, TROPICAL.matmul_spec())
        assert metrics.total("kernel.dispatch") == 0.0

    def test_dispatch_counter(self, rng, monkeypatch):
        a = cst.random_weight_spmat(rng, 6, 6, 0.5)
        metrics = obs.Metrics()
        with obs.use(metrics=metrics):
            spgemm(a, a, TROPICAL.matmul_spec(), kernel="auto")
            # too small to repay the CSR conversion: scipy declines
            spgemm(a, a, REAL_PLUS_TIMES.matmul_spec(), kernel="auto")
            monkeypatch.setattr(dispatch_mod, "_SCIPY_MIN_OPS", 0)
            spgemm(a, a, REAL_PLUS_TIMES.matmul_spec(), kernel="auto")

        def count(kernel, outcome):
            return metrics.total("kernel.dispatch", kernel=kernel, outcome=outcome)

        assert count("generic", "unrecognized") == 1.0
        assert count("plus-times", "declined") == 1.0
        assert count("plus-times", "hit") == 1.0


# ---------------------------------------------------------------------------
# differential fuzz: fast == generic, bit for bit, at matched chunking
# ---------------------------------------------------------------------------


def _assert_identical(a, b, spec, mask, complement, chunk):
    gen = spgemm(
        a, b, spec, mask=mask, mask_complement=complement, chunk=chunk,
        kernel="generic",
    )
    # with the small-product guard lifted (scipy on tiny operands), then as is
    for min_ops in (0, dispatch_mod._SCIPY_MIN_OPS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dispatch_mod, "_SCIPY_MIN_OPS", min_ops)
            got = spgemm(
                a, b, spec, mask=mask, mask_complement=complement, chunk=chunk,
                kernel="auto",
            )
        assert got.matrix.equals(gen.matrix), min_ops
        assert got.ops == gen.ops, min_ops


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
        # big enough that auto takes the compiled scipy plus-times path
        mask = rng.random((48, 48)) < 0.5
        r, c = mask.nonzero()
        vals = rng.integers(1, 9, len(r)).astype(np.float64)
        a = SpMat(48, 48, r, c, {"w": vals}, PlusMonoid())
        _assert_identical(a, a, REAL_PLUS_TIMES.matmul_spec(), None, False, 1 << 22)

    def test_empty_operands(self):
        for monoid, spec in [
            (MinMonoid(), TROPICAL.matmul_spec()),
            (MULTPATH, BELLMAN_FORD_SPEC),
        ]:
            a = SpMat.empty(4, 5, monoid)
            b = SpMat.empty(5, 3, WEIGHT_MONOID)
            _assert_identical(a, b, spec, None, False, 1 << 22)


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
        comp = spgemm(a, b, spec, mask=mask, mask_complement=True, kernel=kernel)
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
        out = spgemm(a, b, spec, mask=empty, mask_complement=True, kernel=kernel)
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
        mat, ops = res  # SpGemmResult unpacks like the old tuple
        assert mat is res.matrix and ops == res.ops


# ---------------------------------------------------------------------------
# end to end: the full MFBC pipeline is mode-invariant
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_mfbc_sequential_bitwise(self):
        g = rmat_graph(scale=5, avg_degree=4, seed=3)
        ref = mfbc(g, engine=SequentialEngine(kernel="generic")).scores
        got = mfbc(g, engine=SequentialEngine(kernel="auto")).scores
        assert np.array_equal(ref, got)

    def test_mfbc_distributed_checked_fast(self):
        # full differential replay: every fast-path product is re-verified
        # against the generic oracle inside CheckedEngine
        g = rmat_graph(scale=4, avg_degree=4, seed=7)
        ref = mfbc(g, engine=SequentialEngine(kernel="generic")).scores
        machine = Machine(4, kernel="auto")
        engine = DistributedEngine(machine, check="full")
        got = mfbc(g, engine=engine).scores
        assert np.array_equal(ref, got)
        stats = engine.stats
        assert stats["mismatches"] == 0 and stats["replayed"] > 0


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
        assert not loaded.mask_complement
        assert replay(loaded).matches

    def test_v1_archive_still_loads(self, rng, tmp_path):
        case = self._case(rng, mask=None)
        path = tmp_path / "case.npz"
        save_case(case, path)
        # rewrite the archive as a pre-mask v1 case
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 1
        del meta["mask_complement"]
        data["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        v1 = tmp_path / "case_v1.npz"
        np.savez(v1, **data)
        loaded = load_case(v1)
        assert loaded.mask is None and not loaded.mask_complement
        assert replay(loaded).matches
