"""CheckedEngine end-to-end: enablement roads, clean runs, and the mutation test.

The core acceptance test here plants a real bug (a monkeypatched
``execute_plan`` that mis-reports or corrupts products) and requires the
checked engine to (1) raise :class:`CheckFailure`, (2) emit a minimized
``.npz`` repro case plus a standalone replay script, and (3) have that
artifact reproduce the divergence in a fresh interpreter with the bug gone —
the artifact stores the *divergent* result, so it stays red on healthy code.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.algebra import TROPICAL
from repro.check import (
    CheckConfig,
    CheckedEngine,
    CheckError,
    CheckFailure,
    resolve_check_config,
)
from repro.check.replay import load_case, replay
from repro.core import mfbc
from repro.core.engine import SequentialEngine
from repro.dist import DistributedEngine
from repro.graphs import rmat_graph
from repro.machine import Machine
from repro.sparse import SpMat

# ``repro.spgemm`` the *function* shadows the subpackage attribute on the
# top-level package, so the variants module must be imported by name.
variants = importlib.import_module("repro.spgemm.variants")

W = TROPICAL.add_monoid
TROP = TROPICAL.matmul_spec()

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _mat(engine, rng, n, density=0.3):
    mask = rng.random((n, n)) < density
    r, c = mask.nonzero()
    vals = rng.integers(1, 9, len(r)).astype(float)
    return engine.matrix(n, n, r.astype(np.int64), c.astype(np.int64), {"w": vals}, W)


# ---------------------------------------------------------------------------
# the REPRO_CHECK grammar
# ---------------------------------------------------------------------------


class TestResolveConfig:
    @pytest.mark.parametrize("spec", ["", "none", "off", "0", "false", "OFF"])
    def test_off_spellings(self, spec):
        assert resolve_check_config(spec) is None

    def test_levels(self):
        assert resolve_check_config("cheap") == CheckConfig("cheap")
        assert resolve_check_config("full") == CheckConfig("full", sample=1)
        assert resolve_check_config("sample:5") == CheckConfig("sample", sample=5)

    def test_config_passthrough(self):
        cfg = CheckConfig("sample", sample=3)
        assert resolve_check_config(cfg) is cfg

    @pytest.mark.parametrize("spec", ["verbose", "sample:", "sample:abc", "sample:0"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            resolve_check_config(spec)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_check_config(7)

    def test_bad_mode_in_config(self):
        with pytest.raises(ValueError):
            CheckConfig("paranoid")
        with pytest.raises(ValueError):
            CheckConfig("cheap", sample=-1)

    def test_describe(self):
        assert CheckConfig("full", sample=1).describe() == "full"
        assert CheckConfig("sample", sample=4).describe() == "sample:4"


# ---------------------------------------------------------------------------
# enablement roads
# ---------------------------------------------------------------------------


class TestEnablement:
    def test_engine_kwarg(self):
        # one check level, the machine's: there is no per-engine override
        with pytest.raises(TypeError, match="check"):
            DistributedEngine(Machine(2), check="full")
        engine = DistributedEngine(Machine(2, check="cheap"))
        assert isinstance(engine, CheckedEngine)
        assert isinstance(engine.engine, DistributedEngine)

    def test_off_means_no_wrapper(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        engine = DistributedEngine(Machine(2))
        assert isinstance(engine, DistributedEngine)
        assert not isinstance(engine, CheckedEngine)
        assert isinstance(DistributedEngine(Machine(2, check="off")), DistributedEngine)

    def test_machine_kwarg(self):
        machine = Machine(2, check="full")
        engine = DistributedEngine(machine)
        assert isinstance(engine, CheckedEngine)
        assert engine.config == CheckConfig("full", sample=1)

    def test_env_road(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "cheap")
        engine = DistributedEngine(Machine(2))
        assert isinstance(engine, CheckedEngine)
        assert engine.config.mode == "cheap"

    def test_explicit_off_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "full")
        engine = DistributedEngine(Machine(2, check="off"))
        assert not isinstance(engine, CheckedEngine)

    def test_delegation(self):
        machine = Machine(2, check="cheap")
        engine = DistributedEngine(machine)
        assert engine.machine is machine  # __getattr__ reaches through
        engine.recover()  # delegates without blowing up


# ---------------------------------------------------------------------------
# clean runs: checking passes and counts work
# ---------------------------------------------------------------------------


class TestCleanRuns:
    def test_full_checked_mfbc_agrees(self):
        g = rmat_graph(4, 4, seed=7)
        engine = DistributedEngine(Machine(4, check="full"))
        got = mfbc(g, engine=engine).scores
        ref = mfbc(g).scores
        assert np.allclose(got, ref, atol=1e-8)
        assert engine.stats["validated"] > 0
        assert engine.stats["replayed"] > 0
        assert engine.stats["mismatches"] == 0

    def test_sequential_engine_can_be_checked(self):
        engine = CheckedEngine(SequentialEngine(), "full")
        rng = np.random.default_rng(0)
        a, b = _mat(engine, rng, 10), _mat(engine, rng, 10)
        out, ops = engine.spgemm(a, b, TROP)
        ref, ref_ops = SequentialEngine().spgemm(a, b, TROP)
        assert out.equals(ref) and ops == ref_ops

    def test_broken_operand_is_rejected(self):
        engine = CheckedEngine(SequentialEngine(), "cheap")
        bad = SpMat.__new__(SpMat)
        bad.nrows = bad.ncols = 4
        bad.rows = np.array([1, 0], dtype=np.int64)  # unsorted
        bad.cols = np.array([0, 1], dtype=np.int64)
        bad.vals = {"w": np.array([1.0, 2.0])}
        bad.monoid = W
        bad._rowptr = bad._keys = None
        rng = np.random.default_rng(1)
        good = _mat(engine, rng, 4)
        with pytest.raises(CheckError, match="operand_a"):
            engine.spgemm(bad, good, TROP)


# ---------------------------------------------------------------------------
# the mutation test: a planted bug must be caught, minimized, and replayable
# ---------------------------------------------------------------------------


def _checked_product(tmp_path, monkeypatch, p=4, n=12, seed=3):
    monkeypatch.setenv("REPRO_CHECK_DIR", str(tmp_path))
    engine = DistributedEngine(Machine(p, check=CheckConfig("full", sample=1)))
    rng = np.random.default_rng(seed)
    return engine, _mat(engine, rng, n), _mat(engine, rng, n)


class TestMutationCatch:
    def test_ops_lie_is_caught_and_replayable(self, tmp_path, monkeypatch):
        real = variants.execute_plan

        def lying(*args, **kwargs):
            out, ops = real(*args, **kwargs)
            return out, ops + 1

        monkeypatch.setattr(variants, "execute_plan", lying)
        engine, a, b = _checked_product(tmp_path, monkeypatch)
        with pytest.raises(CheckFailure) as err:
            engine.spgemm(a, b, TROP)
        failure = err.value
        assert engine.stats["mismatches"] == 1
        assert failure.case_path and os.path.exists(failure.case_path)
        assert failure.script_path and os.path.exists(failure.script_path)
        assert str(failure.case_path).startswith(str(tmp_path))
        assert "repro script" in str(failure)

        # the artifact is self-contained: with the bug *removed*, replaying
        # still reports the stored divergence
        monkeypatch.setattr(variants, "execute_plan", real)
        case = load_case(failure.case_path)
        report = replay(case)
        assert not report.matches
        assert not report.ops_match
        # the minimizer shrank the operands (a total ops-lie minimizes to 0)
        assert case.a.nnz < a.nnz and case.b.nnz < b.nnz
        assert case.info["engine"] == "DistributedEngine"

    def test_value_corruption_is_caught(self, tmp_path, monkeypatch):
        real = variants.execute_plan

        def corrupting(*args, **kwargs):
            out, ops = real(*args, **kwargs)
            for i, j in np.ndindex(*out.grid_shape):
                blk = out.block(i, j)
                if blk.nnz:
                    vals = {k: v.copy() for k, v in blk.vals.items()}
                    vals["w"][0] += 1.0
                    out._set_block(
                        i, j, SpMat(blk.nrows, blk.ncols, blk.rows, blk.cols, vals, blk.monoid)
                    )
                    return out, ops
            return out, ops

        monkeypatch.setattr(variants, "execute_plan", corrupting)
        engine, a, b = _checked_product(tmp_path, monkeypatch, seed=5)
        with pytest.raises(CheckFailure) as err:
            engine.spgemm(a, b, TROP)
        monkeypatch.setattr(variants, "execute_plan", real)
        report = replay(load_case(err.value.case_path))
        assert not report.matches
        assert not report.matrix_match

    def test_generated_script_exits_one(self, tmp_path, monkeypatch):
        real = variants.execute_plan
        monkeypatch.setattr(
            variants, "execute_plan", lambda *a, **k: (lambda r: (r[0], r[1] + 1))(real(*a, **k))
        )
        engine, a, b = _checked_product(tmp_path, monkeypatch)
        with pytest.raises(CheckFailure) as err:
            engine.spgemm(a, b, TROP)
        monkeypatch.undo()

        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, err.value.script_path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DIVERGED" in proc.stdout

    def test_artifact_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_DIR", str(tmp_path / "artifacts"))
        real = variants.execute_plan
        monkeypatch.setattr(
            variants, "execute_plan", lambda *a, **k: (lambda r: (r[0], r[1] + 1))(real(*a, **k))
        )
        engine = DistributedEngine(Machine(4, check="full"))
        rng = np.random.default_rng(9)
        with pytest.raises(CheckFailure) as err:
            engine.spgemm(_mat(engine, rng, 10), _mat(engine, rng, 10), TROP)
        assert str(err.value.case_path).startswith(str(tmp_path / "artifacts"))

    def test_sampling_skips_products(self, tmp_path, monkeypatch):
        """sample:N replays every Nth product, so the lie survives N-1 calls."""
        real = variants.execute_plan
        monkeypatch.setattr(
            variants, "execute_plan", lambda *a, **k: (lambda r: (r[0], r[1] + 1))(real(*a, **k))
        )
        monkeypatch.setenv("REPRO_CHECK_DIR", str(tmp_path))
        cfg = CheckConfig("sample", sample=3)
        engine = DistributedEngine(Machine(4, check=cfg))
        rng = np.random.default_rng(11)
        a, b = _mat(engine, rng, 10), _mat(engine, rng, 10)
        engine.spgemm(a, b, TROP)  # product 1: not sampled
        engine.spgemm(a, b, TROP)  # product 2: not sampled
        with pytest.raises(CheckFailure):
            engine.spgemm(a, b, TROP)  # product 3: replayed, caught
        assert engine.stats["replayed"] == 1
