"""The build-on-first-use loader of the compiled path kernel.

Whatever goes wrong between "a product wants the compiled kernel" and "the
library is loaded" — no compiler, nowhere to write, a file in the cache that
is not our library — must end on the generic kernel with the same bits, no
exception and nothing on stderr.  Every failure here is staged by patching
the loader's own seams (``_compiler``, ``_cache_dirs``), never by a switch in
the package.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.algebra import MULTPATH
from repro.algebra.monoid import MinWeightTieSumMonoid
from repro.check import strategies as cst
from repro.core.specs import BELLMAN_FORD_SPEC
from repro.sparse import SpMat, _native, spgemm

from conftest import assert_bits

spgemm_mod = sys.modules[spgemm.__module__]

ROOT = Path(__file__).resolve().parent.parent
GCC = shutil.which("gcc")
needs_gcc = pytest.mark.skipif(GCC is None, reason="no gcc on PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A cold, private cache directory and an undecided loader."""
    directory = tmp_path / "cache"
    monkeypatch.setattr(_native, "_cache_dirs", lambda: [directory])
    _native._library.cache_clear()
    yield directory
    _native._library.cache_clear()


def _operands():
    rng = np.random.default_rng(5)
    rows, cols = (rng.random((7, 9)) < 0.6).nonzero()
    a = SpMat(
        7, 9, rows, cols,
        MULTPATH.make(rng.integers(1, 4, len(rows)), rng.random(len(rows))),
        MULTPATH,
    )
    return a, cst.random_weight_spmat(rng, 9, 8, 0.6), cst.random_weight_spmat(rng, 7, 8, 0.5)


def _assert_generic_serves(capfd):
    """The loader has given up, quietly, and products are still right."""
    assert _native.pathsum() is None
    a, b, mask = _operands()
    want = spgemm(a, b, BELLMAN_FORD_SPEC, mask=mask, kernel="generic")
    got = spgemm(a, b, BELLMAN_FORD_SPEC, mask=mask)
    assert got.ops == want.ops and got.matrix.equals(want.matrix)
    for name, col in want.matrix.vals.items():
        assert np.array_equal(got.matrix.vals[name].view(np.uint64), col.view(np.uint64))
    assert capfd.readouterr().err == ""


class TestFallsBackQuietly:
    def test_no_compiler_on_path(self, cache, monkeypatch, capfd):
        monkeypatch.setattr(_native, "_compiler", lambda: None)
        _assert_generic_serves(capfd)
        assert not cache.exists()

    def test_compiler_that_does_not_run(self, cache, monkeypatch, capfd):
        monkeypatch.setattr(_native, "_compiler", lambda: str(cache / "no-such-gcc"))
        _assert_generic_serves(capfd)

    @needs_gcc
    def test_compiler_that_fails(self, cache, monkeypatch, capfd):
        monkeypatch.setattr(_native, "_FLAGS", (*_native._FLAGS, "--no-such-flag"))
        _assert_generic_serves(capfd)
        assert list(cache.iterdir()) == []  # no temporary left behind

    def test_unwritable_cache_directory(self, tmp_path, monkeypatch, capfd):
        # (a chmod would not stop root: put the directory under a plain file)
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [blocker / "cache"])
        _native._library.cache_clear()
        try:
            _assert_generic_serves(capfd)
        finally:
            _native._library.cache_clear()

    def test_cache_directory_others_can_write(self, cache, capfd):
        cache.mkdir()
        cache.chmod(0o777)
        _assert_generic_serves(capfd)
        assert list(cache.iterdir()) == []

    @needs_gcc
    def test_truncated_library_in_cache(self, cache, capfd):
        cache.mkdir(mode=0o700)
        (cache / _native._library_name(GCC)).write_bytes(b"\x7fELF\x02\x01\x01")
        _assert_generic_serves(capfd)

    @needs_gcc
    def test_foreign_library_in_cache(self, cache, tmp_path, capfd):
        cache.mkdir(mode=0o700)
        source = tmp_path / "other.c"
        source.write_text("int something_else(void) { return 7; }\n")
        subprocess.run(
            [GCC, "-shared", "-fPIC", "-o", str(cache / _native._library_name(GCC)), str(source)],
            check=True,
        )
        _assert_generic_serves(capfd)


@needs_gcc
class TestSumProbe:
    """Bit-identity of the compiled payload sums rests on C grouping a run's
    additions as ``np.add.reduceat`` does; the loader checks that once per
    process and withholds the path kernel when it does not hold."""

    @needs_gcc
    def test_loaded_library_passes(self, cache):
        assert _native._library().sums_agree and _native.pathsum() is not None

    @needs_gcc
    def test_numpy_summing_another_way_withholds_the_kernel(self, cache, monkeypatch, capfd):
        # a numpy whose reduceat added each run left to right
        def left_to_right(layout, starts):
            return np.array([np.cumsum(run)[-1] for run in np.split(layout, starts[1:])])

        monkeypatch.setattr(_native, "_reference_sums", left_to_right)
        metrics = obs.Metrics()
        with obs.use(metrics=metrics):
            _assert_generic_serves(capfd)
        outcomes = {dict(labels)["outcome"] for labels in metrics.series("kernel.dispatch")}
        assert outcomes == {"declined"}
        # the key merge does not sum: it stays compiled
        assert _native._library() is not None


class TestBuilds:
    def test_builds_once_into_the_cache(self, cache, capfd):
        assert _native.pathsum() is not None
        (library,) = cache.iterdir()
        assert library.name == _native._library_name(GCC)
        stamp = library.stat().st_mtime_ns
        _native._library.cache_clear()
        assert _native.pathsum() is not None  # loaded, not rebuilt
        assert library.stat().st_mtime_ns == stamp
        assert capfd.readouterr().err == ""

    def test_falls_through_to_the_second_directory(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        second = tmp_path / "second"
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [blocker / "cache", second])
        _native._library.cache_clear()
        try:
            assert _native.pathsum() is not None
            assert len(list(second.iterdir())) == 1
        finally:
            _native._library.cache_clear()

    def test_default_directories(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        first, second = _native._cache_dirs()
        assert first == tmp_path / "xdg" / "repro-mfbc"
        assert second.parent == Path(tempfile.gettempdir())
        assert str(os.getuid()) in second.name

    def test_processes_racing_on_a_cold_cache(self, tmp_path):
        script = (
            "import hashlib, numpy as np\n"
            "from repro import mfbc, rmat_graph\n"
            "from repro.sparse import _native\n"
            "scores = mfbc(rmat_graph(scale=6, avg_degree=6, seed=2)).scores\n"
            "print(_native.pathsum() is not None, hashlib.sha256(scores.tobytes()).hexdigest())\n"
        )
        env = {
            **os.environ,
            "XDG_CACHE_HOME": str(tmp_path),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path]),
        }
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(3)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0, 0], outs
        assert {err for _, err in outs} == {""}
        (line,) = {out for out, _ in outs}
        assert line.startswith("True ")
        # every racer published a whole file under the one name; no debris
        assert [f.name for f in (tmp_path / "repro-mfbc").iterdir()] == [
            _native._library_name(GCC)
        ]

    def test_import_builds_and_loads_nothing(self, tmp_path):
        script = (
            "import repro, repro.sparse._native as n\n"
            "assert n._library.cache_info().currsize == 0\n"
        )
        env = {
            **os.environ,
            "XDG_CACHE_HOME": str(tmp_path),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path]),
        }
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
        assert list(tmp_path.iterdir()) == []


class TestOperandsAreNeverMisread:
    def test_words(self):
        col = np.arange(12, dtype=np.int64)
        assert _native.words(col, np.int64) is col
        strided = _native.words(col[::2], np.int64)
        assert strided.flags.c_contiguous and np.array_equal(strided, col[::2])
        assert _native.words(col, np.float64) is None  # right size, wrong type
        assert _native.words(col.astype(np.float32)) is None
        assert _native.words(col.astype(">i8")) is None
        assert _native.words(col.reshape(3, 4)) is None

    def test_strided_columns_are_copied(self, monkeypatch):
        a, b, mask = _operands()
        want = spgemm(a, b, BELLMAN_FORD_SPEC, mask=mask, kernel="generic")

        def strided(col):
            wide = np.repeat(col, 2)
            wide[1::2] = -7 if col.dtype == np.int64 else np.nan  # poison between items
            return wide[::2]

        def spread(mat):
            vals = {name: strided(col) for name, col in mat.vals.items()}
            return SpMat(
                *mat.shape, strided(mat.rows), strided(mat.cols), vals, mat.monoid,
                canonical=True,
            )

        if _native.pathsum() is not None:
            monkeypatch.setattr(
                spgemm_mod, "_spgemm_generic", lambda *a, **k: pytest.fail("declined")
            )
        got = spgemm(spread(a), spread(b), BELLMAN_FORD_SPEC, mask=spread(mask))
        assert got.ops == want.ops and got.matrix.equals(want.matrix)

    def test_narrow_payload_is_declined(self, monkeypatch):
        # a float32 multiplicity column: four-byte items C would read in pairs
        narrow = MinWeightTieSumMonoid(
            [("w", np.float64), ("m", np.float32)], {"w": np.inf, "m": 0.0}
        )
        a, b, _ = _operands()
        a32 = SpMat(*a.shape, a.rows, a.cols, a.vals, narrow)
        want = spgemm(a32, b, BELLMAN_FORD_SPEC, kernel="generic")
        monkeypatch.setattr(
            _native, "pathsum", lambda: lambda args: pytest.fail("handed to C")
        )
        got = spgemm(a32, b, BELLMAN_FORD_SPEC)
        assert got.ops == want.ops and got.matrix.equals(want.matrix)

    def test_sum_column_of_another_eight_byte_type_is_declined(self, monkeypatch):
        # uint64 multiplicities: the width C reads, but C sums float64 and
        # int64 payloads alone and would add these as one of the two
        wide = MinWeightTieSumMonoid(
            [("w", np.float64), ("m", np.uint64)], {"w": np.inf, "m": 0}
        )
        a, b, _ = _operands()
        vals = {"w": a.vals["w"], "m": np.arange(1, a.nnz + 1, dtype=np.uint64) << 40}
        a64 = SpMat(*a.shape, a.rows, a.cols, vals, wide)
        want = spgemm(a64, b, BELLMAN_FORD_SPEC, kernel="generic")
        monkeypatch.setattr(
            _native, "pathsum", lambda: lambda args: pytest.fail("handed to C")
        )
        got = spgemm(a64, b, BELLMAN_FORD_SPEC)
        assert got.ops == want.ops
        assert_bits(got.matrix, want.matrix)


def _keys(draw_from):
    """Sorted, unique int64 keys."""
    return st.lists(draw_from, unique=True, max_size=60).map(
        lambda xs: np.array(sorted(xs), dtype=np.int64)
    )


def _reference(haystack, needles):
    pos = np.searchsorted(haystack, needles)
    hit = np.isin(needles, haystack)
    return pos, hit


_SHAPES = {
    "both empty": ([], []),
    "empty haystack": ([], [3, 5]),
    "no needles": ([1, 2, 3], []),
    "disjoint below": ([10, 20, 30], [1, 2, 3]),
    "disjoint above": ([1, 2, 3], [10, 20, 30]),
    "interleaved": ([0, 2, 4, 6], [1, 3, 5, 7]),
    "needles nested": (list(range(0, 100, 3)), [3, 30, 33, 99]),
    "haystack nested": ([30, 31, 32], list(range(0, 100))),
    "equal": ([-5, 0, 7], [-5, 0, 7]),
    "past the end": ([1, 2, 3], [3, 4, 2**62]),
    "n << m": (list(range(0, 20000, 2)), [-1, 5000, 5001, 19998, 30000]),
    "n >> m": ([-7, 4000, 12345], list(range(-10, 20000, 3))),
}


class TestLocate:
    """The merge entry point places keys exactly as ``np.searchsorted``."""

    @needs_gcc
    @given(_keys(st.integers(-(2**62), 2**62)), _keys(st.integers(-(2**62), 2**62)))
    def test_equals_searchsorted(self, haystack, needles):
        assert _native._library() is not None
        pos, hit = _native.locate(haystack, needles)
        want_pos, want_hit = _reference(haystack, needles)
        assert pos.dtype == np.int64 and hit.dtype == np.bool_
        assert np.array_equal(pos, want_pos) and np.array_equal(hit, want_hit)

    @needs_gcc
    @given(_keys(st.integers(0, 40)), _keys(st.integers(0, 40)))
    def test_equals_searchsorted_on_overlapping_keys(self, haystack, needles):
        pos, hit = _native.locate(haystack, needles)
        want_pos, want_hit = _reference(haystack, needles)
        assert np.array_equal(pos, want_pos) and np.array_equal(hit, want_hit)

    @pytest.mark.parametrize("loaded", [True, False], ids=["merge", "fallback"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_shapes(self, monkeypatch, loaded, shape):
        if loaded and _native._library() is None:
            pytest.skip("the compiled library did not load")
        if not loaded:
            monkeypatch.setattr(_native, "_library", lambda: None)
        haystack, needles = (np.array(x, dtype=np.int64) for x in _SHAPES[shape])
        pos, hit = _native.locate(haystack, needles)
        want_pos, want_hit = _reference(haystack, needles)
        assert np.array_equal(pos, want_pos) and np.array_equal(hit, want_hit)

    def test_combine_and_align_take_the_same_bits_without_the_library(
        self, rng, monkeypatch
    ):
        state = cst.random_weight_spmat(rng, 9, 11, 0.6)
        update = cst.random_weight_spmat(rng, 9, 11, 0.3)
        merged, aligned = state.combine(update), update.align_values(state)
        monkeypatch.setattr(_native, "_library", lambda: None)
        assert_bits(state.combine(update), merged)
        for name, col in update.align_values(state).items():
            assert col.tobytes() == aligned[name].tobytes()


def test_c_source_ships_with_the_package():
    assert _native._SOURCE.is_file()
    pyproject = (ROOT / "pyproject.toml").read_text()
    (package_data,) = re.findall(r"^repro = \[(.*)\]$", pyproject, flags=re.M)
    assert '"sparse/*.c"' in package_data
