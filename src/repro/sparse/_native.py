"""Build-on-first-use loader for the compiled library (``_pathsum.c``).

The first use compiles the one C file beside this module with ``gcc`` into
a per-user cache directory and loads it with :mod:`ctypes`.  It has two entry
points:

* :func:`pathsum` returns the path kernel, ``pathsum_chunk``, which
  :mod:`repro.sparse.dispatch` hands multpath / centpath products;
* :func:`locate` places sorted keys in sorted keys by a galloping merge
  (``merge_locate``), for :meth:`~repro.sparse.SpMat.combine` and
  :meth:`~repro.sparse.SpMat.align_values`.

The path kernel sums each run's tied payloads in C, copying the grouping of
numpy's pairwise summation that ``np.add.reduceat`` — the generic kernel's
``tie_sum`` — uses.  That grouping is numpy's to change, so each load runs a
probe (:func:`_sums_agree`): canned runs of 1–300 items summed by the
library's ``run_sums`` and by ``np.add.reduceat``, compared bit for bit.  On
any mismatch :func:`pathsum` returns ``None``.

Wherever any step fails (no compiler, no writable cache directory, a file in
the cache that is not our library, a failed probe) :func:`pathsum` returns
``None``, so dispatch declines the product and the generic kernel serves it,
and :func:`locate` falls back to :func:`numpy.searchsorted` (after a failed
probe it keeps the merge, which sums nothing): the same bits either way,
slower.  Nothing happens at import; the first use pays for the build
(≈ 0.1 s, once per cache directory) or the load (≈ 2 ms, once per process,
and ≈ 0.7 ms for the probe).

The library is cached under a hash of the source, the flags, the compiler's
version banner and the machine type, written under a temporary name and moved
into place with :func:`os.replace`, so processes racing on a cold cache each
publish a complete file and never read a partial one.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro import config

__all__ = [
    "PathsumArgs", "pathsum", "locate", "words", "run_sums",
    "STATUS_NAN", "MAX_SUM", "SUM_DTYPES",
]

_SOURCE = Path(__file__).with_name("_pathsum.c")
#: no ``-ffast-math``, and no fused multiply-add: a pair's weight is one IEEE add
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 60

#: ``pathsum_chunk`` return codes, and the payload columns one call can
#: carry (``_pathsum.c``)
STATUS_NAN = 1
MAX_SUM = 2
#: the payload dtypes C sums, a float64 field's and an int64 field's (by
#: index: ``PathsumArgs.sum_int``); any other column is declined
SUM_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))
#: the probe's longest run: two levels into numpy's recursive split (a
#: run of L items sums L - 1 of them pairwise, split above 128)
_PROBE_MAX_LEN = 300


class PathsumArgs(ctypes.Structure):
    """``pathsum_args`` of ``_pathsum.c``, field for field.  Pointers are
    plain addresses: the caller keeps every array alive across the call."""

    _fields_ = [
        ("a_rows", ctypes.c_void_p),
        ("a_cols", ctypes.c_void_p),
        ("a_w", ctypes.c_void_p),
        ("lo", ctypes.c_int64),
        ("hi", ctypes.c_int64),
        ("b_ptr", ctypes.c_void_p),
        ("b_cols", ctypes.c_void_p),
        ("b_w", ctypes.c_void_p),
        ("ncols", ctypes.c_int64),
        ("mask_keys", ctypes.c_void_p),
        ("n_mask", ctypes.c_int64),
        ("mask_w", ctypes.c_void_p),
        ("complement", ctypes.c_int32),
        ("tie", ctypes.c_int32),
        ("negate", ctypes.c_int32),
        ("select_max", ctypes.c_int32),
        ("n_sum", ctypes.c_int32),
        ("sum_int", ctypes.c_int32 * MAX_SUM),
        ("sum_in", ctypes.c_void_p * MAX_SUM),
        ("sum_out", ctypes.c_void_p * MAX_SUM),
        ("out_rows", ctypes.c_void_p),
        ("out_cols", ctypes.c_void_p),
        ("out_w", ctypes.c_void_p),
        ("row_ops", ctypes.c_void_p),
        ("n_runs", ctypes.c_int64),
    ]


def words(col: np.ndarray, dtype: object | None = None) -> np.ndarray | None:
    """``col`` as the C side reads it — a C-contiguous column of 8-byte
    items (of ``dtype`` when given), copied if it is strided — or ``None``
    when it is not such a column and the product must not be handed over."""
    if col.ndim != 1 or col.dtype.itemsize != 8 or not col.dtype.isnative:
        return None
    if dtype is not None and col.dtype != dtype:
        return None
    return np.ascontiguousarray(col)


def _compiler() -> str | None:
    """``gcc`` on ``PATH`` — on POSIX only: the flags, the ``.so`` and the
    ownership check of the cache directory below are POSIX's."""
    return shutil.which("gcc") if os.name == "posix" else None


def _cache_dirs() -> list[Path]:
    """Where the library may live, best first: the XDG cache directory,
    then a per-user directory under the system temporary directory."""
    return [
        Path(config.user_cache_dir(), "repro-mfbc"),
        Path(tempfile.gettempdir(), f"repro-mfbc-{os.getuid()}"),
    ]


def _library_name(cc: str) -> str | None:
    """``pathsum-<hash of source, flags, compiler version, machine>.so``."""
    try:
        version = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
            check=True,
        ).stdout
        source = _SOURCE.read_bytes()
    except (OSError, subprocess.SubprocessError):
        return None
    digest = hashlib.sha256()
    for part in (source, " ".join(_FLAGS).encode(), version, platform.machine().encode()):
        digest.update(part + b"\0")
    return f"pathsum-{digest.hexdigest()[:20]}.so"


def _private_dir(path: Path) -> bool:
    """Create ``path`` if need be; true iff it is ours alone to write (a
    library is code: never load one from where another user could put it)."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build(cc: str, target: Path) -> bool:
    """Compile to a temporary name beside ``target`` and move into place."""
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
        os.close(fd)
    except OSError:
        return False
    try:
        subprocess.run(
            [cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
            check=True,
        )
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: Path) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(str(path))
        pathsum_chunk, merge_locate, run_sums = lib.pathsum_chunk, lib.merge_locate, lib.run_sums
    except (OSError, AttributeError):  # truncated, foreign, or not a library
        return None
    pathsum_chunk.argtypes = [ctypes.POINTER(PathsumArgs)]
    pathsum_chunk.restype = ctypes.c_int
    merge_locate.argtypes = [ctypes.c_void_p, ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2
    merge_locate.restype = None
    run_sums.argtypes = [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 2 + [
        ctypes.c_int64, ctypes.c_void_p,
    ]
    run_sums.restype = None
    lib.sums_agree = _sums_agree(lib)
    return lib


def run_sums(
    lib: ctypes.CDLL, layout: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``np.add.reduceat(layout, starts)`` as the path kernel sums runs
    (``_pathsum.c``'s ``run_sums``), for a float64 ``layout`` whose run
    ``r`` is ``counts[r] >= 1`` ties followed by zeros — ``tie_sum``'s."""
    layout, starts, counts = (
        np.ascontiguousarray(x, dtype=t)
        for x, t in ((layout, np.float64), (starts, np.int64), (counts, np.int64))
    )
    out = np.empty(len(starts), dtype=np.float64)
    lib.run_sums(
        layout.ctypes.data, len(layout), starts.ctypes.data, counts.ctypes.data,
        len(starts), out.ctypes.data,
    )
    return out


def _reference_sums(layout: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """What the generic kernel sums runs with (``tie_sum``)."""
    return np.add.reduceat(layout, starts)


def _probe_runs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probe's canned tie-then-zero layout, its run starts and tie counts.

    Runs of 1 to 300 items — every length through numpy's left-to-right
    regime and its eight lanes (up to 129 items), every fifth after that,
    through its recursive split — with one tie, about half or all tied, in
    turn; then fully tied runs of 2 to 33 items four times over (a
    grouping change among few items rounds differently in few runs); then
    runs of ``−0.0`` ties, one, half or all of the run.  The payloads,
    ``±1/k`` and every fifth scaled by 2³⁰, round differently under another
    grouping, and ``±0.0`` sit among them.
    """
    signed = [np.arange(1, 141), np.arange(141, _PROBE_MAX_LEN + 1, 5)]
    zeros = [np.arange(1, 20), np.arange(127, 132), np.arange(255, 260)]
    lens = np.concatenate([*signed, np.arange(4 * 32) % 32 + 2, *zeros])
    counts = lens.copy()
    counts[::3], counts[1::3] = 1, (lens[1::3] + 1) // 2
    n_signed, n_zero = sum(map(len, signed)), sum(map(len, zeros))
    counts[n_signed:-n_zero] = lens[n_signed:-n_zero]
    starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    layout = 1.0 / np.arange(1.0, starts[-1] + lens[-1] + 1.0)
    layout[1::3] *= -1.0
    layout[::5] *= 2.0**30
    layout[::7], layout[3::11] = -0.0, 0.0
    layout[starts[-n_zero] :] = -0.0
    (part,) = (counts < lens).nonzero()
    for start, end in zip((starts + counts)[part].tolist(), (starts + lens)[part].tolist()):
        layout[start:end] = 0.0
    return layout, starts, counts


def _sums_agree(lib: ctypes.CDLL) -> bool:
    """True iff C's run sums equal ``np.add.reduceat``'s bit for bit on the
    canned runs: the path kernel's payload sums copy numpy's pairwise
    grouping, which is numpy's choice and could change under us."""
    layout, starts, counts = _probe_runs()
    want = _reference_sums(layout, starts)
    got = run_sums(lib, layout, starts, counts)
    return bool(np.array_equal(got.view(np.uint64), want.view(np.uint64)))


@functools.cache
def _library() -> ctypes.CDLL | None:
    """The compiled library, built if the cache is cold; ``None`` when it
    cannot be had.

    Decided once per process.  Two threads asking at the same cold moment
    both build and both publish a complete file; either result serves.
    """
    cc = _compiler()
    name = cc and _library_name(cc)
    if not name:
        return None
    for directory in _cache_dirs():
        if not _private_dir(directory):
            continue
        target = directory / name
        if target.exists() or _build(cc, target):
            # a file that is there but does not load stays: the fallbacks
            # serve, and nothing is rebuilt on every start
            return _load(target)
    return None


def pathsum() -> Callable[..., int] | None:
    """``pathsum_chunk(args: PathsumArgs) -> status`` (``ctypes`` passes the
    struct by reference), or ``None`` when the library cannot be had or its
    run sums did not match ``np.add.reduceat``'s at load."""
    lib = _library()
    return None if lib is None or not lib.sums_agree else lib.pathsum_chunk


def locate(haystack: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ascending ``needles`` in ascending ``haystack`` (one-dimensional
    integer keys): the lower-bound positions, ``np.searchsorted(haystack,
    needles)``, and whether each needle is there.

    One galloping merge in C; :func:`numpy.searchsorted` gives the same
    integers where the library does not load (or a side is not an int64
    column).
    """
    lib = _library()
    hay, keys = words(haystack, np.int64), words(needles, np.int64)
    if lib is None or hay is None or keys is None:
        pos = np.searchsorted(haystack, needles)
        if not len(haystack):
            return pos, np.zeros(len(needles), dtype=bool)
        return pos, haystack[np.minimum(pos, len(haystack) - 1)] == needles
    pos = np.empty(len(keys), dtype=np.int64)
    hit = np.empty(len(keys), dtype=np.bool_)
    lib.merge_locate(
        hay.ctypes.data, len(hay), keys.ctypes.data, len(keys), pos.ctypes.data, hit.ctypes.data
    )
    return pos, hit
