"""Build-on-first-use loader for the compiled library (``_pathsum.c``).

The first use compiles the one C file beside this module with ``gcc`` into
a per-user cache directory and loads it with :mod:`ctypes`.  It has two entry
points:

* :func:`pathsum` returns the path kernel, ``pathsum_chunk``, which
  :mod:`repro.sparse.dispatch` hands multpath / centpath products;
* :func:`locate` places sorted keys in sorted keys by a galloping merge
  (``merge_locate``), for :meth:`~repro.sparse.SpMat.combine` and
  :meth:`~repro.sparse.SpMat.align_values`.

Wherever any step fails (no compiler, no writable cache directory, a file in
the cache that is not our library) :func:`pathsum` returns ``None``, so
dispatch declines the product and the generic kernel serves it, and
:func:`locate` falls back to :func:`numpy.searchsorted`: the same bits either
way, slower.  Nothing happens at import; the first use pays for the build
(≈ 0.1 s, once per cache directory) or the load (≈ 2 ms, once per process).

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

__all__ = ["PathsumArgs", "pathsum", "locate", "words", "STATUS_NAN", "MAX_SUM"]

_SOURCE = Path(__file__).with_name("_pathsum.c")
#: no ``-ffast-math``, and no fused multiply-add: a pair's weight is one IEEE add
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 60

#: ``pathsum_chunk`` return codes, and the payload columns one call can
#: carry (``_pathsum.c``)
STATUS_NAN = 1
MAX_SUM = 2


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
        ("complement", ctypes.c_int32),
        ("negate", ctypes.c_int32),
        ("select_max", ctypes.c_int32),
        ("n_sum", ctypes.c_int32),
        ("sum_in", ctypes.c_void_p * MAX_SUM),
        ("sum_out", ctypes.c_void_p * MAX_SUM),
        ("out_rows", ctypes.c_void_p),
        ("out_cols", ctypes.c_void_p),
        ("out_starts", ctypes.c_void_p),
        ("out_w", ctypes.c_void_p),
        ("n_runs", ctypes.c_int64),
        ("n_pairs", ctypes.c_int64),
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
        pathsum_chunk, merge_locate = lib.pathsum_chunk, lib.merge_locate
    except (OSError, AttributeError):  # truncated, foreign, or not a library
        return None
    pathsum_chunk.argtypes = [ctypes.POINTER(PathsumArgs)]
    pathsum_chunk.restype = ctypes.c_int
    merge_locate.argtypes = [ctypes.c_void_p, ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2
    merge_locate.restype = None
    return lib


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
    struct by reference), or ``None`` when the library cannot be had."""
    lib = _library()
    return None if lib is None else lib.pathsum_chunk


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
