"""The spill-to-disk block store: checksummed, atomic, write-once.

Out-of-core runs (hypersparse blocks at high ``p``, working sets past a
rank's budget) need somewhere to put cold state when that budget is tight.  A
:class:`SpillStore` holds evicted :class:`~repro.sparse.SpMat` blocks as
one ``.npz`` segment per block, written through
:func:`~repro.faults.checkpoint.atomic_save_npz` (temp file +
``os.replace``) and CRC-32-checksummed.  A segment is written once: the
owning :class:`~repro.dist.DistMat` drops a key (the block went resident,
or the matrix was released) before that key can be spilled again.  Each
store writes into a private directory of its own, so stores sharing a
``--spill-dir`` never read or delete each other's segments.

Torn writes are a first-class failure mode here: every spill is verified
by reading the segment back and comparing its CRC before the resident
block may be dropped — a segment that fails verification is discarded and
the eviction aborted (the block simply stays resident), so a torn write
can degrade relief but never corrupt data.  The ``tear`` fault kind
(:class:`~repro.faults.FaultPlan`) injects exactly that failure.

Spill traffic is charged to the machine ledger under the ``"spill"``
category (modeled local I/O: ``spill_alpha + words · spill_beta`` per
segment) and counted once, as ``memory.spill.{events,words}{op}`` in
``machine.metrics`` beside the torn writes (``faults.detected{kind="tear"}``).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import zipfile

import numpy as np

from repro.faults.checkpoint import atomic_save_npz
from repro.faults.plan import note, payload_checksum
from repro.sparse.spmatrix import SpMat

__all__ = ["SpillError", "SpillSegment", "SpillStore"]

#: load failures that mean "this segment is torn or corrupt"
_LOAD_ERRORS = (ValueError, KeyError, EOFError, OSError, zipfile.BadZipFile)


class SpillError(RuntimeError):
    """A spilled segment could not be read back intact."""


class SpillSegment:
    """Handle to one spilled block: where it lives and how to verify it."""

    __slots__ = ("key", "path", "crc", "words", "nnz", "monoid")

    def __init__(self, key, path, crc, words, monoid, nnz=0):
        self.key = key
        self.path = path
        self.crc = crc
        self.words = words
        self.nnz = nnz
        self.monoid = monoid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpillSegment({self.key!r}, words={self.words})"


def _block_payload(blk: SpMat) -> dict:
    payload = {"rows": blk.rows, "cols": blk.cols}
    for name in blk.monoid.field_names:
        payload[f"f_{name}"] = np.asarray(blk.vals[name])
    return payload


def _block_from_npz(data, monoid) -> SpMat:
    import json

    meta = json.loads(bytes(data["meta"]).decode())
    vals = {name: data[f"f_{name}"] for name in monoid.field_names}
    return SpMat(
        int(meta["nrows"]),
        int(meta["ncols"]),
        data["rows"],
        data["cols"],
        vals,
        monoid,
        canonical=True,
    )


class SpillStore:
    """On-disk segment store for evicted blocks.

    Parameters
    ----------
    directory:
        Where the store's private ``repro-spill-*`` segment directory is
        made (``None``: the system temporary directory).  The private
        directory is removed when the store is garbage-collected.
    machine:
        The :class:`~repro.machine.Machine` the store serves: spill and
        unspill traffic is charged to its ledger (category ``"spill"``) and
        counted in ``machine.metrics``.
    """

    def __init__(self, directory=None, *, machine) -> None:
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-spill-", dir=directory)
        self.directory = self._tmpdir.name
        self.machine = machine

    # -- spill / fetch --------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.npz")

    def spill(self, key: str, blk: SpMat, *, rank: int | None = None) -> "SpillSegment | None":
        """Write ``blk`` as the segment of ``key``; verify; charge.

        Returns the segment handle, or ``None`` when the written segment
        failed read-back verification (torn write) — the caller must then
        keep the block resident.
        """
        crc = payload_checksum(blk)
        words = blk.words()
        path = self._path(key)
        atomic_save_npz(
            path,
            _block_payload(blk),
            meta={"nrows": blk.nrows, "ncols": blk.ncols, "crc": crc},
        )
        hook = self.machine._fault_hook
        if hook is not None and hook.take_tear():
            note(self.machine, "tear", "injected", site="spill", key=key)
            _tear_file(path)
        seg = SpillSegment(key, path, crc, words, blk.monoid, nnz=blk.nnz)
        # write-then-verify: only a read-back that matches the CRC makes the
        # segment durable enough to drop the resident block
        if self._read(seg) is None:
            note(self.machine, "tear", "detected", site="spill", key=key)
            os.remove(path)
            return None
        self._charge(rank, words, op="spill")
        return seg

    def fetch(self, seg: "SpillSegment", *, rank: int | None = None) -> SpMat:
        """Read a segment back; raise :class:`SpillError` unless its CRC holds."""
        blk = self.read(seg)
        self._charge(rank, seg.words, op="unspill")
        return blk

    def read(self, seg: "SpillSegment") -> SpMat:
        """A segment's block for a read that leaves it spilled (validation):
        CRC-verified like :meth:`fetch`, but neither charged nor counted."""
        blk = self._read(seg)
        if blk is None:
            raise SpillError(f"spilled segment {seg.key!r} is not durable")
        return blk

    def drop(self, key: str) -> None:
        """Remove the segment of ``key`` (the block went resident)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._path(key))

    @staticmethod
    def _read(seg: "SpillSegment") -> SpMat | None:
        """The segment's block if it loads and its CRC matches, else None."""
        try:
            with np.load(seg.path) as data:
                blk = _block_from_npz(data, seg.monoid)
        except _LOAD_ERRORS:
            return None
        return blk if payload_checksum(blk) == seg.crc else None

    # -- accounting -----------------------------------------------------------

    def _charge(self, rank, words, *, op) -> None:
        m = self.machine.metrics
        m.count("memory.spill.events", 1.0, op=op)
        m.count("memory.spill.words", float(words), op=op)
        self.machine.charge_spill(rank, words, op=op)

    def snapshot(self) -> dict:
        """Blocks and words spilled and restored, and torn writes: sums of
        ``machine.metrics``."""
        m = self.machine.metrics
        return {
            "spilled_blocks": int(m.total("memory.spill.events", op="spill")),
            "restored_blocks": int(m.total("memory.spill.events", op="unspill")),
            "spilled_words": int(m.total("memory.spill.words", op="spill")),
            "restored_words": int(m.total("memory.spill.words", op="unspill")),
            "torn_writes": int(m.total("faults.detected", kind="tear")),
        }


def _tear_file(path: str) -> None:
    """Truncate a just-written segment mid-file (injected torn write)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(size // 2, 1))
