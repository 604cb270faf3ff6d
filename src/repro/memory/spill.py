"""The spill-to-disk block store: checksummed, atomic, generation-rotated.

Out-of-core runs (hypersparse blocks at high ``p``, working sets past a
rank's budget) need somewhere to put cold state when that budget is tight.  A
:class:`SpillStore` holds evicted :class:`~repro.sparse.SpMat` blocks as
one ``.npz`` segment per block, written through
:func:`~repro.faults.checkpoint.atomic_save_npz` (temp file +
``os.replace``), CRC-32-checksummed, and generation-rotated: re-spilling a
key moves the previous segment to ``<key>.1`` so a torn newest generation
falls back to the last durable one instead of losing the block.

Torn writes are a first-class failure mode here: every spill is verified
by reading the segment back and comparing its CRC before the resident
block may be dropped — a segment that fails verification is discarded and
the eviction aborted (the block simply stays resident), so a torn write
can degrade relief but never corrupt data.  The ``tear`` fault kind
(:class:`~repro.faults.FaultPlan`) injects exactly that failure.

Spill traffic is charged to the machine ledger under the ``"spill"``
category (modeled local I/O: ``spill_alpha + words · spill_beta`` per
segment) and surfaced via ``memory.spill.*`` obs counters.
"""

from __future__ import annotations

import os
import tempfile
import zipfile

import numpy as np

from repro.faults.checkpoint import atomic_save_npz
from repro.faults.plan import payload_checksum
from repro.obs import api as obs
from repro.sparse.spmatrix import SpMat

__all__ = ["SpillError", "SpillSegment", "SpillStore"]

#: load failures that mean "this generation is torn/corrupt, try the next"
_LOAD_ERRORS = (ValueError, KeyError, EOFError, OSError, zipfile.BadZipFile)


class SpillError(RuntimeError):
    """No durable generation of a spilled segment could be read back."""


class SpillSegment:
    """Handle to one spilled block: where it lives and how to verify it."""

    __slots__ = ("key", "path", "crc", "words", "nnz", "monoid", "generation")

    def __init__(self, key, path, crc, words, monoid, generation=0, nnz=0):
        self.key = key
        self.path = path
        self.crc = crc
        self.words = words
        self.nnz = nnz
        self.monoid = monoid
        self.generation = generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpillSegment({self.key!r}, words={self.words}, gen={self.generation})"


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
        Segment directory.  ``None`` creates a private temporary directory
        removed when the store is garbage-collected.
    machine:
        Optional :class:`~repro.machine.Machine`; when given, spill and
        unspill traffic is charged to its ledger (category ``"spill"``).
    keep:
        Older generations retained per key (the newest that verifies wins
        at fetch time).
    """

    def __init__(self, directory=None, *, machine=None, keep: int = 1) -> None:
        if keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        self._tmpdir = None
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-spill-")
            directory = self._tmpdir.name
        else:
            os.makedirs(directory, exist_ok=True)
        self.directory = os.fspath(directory)
        self.machine = machine
        self.keep = int(keep)
        #: running totals (also mirrored onto obs counters)
        self.spilled_blocks = 0
        self.restored_blocks = 0
        self.spilled_words = 0
        self.restored_words = 0
        self.torn_writes = 0

    # -- paths and rotation ---------------------------------------------------

    def _path(self, key: str, generation: int = 0) -> str:
        base = os.path.join(self.directory, f"{key}.npz")
        return base if generation == 0 else f"{base}.{generation}"

    def _rotate(self, key: str) -> None:
        """Shift existing generations of ``key`` one slot older."""
        if os.path.exists(self._path(key, self.keep)):
            os.remove(self._path(key, self.keep))
        for gen in range(self.keep, 0, -1):
            older = self._path(key, gen - 1)
            if os.path.exists(older):
                os.replace(older, self._path(key, gen))

    # -- spill / fetch --------------------------------------------------------

    def spill(self, key: str, blk: SpMat, *, rank: int | None = None,
              site: str = "spill") -> "SpillSegment | None":
        """Write ``blk`` as the newest generation of ``key``; verify; charge.

        Returns the segment handle, or ``None`` when the written segment
        failed read-back verification (torn write) — the caller must then
        keep the block resident.
        """
        crc = payload_checksum(blk)
        words = blk.words()
        self._rotate(key)
        path = self._path(key)
        atomic_save_npz(
            path,
            _block_payload(blk),
            meta={"nrows": blk.nrows, "ncols": blk.ncols, "crc": crc},
        )
        plan = self._fault_plan()
        if plan is not None and plan.take_tear(site):
            plan.note("tear", "injected", site=site, key=key)
            _tear_file(path)
        seg = SpillSegment(key, path, crc, words, blk.monoid, nnz=blk.nnz)
        # write-then-verify: only a read-back that matches the CRC makes the
        # segment durable enough to drop the resident block
        try:
            restored = self._load_generation(seg, 0)
        except _LOAD_ERRORS:
            restored = None
        if restored is None or payload_checksum(restored) != crc:
            self.torn_writes += 1
            if plan is not None:
                plan.note("tear", "detected", site=site, key=key)
            elif obs.enabled():
                obs.count("memory.spill.torn", 1.0, site=site)
            if os.path.exists(path):
                os.remove(path)
            return None
        self.spilled_blocks += 1
        self.spilled_words += words
        self._charge(rank, words, op="spill")
        if obs.enabled():
            obs.count("memory.spill.events", 1.0, op="spill", site=site)
            obs.count("memory.spill.words", float(words), op="spill", site=site)
        return seg

    def fetch(self, seg: "SpillSegment", *, rank: int | None = None,
              site: str = "unspill") -> SpMat:
        """Read a segment back, newest durable generation first.

        Verifies the stored CRC; a torn newest generation falls back to the
        older rotated ones.  Raises :class:`SpillError` when none verifies.
        """
        errors = []
        for gen in range(self.keep + 1):
            try:
                blk = self._load_generation(seg, gen)
            except _LOAD_ERRORS as exc:
                errors.append(f"gen {gen}: {exc}")
                continue
            if blk is None:
                continue
            if payload_checksum(blk) != seg.crc:
                errors.append(f"gen {gen}: checksum mismatch")
                continue
            self.restored_blocks += 1
            self.restored_words += seg.words
            self._charge(rank, seg.words, op="unspill")
            if obs.enabled():
                obs.count("memory.spill.events", 1.0, op="unspill", site=site)
                obs.count(
                    "memory.spill.words", float(seg.words), op="unspill", site=site
                )
            return blk
        raise SpillError(
            f"spilled segment {seg.key!r} has no durable generation "
            f"({'; '.join(errors) or 'no file'})"
        )

    def drop(self, key: str) -> None:
        """Remove every generation of ``key`` (the block went resident)."""
        for gen in range(self.keep + 1):
            path = self._path(key, gen)
            if os.path.exists(path):
                os.remove(path)

    def _load_generation(self, seg: "SpillSegment", gen: int) -> SpMat | None:
        path = self._path(seg.key, gen)
        if not os.path.exists(path):
            return None
        with np.load(path) as data:
            return _block_from_npz(data, seg.monoid)

    # -- accounting -----------------------------------------------------------

    def _fault_plan(self):
        machine = self.machine
        return None if machine is None else machine._fault_hook

    def _charge(self, rank, words, *, op) -> None:
        if self.machine is not None:
            self.machine.charge_spill(rank, words, op=op)

    def snapshot(self) -> dict:
        return {
            "spilled_blocks": self.spilled_blocks,
            "restored_blocks": self.restored_blocks,
            "spilled_words": self.spilled_words,
            "restored_words": self.restored_words,
            "torn_writes": self.torn_writes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpillStore({self.directory!r}, spilled={self.spilled_blocks}, "
            f"restored={self.restored_blocks}, torn={self.torn_writes})"
        )


def _tear_file(path: str) -> None:
    """Truncate a just-written segment mid-file (injected torn write)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(size // 2, 1))
