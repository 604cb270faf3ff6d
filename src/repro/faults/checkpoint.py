"""Per-batch checkpoint/restart for the MFBC driver.

The batched structure of Algorithm 3 is a natural checkpoint boundary:
after each batch the driver's entire mutable state is the accumulated
score vector, the source cursor, and the run statistics.  A
:class:`CheckpointStore` persists exactly that as a :class:`CheckpointState`,
and ``mfbc(..., resume_from=store)`` replays only the remaining batches —
with scores bit-identical to an uninterrupted run, because batch partial
sums are accumulated in the same order either way.

Three stores cover the practical deployments:

* :class:`MemoryCheckpointStore` — in-process (tests, notebook retries);
* :class:`JsonCheckpointStore` — a human-readable JSON file.  Floats
  round-trip exactly (``json`` emits ``repr`` shortest-round-trip
  literals), so resumed scores stay bit-identical;
* :class:`NpzCheckpointStore` — a NumPy ``.npz`` archive for large score
  vectors (binary-exact by construction).

File-backed stores write atomically (temp file + ``os.replace``) so a
crash *during* checkpointing never corrupts the previous checkpoint, and
they are hardened against corruption *at rest*: the score vector carries a
CRC-32 verified on load, each save rotates the previous file into the
older generation ``path.1`` (:data:`GENERATIONS` files in all), and
``load`` falls back to the newest generation that verifies — raising
:class:`CorruptCheckpoint` (a ``ValueError``) only when every generation
is torn, truncated, version-incompatible, or checksum-broken.

:func:`resume_checkpoint` is the one resume check ``mfbc`` and
``adaptive_bc`` both run.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import note

__all__ = [
    "CheckpointState",
    "CheckpointStore",
    "CorruptCheckpoint",
    "GENERATIONS",
    "MemoryCheckpointStore",
    "JsonCheckpointStore",
    "NpzCheckpointStore",
    "atomic_save_npz",
    "resolve_checkpoint_store",
    "resume_checkpoint",
    "sources_checksum",
    "stats_to_dicts",
    "stats_from_dicts",
]

#: on-disk generations a file store keeps: the newest checkpoint and the
#: one before it, the fallback when the newest is corrupt at rest.
GENERATIONS = 2


def _atomic_write(path: str, write) -> None:
    """Write ``path`` through ``write(fh)`` on ``path + ".tmp"`` and land it
    with ``os.replace``, so a crash mid-write never corrupts an existing file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # failed mid-write; don't leave litter
            os.remove(tmp)


def atomic_save_npz(path, arrays: dict, meta: dict | None = None) -> None:
    """Write ``arrays`` (plus an optional JSON ``meta`` blob under the key
    ``"meta"``, stored as a uint8 array) to ``path`` atomically.

    Shared by the NPZ checkpoint store and :mod:`repro.check.replay`'s
    repro-case emitter.
    """
    payload = dict(arrays)
    if meta is not None:
        payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    _atomic_write(os.fspath(path), lambda fh: np.savez(fh, **payload))

#: bump when the persisted layout changes incompatibly.
#: v2 added ``scores_crc`` (load-time integrity check); v3 added the
#: optional ``sampler`` blob (adaptive-sampling state, see
#: :mod:`repro.core.approx`).  v1/v2 files — the same layout minus those
#: fields — still load.
CHECKPOINT_VERSION = 3

_COMPATIBLE_VERSIONS = (1, 2, 3)


class CorruptCheckpoint(ValueError):
    """Every on-disk checkpoint generation failed to load.

    Carries the per-generation failure reasons (torn file, CRC mismatch,
    unsupported checkpoint version, ...) so the operator can tell *why*
    the run cannot resume.
    """

    def __init__(self, path: str, errors: list[tuple[str, str]]) -> None:
        self.path = path
        self.errors = list(errors)
        detail = "; ".join(
            f"{os.path.basename(p)}: {msg}" for p, msg in self.errors
        )
        super().__init__(f"no loadable checkpoint at {path!r}: {detail}")


def sources_checksum(sources: np.ndarray) -> int:
    """CRC-32 of the source list — guards a resume against the wrong run."""
    return zlib.crc32(np.ascontiguousarray(sources, dtype=np.int64).tobytes())


def _scores_checksum(scores: np.ndarray) -> int:
    """CRC-32 of the float64 score bytes — detects at-rest corruption."""
    return zlib.crc32(np.ascontiguousarray(scores, dtype=np.float64).tobytes())


@dataclass
class CheckpointState:
    """Everything ``mfbc`` needs to continue after batch ``batch_index - 1``."""

    cursor: int  # next offset into the source list
    batch_index: int  # batches completed so far (== next batch's index)
    batch_size: int
    n: int  # graph vertices (compatibility check)
    sources_crc: int  # checksum of the full source list
    scores: np.ndarray  # accumulated λ over completed batches
    stats: list = field(default_factory=list)  # serialized BatchStats rows
    #: adaptive-sampling state (sample count, sums, sums-of-squares, see
    #: :meth:`repro.core.approx.SamplerState.to_payload`); ``None`` for
    #: plain mfbc runs.  JSON floats round-trip exactly, so a restored
    #: sampler resumes bit-identically.
    sampler: dict | None = None
    version: int = CHECKPOINT_VERSION

    def to_payload(self) -> dict:
        """JSON-compatible dict (scores as a list of floats, plus CRC)."""
        return {
            "version": self.version,
            "cursor": int(self.cursor),
            "batch_index": int(self.batch_index),
            "batch_size": int(self.batch_size),
            "n": int(self.n),
            "sources_crc": int(self.sources_crc),
            "scores_crc": _scores_checksum(np.asarray(self.scores)),
            "scores": [float(x) for x in self.scores],
            "stats": self.stats,
            "sampler": self.sampler,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CheckpointState":
        version = int(payload.get("version", -1))
        if version not in _COMPATIBLE_VERSIONS:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(this build writes {CHECKPOINT_VERSION})"
            )
        scores = np.asarray(payload["scores"], dtype=np.float64)
        stored_crc = payload.get("scores_crc")  # absent in v1 files
        if stored_crc is not None:
            actual = _scores_checksum(scores)
            if int(stored_crc) != actual:
                raise ValueError(
                    f"checkpoint scores failed CRC-32 verification "
                    f"(stored {int(stored_crc)}, computed {actual})"
                )
        return cls(
            cursor=int(payload["cursor"]),
            batch_index=int(payload["batch_index"]),
            batch_size=int(payload["batch_size"]),
            n=int(payload["n"]),
            sources_crc=int(payload["sources_crc"]),
            scores=scores,
            stats=list(payload.get("stats", [])),
            sampler=payload.get("sampler"),  # absent in v1/v2 files
            version=version,
        )


# -- BatchStats (de)serialization --------------------------------------------
#
# Imported lazily: repro.core.mfbc imports this module, so a module-level
# import of repro.core.stats would close a cycle during package init.


def stats_to_dicts(batches) -> list[dict]:
    """Serialize a list of :class:`~repro.core.stats.BatchStats` rows."""
    return [
        {
            "sources": b.sources,
            "iterations": [
                {
                    "phase": it.phase,
                    "frontier_nnz": int(it.frontier_nnz),
                    "product_nnz": int(it.product_nnz),
                    "ops": int(it.ops),
                }
                for it in b.iterations
            ],
        }
        for b in batches
    ]


def stats_from_dicts(rows) -> list:
    """Rebuild :class:`~repro.core.stats.BatchStats` rows from JSON dicts."""
    from repro.core.stats import BatchStats, IterationStats

    out = []
    for row in rows:
        b = BatchStats(sources=int(row["sources"]))
        b.iterations = [
            IterationStats(
                phase=it["phase"],
                frontier_nnz=int(it["frontier_nnz"]),
                product_nnz=int(it["product_nnz"]),
                ops=int(it["ops"]),
            )
            for it in row.get("iterations", [])
        ]
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------


class CheckpointStore:
    """Persistence surface: :meth:`save` after each batch, :meth:`load` once.

    ``load`` returns ``None`` when no checkpoint exists yet, so drivers can
    pass the same store as both ``checkpoint=`` and ``resume_from=`` for
    "resume if anything is there" semantics (the CLI does exactly this).
    """

    def save(self, state: CheckpointState) -> None:
        raise NotImplementedError

    def load(self) -> CheckpointState | None:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop the stored checkpoint (no-op when empty)."""
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """Keep the latest state in process memory (copied, not aliased).

    The state is held as its payload's JSON document, so neither a later
    write to the caller's arrays nor one to a loaded state reaches the
    snapshot, and ``load`` runs the same parse and CRC check as the file
    stores.
    """

    def __init__(self) -> None:
        self._document: str | None = None

    def save(self, state: CheckpointState) -> None:
        self._document = json.dumps(state.to_payload())

    def load(self) -> CheckpointState | None:
        if self._document is None:
            return None
        return CheckpointState.from_payload(json.loads(self._document))

    def clear(self) -> None:
        self._document = None


class _FileStore(CheckpointStore):
    """Shared plumbing for the file-backed stores: atomic writes,
    generation rotation, and corruption fallback.

    Each :meth:`save` rotates the previous checkpoint into ``path.1``
    (:data:`GENERATIONS` files in all).  :meth:`load` returns the newest
    generation that parses and verifies, warning when it had to skip a
    corrupt newer one, and raises :class:`CorruptCheckpoint` only when
    generations exist but none loads.
    """

    #: exceptions that mean "this generation is unusable, try an older one":
    #: torn/truncated archives, JSON decode errors, CRC/version rejections,
    #: missing keys, and I/O failures.
    _LOAD_ERRORS = (ValueError, KeyError, EOFError, OSError, zipfile.BadZipFile)

    def __init__(self, path) -> None:
        self.path = os.fspath(path)

    def _generation(self, i: int) -> str:
        return self.path if i == 0 else f"{self.path}.{i}"

    def _rotate(self) -> None:
        # oldest first: os.replace overwrites the generation it shifts onto
        for i in range(GENERATIONS - 2, -1, -1):
            src = self._generation(i)
            if os.path.exists(src):
                os.replace(src, self._generation(i + 1))

    def clear(self) -> None:
        for i in range(GENERATIONS):
            try:
                os.remove(self._generation(i))
            except FileNotFoundError:
                pass

    def _load_one(self, path: str) -> CheckpointState:
        raise NotImplementedError

    def load(self) -> CheckpointState | None:
        errors: list[tuple[str, str]] = []
        found = False
        for i in range(GENERATIONS):
            path = self._generation(i)
            if not os.path.exists(path):
                continue
            found = True
            try:
                state = self._load_one(path)
            except self._LOAD_ERRORS as exc:
                errors.append((path, f"{type(exc).__name__}: {exc}"))
                continue
            if errors:
                warnings.warn(
                    f"checkpoint {self.path!r} restored from older "
                    f"generation {os.path.basename(path)!r}; newer "
                    f"generation(s) were corrupt: "
                    + "; ".join(msg for _, msg in errors),
                    RuntimeWarning,
                    stacklevel=2,
                )
            return state
        if not found:
            return None
        raise CorruptCheckpoint(self.path, errors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.path!r})"


class JsonCheckpointStore(_FileStore):
    """One JSON document per checkpoint; float-exact and greppable."""

    def save(self, state: CheckpointState) -> None:
        document = json.dumps(state.to_payload()).encode()
        self._rotate()
        _atomic_write(self.path, lambda fh: fh.write(document))

    def _load_one(self, path: str) -> CheckpointState:
        with open(path) as fh:
            return CheckpointState.from_payload(json.load(fh))


class NpzCheckpointStore(_FileStore):
    """Scores as a binary array plus a JSON metadata blob, in one .npz."""

    def save(self, state: CheckpointState) -> None:
        meta = state.to_payload()
        del meta["scores"]
        self._rotate()
        atomic_save_npz(
            self.path,
            {"scores": np.asarray(state.scores, dtype=np.float64)},
            meta=meta,
        )

    def _load_one(self, path: str) -> CheckpointState:
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            meta["scores"] = archive["scores"]
            return CheckpointState.from_payload(meta)


def resolve_checkpoint_store(spec) -> CheckpointStore:
    """Normalize a checkpoint specification into a store.

    A :class:`CheckpointStore` passes through; a path string selects
    :class:`NpzCheckpointStore` for ``.npz`` and
    :class:`JsonCheckpointStore` otherwise.
    """
    if isinstance(spec, CheckpointStore):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        path = os.fspath(spec)
        if path.endswith(".npz"):
            return NpzCheckpointStore(path)
        return JsonCheckpointStore(path)
    raise TypeError(
        f"checkpoint must be a CheckpointStore or a path, got {spec!r}"
    )


def resume_checkpoint(
    checkpoint,
    resume_from,
    *,
    n: int,
    batch_size: int | None,
    default_batch_size: int,
    site: str,
    machine,
    check,
) -> tuple[CheckpointStore | None, CheckpointState | None, int]:
    """The batch drivers' one resume check: ``(store, state, batch_size)``.

    Resolves both stores; a path with nothing at it is a
    ``FileNotFoundError``, an empty store a fresh run (``state`` is None).
    A state must match ``n``, and the caller's ``batch_size`` when one is
    given (else it supplies it); ``check(state, batch_size)`` runs the
    driver's own checks before the ``batch``/``resumed`` note.
    """
    store = None if checkpoint is None else resolve_checkpoint_store(checkpoint)
    state = None
    if resume_from is not None:
        state = resolve_checkpoint_store(resume_from).load()
        if state is None and not isinstance(resume_from, CheckpointStore):
            raise FileNotFoundError(
                f"no checkpoint to resume from at {resume_from!r}"
            )
    if state is not None:
        if state.n != n:
            raise ValueError(
                f"checkpoint is for a {state.n}-vertex graph, not {n}"
            )
        if batch_size is None:
            batch_size = state.batch_size
        elif batch_size != state.batch_size:
            raise ValueError(
                f"checkpoint used batch_size={state.batch_size}, "
                f"cannot resume with batch_size={batch_size}"
            )
        check(state, batch_size)
        note(machine, "batch", "resumed", site=site, cursor=state.cursor, index=state.batch_index)
    if batch_size is None:
        batch_size = default_batch_size
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return store, state, batch_size
