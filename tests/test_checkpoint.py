"""Checkpoint/restart for the MFBC driver: stores, validation, bit-identity.

The contract under test: per-batch checkpointing adds no numerical drift —
a run resumed from any batch boundary produces scores bit-identical to an
uninterrupted run, through every store (in-memory, JSON, NPZ), because
floats round-trip exactly and partial sums accumulate in the same order.
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.faults import (
    CheckpointState,
    CorruptCheckpoint,
    JsonCheckpointStore,
    MemoryCheckpointStore,
    NpzCheckpointStore,
    resolve_checkpoint_store,
    sources_checksum,
)
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    GENERATIONS,
    stats_from_dicts,
    stats_to_dicts,
)
from repro.machine import Machine


def make_state(n=10, scores=None):
    return CheckpointState(
        cursor=4,
        batch_index=2,
        batch_size=2,
        n=n,
        sources_crc=sources_checksum(np.arange(n)),
        scores=(
            np.linspace(0.0, 1.0, n) if scores is None else np.asarray(scores)
        ),
        stats=[{"sources": 2, "iterations": []}],
    )


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------


class TestStores:
    def test_memory_store_round_trip_and_isolation(self):
        store = MemoryCheckpointStore()
        assert store.load() is None
        state = make_state()
        store.save(state)
        state.scores[0] = 999.0  # caller mutation must not leak in
        loaded = store.load()
        assert loaded.scores[0] == 0.0
        assert loaded.cursor == 4 and loaded.batch_index == 2
        store.clear()
        assert store.load() is None

    @pytest.mark.parametrize("cls,suffix", [
        (JsonCheckpointStore, "ck.json"),
        (NpzCheckpointStore, "ck.npz"),
    ])
    def test_file_store_round_trip_bit_exact(self, tmp_path, cls, suffix):
        path = tmp_path / suffix
        store = cls(path)
        assert store.load() is None
        # awkward floats: denormals, repeating fractions, large magnitudes
        scores = np.array([1e-310, 1 / 3, 0.1 + 0.2, 1e300, -0.0, np.pi])
        store.save(make_state(n=6, scores=scores))
        loaded = store.load()
        assert loaded.scores.dtype == np.float64
        assert np.array_equal(
            loaded.scores, scores
        ) and np.array_equal(  # -0.0 == 0.0, so also compare bit patterns
            loaded.scores.view(np.uint64), scores.view(np.uint64)
        )
        store.clear()
        assert store.load() is None
        store.clear()  # idempotent

    def test_atomic_write_leaves_no_tmp_litter(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonCheckpointStore(path)
        store.save(make_state())
        store.save(make_state())  # overwrite rotates the previous generation
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json",
            "ck.json.1",
        ]

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonCheckpointStore(path)
        store.save(make_state())
        doc = json.loads(path.read_text())
        doc["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint version"):
            store.load()

    def test_resolve_store(self, tmp_path):
        store = MemoryCheckpointStore()
        assert resolve_checkpoint_store(store) is store
        assert isinstance(
            resolve_checkpoint_store(str(tmp_path / "a.npz")), NpzCheckpointStore
        )
        assert isinstance(
            resolve_checkpoint_store(str(tmp_path / "a.json")), JsonCheckpointStore
        )
        assert isinstance(
            resolve_checkpoint_store(tmp_path / "a.ckpt"), JsonCheckpointStore
        )
        with pytest.raises(TypeError, match="CheckpointStore or a path"):
            resolve_checkpoint_store(42)

    def test_stats_round_trip(self, small_undirected):
        res = mfbc(small_undirected, batch_size=8)
        rows = stats_to_dicts(res.stats.batches)
        back = stats_from_dicts(rows)
        assert [b.sources for b in back] == [b.sources for b in res.stats.batches]
        assert [b.total_ops for b in back] == [
            b.total_ops for b in res.stats.batches
        ]
        assert [b.mfbf_iterations for b in back] == [
            b.mfbf_iterations for b in res.stats.batches
        ]


# ---------------------------------------------------------------------------
# hardening: crash-during-write, corruption at rest, generation fallback
# ---------------------------------------------------------------------------


class TestHardening:
    @pytest.mark.parametrize("cls,suffix", [
        (JsonCheckpointStore, "ck.json"),
        (NpzCheckpointStore, "ck.npz"),
    ])
    def test_crash_during_write_preserves_previous(
        self, tmp_path, cls, suffix, monkeypatch
    ):
        """A crash mid-save (simulated by a replace that never happens) must
        leave the previous generations loadable and the directory free of
        temp litter."""
        path = tmp_path / suffix
        store = cls(path)
        store.save(make_state(scores=np.arange(10.0)))

        real_replace = os.replace

        def torn_replace(src, dst):
            if str(dst) == str(path):  # die before the new file lands
                raise OSError("simulated crash during checkpoint write")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", torn_replace)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(make_state(scores=np.arange(10.0) + 1))
        monkeypatch.setattr(os, "replace", real_replace)

        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
        loaded = store.load()  # the pre-crash checkpoint survived (as .1)
        assert np.array_equal(loaded.scores, np.arange(10.0))

    @pytest.mark.parametrize("garbage", [b"", b"not a checkpoint {"])
    @pytest.mark.parametrize("cls,suffix", [
        (JsonCheckpointStore, "ck.json"),
        (NpzCheckpointStore, "ck.npz"),
    ])
    def test_corrupt_newest_falls_back_to_older(
        self, tmp_path, cls, suffix, garbage
    ):
        path = tmp_path / suffix
        store = cls(path)
        store.save(make_state(scores=np.arange(10.0)))
        store.save(make_state(scores=np.arange(10.0) + 1))
        path.write_bytes(garbage)  # newest generation torn/truncated at rest
        with pytest.warns(RuntimeWarning, match="older"):
            loaded = store.load()
        assert np.array_equal(loaded.scores, np.arange(10.0))

    def test_all_generations_corrupt_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonCheckpointStore(path)
        store.save(make_state())
        store.save(make_state())
        path.write_text("{")
        (tmp_path / "ck.json.1").write_text("")
        with pytest.raises(CorruptCheckpoint, match="no loadable checkpoint") as ei:
            store.load()
        assert len(ei.value.errors) == 2  # one reason per generation

    def test_scores_crc_detects_bit_flip(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonCheckpointStore(path)
        store.save(make_state(scores=np.arange(10.0)))
        doc = json.loads(path.read_text())
        doc["scores"][3] += 1.0  # silent corruption, still valid JSON
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpoint, match="CRC-32"):
            store.load()

    def test_v1_checkpoint_without_crc_still_loads(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonCheckpointStore(path)
        store.save(make_state(scores=np.arange(10.0)))
        doc = json.loads(path.read_text())
        doc["version"] = 1
        del doc["scores_crc"]
        path.write_text(json.dumps(doc))
        loaded = store.load()
        assert loaded.version == 1
        assert np.array_equal(loaded.scores, np.arange(10.0))

    def test_keep_bounds_generations(self, tmp_path):
        store = JsonCheckpointStore(tmp_path / "ck.json")
        for i in range(GENERATIONS + 3):
            store.save(make_state(scores=np.full(10, float(i))))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ck.json"] + [
            f"ck.json.{i}" for i in range(1, GENERATIONS)
        ]
        assert store.load().scores[0] == GENERATIONS + 2  # newest wins
        store.clear()
        assert list(tmp_path.iterdir()) == []
        assert store.load() is None

    def test_mfbc_resumes_from_older_generation(self, tmp_path, small_undirected):
        """End-to-end: the newest on-disk checkpoint is corrupted between
        runs; resume falls back to the previous batch boundary and still
        produces bit-identical scores (just re-executing one more batch)."""
        ref = mfbc(small_undirected, batch_size=8).scores
        path = tmp_path / "run.json"
        mfbc(small_undirected, batch_size=8, checkpoint=str(path), max_batches=3)
        path.write_text("torn")
        with pytest.warns(RuntimeWarning, match="older"):
            res = mfbc(small_undirected, batch_size=8, resume_from=str(path))
        assert np.array_equal(res.scores, ref)


# ---------------------------------------------------------------------------
# mfbc integration
# ---------------------------------------------------------------------------


class TestMfbcCheckpointing:
    def test_resume_bit_identical_from_every_boundary(self, small_undirected):
        ref = mfbc(small_undirected, batch_size=8).scores
        n_batches = -(-small_undirected.n // 8)
        for k in range(1, n_batches):
            store = MemoryCheckpointStore()
            mfbc(small_undirected, batch_size=8, checkpoint=store, max_batches=k)
            assert store.load().batch_index == k
            res = mfbc(small_undirected, batch_size=8, resume_from=store)
            assert np.array_equal(res.scores, ref), f"boundary {k}"
            assert res.stats.sources_processed == small_undirected.n

    def test_file_checkpoint_resume_distributed(self, tmp_path, small_undirected):
        ref = mfbc(small_undirected, batch_size=8).scores
        path = str(tmp_path / "run.npz")
        mfbc(
            small_undirected,
            batch_size=8,
            engine=DistributedEngine(Machine(4)),
            checkpoint=path,
            max_batches=2,
        )
        res = mfbc(
            small_undirected,
            batch_size=8,
            engine=DistributedEngine(Machine(4)),
            resume_from=path,
        )
        assert np.array_equal(res.scores, ref)

    def test_completed_run_resume_is_a_noop(self, small_undirected):
        store = MemoryCheckpointStore()
        ref = mfbc(small_undirected, batch_size=8, checkpoint=store).scores
        session = obs.enable()
        try:
            res = mfbc(small_undirected, batch_size=8, resume_from=store)
        finally:
            obs.disable()
        assert np.array_equal(res.scores, ref)
        assert session.tracer.find("batch") == []  # nothing left to execute

    def test_resume_if_present_semantics(self, small_undirected):
        """Passing one store as both checkpoint= and resume_from= starts
        fresh on an empty store and resumes on a populated one (the CLI's
        --checkpoint behavior)."""
        ref = mfbc(small_undirected, batch_size=8).scores
        store = MemoryCheckpointStore()
        kwargs = dict(batch_size=8, checkpoint=store, resume_from=store)
        mfbc(small_undirected, max_batches=2, **kwargs)
        res = mfbc(small_undirected, **kwargs)
        assert np.array_equal(res.scores, ref)

    def test_missing_resume_path_raises(self, tmp_path, small_undirected):
        with pytest.raises(FileNotFoundError, match="no checkpoint"):
            mfbc(
                small_undirected,
                batch_size=8,
                resume_from=str(tmp_path / "nope.json"),
            )

    def test_incompatible_checkpoints_rejected(self, small_undirected):
        store = MemoryCheckpointStore()
        mfbc(small_undirected, batch_size=8, checkpoint=store, max_batches=1)
        with pytest.raises(ValueError, match="batch_size"):
            mfbc(small_undirected, batch_size=16, resume_from=store)
        with pytest.raises(ValueError, match="source list"):
            mfbc(
                small_undirected,
                batch_size=8,
                sources=np.arange(10),
                resume_from=store,
            )
        from repro.graphs import uniform_random_graph_nm

        other = uniform_random_graph_nm(25, 3.0, seed=9)
        with pytest.raises(ValueError, match="-vertex graph"):
            mfbc(other, batch_size=8, resume_from=store)

    def test_batch_size_defaults_to_checkpoints(self, small_undirected):
        store = MemoryCheckpointStore()
        mfbc(small_undirected, batch_size=8, checkpoint=store, max_batches=1)
        res = mfbc(small_undirected, resume_from=store)  # no batch_size given
        assert res.batch_size == 8

    def test_checkpoint_survives_partial_sources(self, small_undirected):
        """Checkpointing composes with sources= (approximate BC)."""
        sources = np.arange(0, small_undirected.n, 2, dtype=np.int64)
        ref = mfbc(small_undirected, batch_size=4, sources=sources).scores
        store = MemoryCheckpointStore()
        mfbc(
            small_undirected,
            batch_size=4,
            sources=sources,
            checkpoint=store,
            max_batches=2,
        )
        res = mfbc(
            small_undirected, batch_size=4, sources=sources, resume_from=store
        )
        assert np.array_equal(res.scores, ref)

    def test_cursor_tracks_source_offsets(self, small_undirected):
        store = MemoryCheckpointStore()
        mfbc(small_undirected, batch_size=7, checkpoint=store, max_batches=3)
        state = store.load()
        assert state.cursor == 21
        assert state.batch_index == 3
        assert state.batch_size == 7
        assert state.n == small_undirected.n
