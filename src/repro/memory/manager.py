"""The memory manager: LRU eviction of spillable residents under pressure.

One :class:`MemoryManager` hangs off every :class:`~repro.machine.Machine`
(``machine.memory``).  Long-lived matrices register themselves as
*spillable* (the engine registers its loop invariants — the adjacency and
its transpose — whose blocks dominate the resting footprint);
:meth:`touch` maintains recency so the eviction order is LRU.

``Machine.allocate`` calls :meth:`relieve` when a charge would overflow the
per-rank budget: the least recently used matrices' resident blocks on the
pressured rank go, until enough words are freed or nothing spillable
remains.  Only then does the allocation raise
:class:`~repro.machine.MemoryLimitExceeded` — which the drivers'
recovery ladder (:mod:`repro.core.ladder`) catches.

Every spill/unspill round-trips through the checksummed
:class:`~repro.memory.spill.SpillStore`, so relieved runs stay
bit-identical to unpressured ones.  A relief is counted once, as the run
event ``faults.evicted{kind="spill"}`` in ``machine.metrics``.
"""

from __future__ import annotations

import weakref

from repro.faults.plan import note
from repro.memory.spill import SpillStore

__all__ = ["MemoryManager"]


class MemoryManager:
    """Registry of spillable matrices + the eviction policy.

    Parameters
    ----------
    machine:
        The owning machine (budget, ledger, fault plan).
    spill_dir:
        Segment directory for the lazily created :class:`SpillStore`;
        ``None`` means a private temporary directory on first eviction.
    """

    def __init__(self, machine, spill_dir=None) -> None:
        self._machine_ref = weakref.ref(machine)
        self._metrics = machine.metrics  # snapshots outlive the machine
        self.spill_dir = spill_dir
        self._store: SpillStore | None = None
        #: insertion-ordered LRU: key id(mat) -> weakref; the oldest entry
        #: is the coldest candidate
        self._registry: dict[int, weakref.ref] = {}
        self._in_relief = False
        self.relieved_words = 0

    @property
    def machine(self):
        return self._machine_ref()

    def store(self) -> SpillStore:
        """The spill store, created on first use."""
        if self._store is None:
            self._store = SpillStore(self.spill_dir, machine=self.machine)
        return self._store

    # -- registry -------------------------------------------------------------

    def register(self, mat) -> None:
        """Mark ``mat`` (a :class:`~repro.dist.DistMat`) spillable.

        An entry whose referent is gone is replaced: ``id`` values are
        recycled, so a new matrix can share a collected one's key.
        """
        key = id(mat)
        entry = self._registry.pop(key, None)
        if entry is None or entry() is not mat:
            entry = weakref.ref(mat)
        self._registry[key] = entry

    def touch(self, mat) -> None:
        """Bump ``mat`` to most-recently-used (protects in-flight operands)."""
        key = id(mat)
        entry = self._registry.pop(key, None)
        if entry is not None:
            self._registry[key] = entry

    def _live(self):
        """Registered matrices oldest-first, dropping dead weakrefs and
        matrices from before a :meth:`~repro.machine.Machine.shrink`, which
        hold no words on the shrunken machine."""
        out = []
        for key in list(self._registry):
            mat = self._registry[key]()
            if mat is None or mat._memcharge._stale():
                del self._registry[key]
            else:
                out.append(mat)
        return out

    # -- eviction -------------------------------------------------------------

    def relieve(self, rank: int, need_words: int, *, site: str = "allocate") -> int:
        """Free at least ``need_words`` on ``rank`` by spilling; best effort.

        Returns the words actually freed, spilling LRU matrices' resident
        blocks.  Never raises: when nothing spillable remains, the caller's
        budget check fails as before.
        """
        if self._in_relief:
            return 0
        machine = self.machine
        if machine is None:
            return 0
        self._in_relief = True
        freed = 0
        try:
            store = self.store()
            for mat in self._live():
                if freed >= need_words:
                    break
                freed += mat.spill_blocks(store, rank=rank)
        finally:
            self._in_relief = False
        if freed:
            self.relieved_words += freed
            note(machine, "spill", "evicted", site=site, rank=rank,
                 words=int(freed), needed=int(need_words))
        return freed

    def snapshot(self) -> dict:
        """Registered matrices and relieved words, plus counts summed from
        ``machine.metrics`` (the store's once it exists)."""
        out = {
            "registered": len(self._registry),
            "reliefs": int(self._metrics.total("faults.evicted", kind="spill")),
            "relieved_words": self.relieved_words,
        }
        if self._store is not None:
            out.update(self._store.snapshot())
        return out
