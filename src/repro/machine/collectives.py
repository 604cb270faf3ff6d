"""Collective operations over rank groups: the one data-movement path.

A :class:`Group` is an ordered set of ranks, and its methods are the only
code that charges a collective: an algorithm hands the payload that
actually moves to ``machine.group(ranks).<op>(...)``; the op sizes it with
:func:`payload_words`, applies its §7.4 weight, charges the ledger through
:meth:`~repro.machine.Machine.charge_collective`, and returns what the
receivers hold.  So the words the ledger reports are the words the
distribution logic really shipped, and the cost model's constants and
per-op conventions live here and nowhere else — each method's docstring
states its weight and its ``x``; ``docs/performance_model.md`` §6 is this
module as one table, with who calls what.  A single-rank group
communicates nothing and is always free.

Payloads are :class:`~repro.sparse.SpMat` matrices, numpy arrays, ``None``,
or lists/dicts of those.  Ops that take one payload per participant index
them like ``group.ranks``.

Bad wiring fails loudly: group construction rejects empty, duplicate, and
out-of-range rank sets; every rooted collective validates its ``root``
index (into the group, not a machine rank); per-participant lists must
match the group size exactly.

When the machine carries an armed :class:`~repro.faults.FaultPlan`, the
payloads of ``bcast`` / ``reduce`` / ``sparse_reduce`` / ``allgather`` /
``alltoall`` — the collectives a product or a batch issues — pass through
the plan's delivery hook, which may perturb an in-flight *copy* (senders'
buffers are never mutated).  With the plan's opt-in checksum guard
(``checksum:1``) each such collective verifies a CRC-32 of the payload
across the transfer and raises :class:`~repro.faults.CorruptPayload` on
mismatch, which the drivers' batch ladder retries; without the guard the
corruption propagates silently, as it would on real hardware.  ``scatter``
/ ``gather`` are the set-up path (graph input, result read-back, the
elastic re-scatter): they run outside any batch ladder, so the hook leaves
them alone.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.faults.plan import CorruptPayload, note, payload_checksum
from repro.sparse.spmatrix import SpMat

__all__ = ["Group", "payload_words", "TREE", "LINEAR"]

#: §7.4's constants: a broadcast or reduction of ``x`` words over ``q`` ranks
#: costs ``2x·β + 2⌈log₂ q⌉·α``, scatter / gather / all-to-all half that.
TREE = 2.0
LINEAR = 1.0


def payload_words(payload) -> int:
    """Size of a payload in 8-byte words."""
    if payload is None:
        return 0
    if isinstance(payload, SpMat):
        return payload.words()
    if isinstance(payload, np.ndarray):
        return (payload.nbytes + 7) // 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_words(x) for x in payload)
    if isinstance(payload, dict):
        return sum(payload_words(x) for x in payload.values())
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class Group:
    """An ordered set of ranks participating in collectives."""

    def __init__(self, machine, ranks: np.ndarray) -> None:
        ranks = np.asarray(ranks, dtype=np.int64)
        if len(np.unique(ranks)) != len(ranks):
            raise ValueError("group ranks must be distinct")
        if len(ranks) == 0:
            raise ValueError("empty group")
        if ranks.min() < 0 or ranks.max() >= machine.p:
            raise ValueError(f"rank out of range for machine with p={machine.p}")
        self.machine = machine
        self.ranks = ranks
        # captured at construction: an elastic shrink renumbers ranks, so a
        # group built against the old numbering must fail loudly, not
        # silently charge the wrong survivors
        self._epoch = getattr(machine, "epoch", 0)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def _check(self, parts: Sequence | None = None, root: int = 0) -> None:
        if self._epoch != getattr(self.machine, "epoch", 0):
            raise RuntimeError(
                f"group built at machine epoch {self._epoch} used after a "
                f"shrink (epoch is now {self.machine.epoch}); rebuild groups "
                f"from the recovered layout"
            )
        if parts is not None and len(parts) != self.size:
            raise ValueError(
                f"expected {self.size} payloads (one per rank), got {len(parts)}"
            )
        if not 0 <= root < self.size:
            raise ValueError(
                f"root index {root} out of range for group of size {self.size}"
            )

    def _charge(self, words: float, weight: float, category: str) -> None:
        self.machine.charge_collective(self.ranks, words, weight, category)

    def _deliver(self, payload, site: str):
        """Run one moving payload through the fault plan's delivery hook.

        Returns the payload (possibly a corrupted copy).  With the
        checksum guard armed, verifies a CRC-32 across the transfer and
        raises :class:`CorruptPayload` on mismatch — detection is a real
        mechanism here, not a flag set by the injector.
        """
        plan = self.machine._fault_hook
        if plan is None or self.size == 1:
            return payload
        sent_crc = payload_checksum(payload) if plan.checksum else None
        payload, _ = plan.deliver(self.machine, payload, site)
        if plan.checksum:
            received_crc = payload_checksum(payload)
            if received_crc != sent_crc:
                note(
                    self.machine,
                    "corrupt",
                    "detected",
                    site=site,
                    sent_crc=sent_crc,
                    received_crc=received_crc,
                )
                raise CorruptPayload(site, plan.step)
        return payload

    @staticmethod
    def _fold(parts: Sequence, combine: Callable):
        """Left fold of the non-``None`` parts, in participant order."""
        acc = None
        for part in parts:
            if part is not None:
                acc = part if acc is None else combine(acc, part)
        return acc

    # -- collectives -----------------------------------------------------------

    def bcast(self, payload, root: int = 0, *, category: str = "bcast"):
        """Broadcast the root's ``payload``; returns what the receivers hold.

        Weight 2, ``x`` = the payload's words — charged (latency only) even
        when that is zero: a caller with nothing to send does not call.
        """
        self._check(root=root)
        self._charge(payload_words(payload), TREE, category)
        return self._deliver(payload, "bcast")

    def reduce(
        self,
        parts: Sequence,
        combine: Callable,
        root: int = 0,
        *,
        category: str = "reduce",
    ):
        """Fold every participant's part with ``combine`` onto the root.

        A left fold over the non-``None`` parts in participant order;
        returns the result (``None``, uncharged, when every part is
        ``None``).  Weight 2, ``x`` = the maximum of the input and output
        sizes (each processor "owns x words at the start or end" — §5.1).
        """
        self._check(parts, root)
        acc = self._fold(parts, combine)
        if acc is None:
            return None
        x = max(max(payload_words(p) for p in parts), payload_words(acc))
        self._charge(x, TREE, category)
        return self._deliver(acc, "reduce")

    def sparse_reduce(
        self,
        parts: Sequence,
        combine: Callable,
        root: int = 0,
        *,
        category: str = "reduce",
    ):
        """Sparse reduction: cost scales with the *output* nonzeros (§5.1).

        Like :meth:`reduce`, but ``x`` = the reduced result's words —
        cheaper than a dense reduce when inputs overlap little.
        """
        self._check(parts, root)
        acc = self._fold(parts, combine)
        if acc is None:
            return None
        self._charge(payload_words(acc), TREE, category)
        return self._deliver(acc, "sparse_reduce")

    def allreduce(self, parts: Sequence, combine: Callable):
        """Reduce then broadcast (charged as both); returns the result."""
        return self.bcast(self.reduce(parts, combine))

    def scatter(
        self, parts: Sequence, root: int = 0, *, category: str = "scatter"
    ) -> list:
        """Hand ``parts[i]`` (all held by the root) to participant ``i``.

        Weight 1, ``x`` = the root's whole payload (every part).
        """
        self._check(parts, root)
        self._charge(sum(payload_words(p) for p in parts), LINEAR, category)
        return list(parts)

    def gather(
        self, parts: Sequence, root: int = 0, *, category: str = "gather"
    ) -> list:
        """Collect every participant's part at the root (returns the list).

        Weight 1, ``x`` = everything the root ends up holding.
        """
        self._check(parts, root)
        self._charge(sum(payload_words(p) for p in parts), LINEAR, category)
        return list(parts)

    def allgather(self, parts: Sequence, *, category: str = "allgather") -> list:
        """Every participant receives every part (returns the shipped list).

        Weight 1, ``x`` = all parts.
        """
        self._check(parts)
        self._charge(sum(payload_words(p) for p in parts), LINEAR, category)
        return self._deliver(list(parts), "allgather")

    def alltoall(
        self, sent: Sequence, received: Sequence, *, category: str = "alltoall"
    ) -> list:
        """Personalized exchange (all-to-all-v); returns the delivered
        ``received``.

        ``sent[i]`` is what participant ``i`` hands to other ranks and
        ``received[i]`` what arrives at it from them (what stays on a rank
        appears in neither).  Weight 1, ``x`` = the busiest participant's
        sent + received words — CTF's sparse redistribution kernel (§6.2);
        free when no word changes rank.
        """
        self._check(sent)
        self._check(received)
        x = max(
            payload_words(s) + payload_words(r) for s, r in zip(sent, received)
        )
        if x == 0:
            return list(received)
        self._charge(x, LINEAR, category)
        return self._deliver(list(received), "alltoall")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group(ranks={self.ranks.tolist()})"
