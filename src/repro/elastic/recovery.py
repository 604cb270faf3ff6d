"""The recovery coordinator: shrink, repair, rebuild, resume.

When a collective raises :class:`~repro.faults.RankFailure` and the machine
carries an :class:`~repro.elastic.ElasticPolicy`, the MFBC driver hands the
engine to :func:`recover_engine`, which runs the four-step protocol of the
elastic design:

1. **Freeze** — synchronize the survivors' modeled clocks (a real recovery
   begins with failure detection + agreement, a barrier-class event) and
   open a ``recovery`` span in :mod:`repro.obs` linked to the fault step.
2. **Shrink** — pick the nearest rank count ``p' ≤ p - |dead|`` the active
   selection policy is feasible on (:func:`~repro.machine.grid.nearest_feasible_p`);
   survivors beyond ``p'`` are *retired* (alive but excluded, like MPI
   ranks outside the shrunken communicator).  :meth:`Machine.shrink
   <repro.machine.machine.Machine.shrink>` compacts the ledger onto the
   survivor numbering.
3. **Repair + rebuild** — every pinned adjacency repairs its
   lost blocks in place (checksummed buddy replicas first, source
   re-materialization as fallback) and is gathered, uncharged, while the
   old numbering holds; after the shrink each is re-scattered onto the new
   near-square home grid with :meth:`DistMat.distribute
   <repro.dist.distmat.DistMat.distribute>`, the scatter charged as
   category ``"recovery"``, and redundancy is re-established for the
   shrunken grid.  Rebuilt matrices are *adopted* into the original
   objects, so references held by the driver stay valid.  The home grid
   is only where the engine first scatters a matrix — a product's output
   stays on its plan's layout — but the invariants are rebuilt there
   because that is where they always rest: every product re-blocks them
   from it (or serves them from the replication cache), never replaces
   them.  Everything else the interrupted batch held is recomputed.
4. **Resume** — the policy is rescaled to ``p'``, the replication cache is
   dropped, memory accounting resets, and the driver re-executes only the
   interrupted batch.

Determinism: the survivor set is a pure function of the seeded fault plan,
and every step here (grid choice, block repair, redistribution order) is
deterministic given that set — so seeded runs make identical recovery
decisions, and the recomputed batch is bit-identical to a fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import note
from repro.obs import api as obs

__all__ = ["RecoveryError", "RecoveryReport", "recover_engine"]


class RecoveryError(RuntimeError):
    """Elastic recovery could not reconstruct the lost state.

    Raised when a lost block has no live replica and no retained source,
    or no feasible survivor grid exists.  Callers fall back to the next
    rung of the robustness ladder (retry from checkpoint, then abort).
    """


@dataclass(frozen=True)
class RecoveryReport:
    """What one completed recovery did (appended to ``machine.recoveries``)."""

    dead: tuple[int, ...]  # failed ranks (old numbering)
    retired: tuple[int, ...]  # alive ranks shed to reach a feasible grid
    p_before: int
    p_after: int
    blocks_replica: int = 0  # lost blocks restored from checksummed replicas
    blocks_source: int = 0  # lost blocks re-materialized from the source
    words_restored: int = 0
    detail: dict = field(default_factory=dict)


def recover_engine(engine, failure) -> RecoveryReport:
    """Recover ``engine`` in place from a :class:`RankFailure`.

    Returns the :class:`RecoveryReport`; raises :class:`RecoveryError`
    when no feasible grid or reconstruction path exists.
    """
    machine = engine.machine
    if machine.elastic is None:
        raise RecoveryError(
            "machine has no elastic policy; construct it with elastic=... "
            "or set REPRO_ELASTIC"
        )
    rank = int(getattr(failure, "rank", -1))
    step = int(getattr(failure, "step", -1))
    site = str(getattr(failure, "site", ""))
    dead = sorted({rank} if 0 <= rank < machine.p else set())
    if not dead:
        raise RecoveryError(f"failure {failure!r} names no recoverable rank")

    # The recovery window is injection-free: its collectives are charged
    # (and the deadline guard still applies) but the fault plan's delivery
    # hook stands down, so a storm manifests as the *next* batch failing —
    # which re-enters recovery with strictly fewer ranks, guaranteeing
    # termination without partially-rebuilt state.
    hook = machine._fault_hook
    machine._fault_hook = None
    try:
        return _recover_locked(engine, machine, rank, step, site, dead)
    finally:
        machine._fault_hook = hook


def _recover_locked(engine, machine, rank, step, site, dead) -> RecoveryReport:
    # deferred imports: this module is reached from engine/mfbc at runtime,
    # after repro.dist and repro.machine are fully initialized
    from repro.dist.distmat import DistMat
    from repro.machine.grid import near_square_shape, nearest_feasible_p

    with obs.span(
        "recovery",
        cat="recovery",
        rank=rank,
        fault_step=step,
        site=site,
        p_before=machine.p,
    ) as sp:
        # 1. freeze: survivors agree on the failure before reconfiguring
        machine.barrier()

        # 2. pick the nearest feasible survivor grid; retire the excess
        p_before = machine.p
        try:
            p_target = nearest_feasible_p(
                p_before - len(dead), engine.policy.feasible_p
            )
        except ValueError as exc:
            raise RecoveryError(str(exc)) from exc
        survivors = [r for r in range(p_before) if r not in dead]
        retired = survivors[p_target:]
        removed = sorted(dead + retired)

        # 3a. repair the dead ranks' blocks — and gather each repaired
        # matrix — while the old numbering (and the replica map keyed on
        # it) is still in force: a block the memory manager spilled faults
        # back in on its old owner, which the shrink may retire
        blocks_replica = blocks_source = words_restored = 0
        bases = [adj for _, adj in engine._adjacency.values()]
        repaired = []
        for mat in bases:
            stats = mat.repair_lost(dead)
            blocks_replica += stats["replica"]
            blocks_source += stats["source"]
            words_restored += stats["words"]
            repaired.append(mat.gather(charge=False))

        machine.shrink(removed)
        # every pre-shrink holder is epoch-stale now and frees nothing, so
        # the survivors' accounting restarts here and the rebuilt invariants
        # below charge what they hold
        machine.reset_memory()
        pr, pc = near_square_shape(p_target)
        engine.home_ranks2d = np.arange(p_target).reshape(pr, pc)

        # 3b. rebuild every pinned adjacency on the survivor grid.  The
        # repaired global matrix is re-scattered (one collective, charged as
        # category "recovery") and redundancy is re-established for the
        # new grid — both paid for, so post-recovery ledger invariants
        # hold without special-casing.
        for mat, whole in zip(bases, repaired):
            # the scatter (category "recovery") and the re-armed redundancy
            # for the new grid (category "redundancy") are both charged,
            # like the original installation's were
            rebuilt = DistMat.distribute(
                whole,
                machine,
                engine.home_ranks2d,
                category="recovery",
                redundancy=machine.elastic,
            )
            mat._adopt(rebuilt)
            engine._pin(mat)

        # 4. resume: fresh caches, rescaled policy
        engine._replication_cache.clear()
        engine.policy = engine.policy.rescale(p_target)

        report = RecoveryReport(
            dead=tuple(dead),
            retired=tuple(retired),
            p_before=p_before,
            p_after=p_target,
            blocks_replica=blocks_replica,
            blocks_source=blocks_source,
            words_restored=words_restored,
            detail={"site": site, "fault_step": step},
        )
        machine.recoveries.append(report)
        note(
            machine,
            "crash",
            "recovered",
            site=site or "recovery",
            rank=rank,
            p_before=p_before,
            p_after=p_target,
            retired=len(retired),
            blocks_replica=blocks_replica,
            blocks_source=blocks_source,
        )
        if obs.enabled():
            sp.set(
                p_after=p_target,
                retired=len(retired),
                blocks_replica=blocks_replica,
                blocks_source=blocks_source,
                words_restored=words_restored,
            )
            obs.count("elastic.recoveries", 1.0, site=site or "recovery")
    return report
