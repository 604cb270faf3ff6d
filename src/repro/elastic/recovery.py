"""The recovery coordinator: shrink, rebuild, resume.

Elastic recovery is on or off (the ``elastic`` knob of :mod:`repro.config`,
grammar ``on``).  When a collective raises :class:`~repro.faults.RankFailure`
and the machine has it on, the MFBC driver hands the engine to
:func:`recover_engine`, which runs the protocol of the elastic design:

1. **Freeze** — synchronize the survivors' modeled clocks (a real recovery
   begins with failure detection + agreement, a barrier-class event) and
   open a ``recovery`` span in :mod:`repro.obs` linked to the fault step.
2. **Shrink** — pick the nearest rank count ``p' ≤ p - |dead|`` the active
   selection policy is feasible on (:func:`~repro.machine.grid.nearest_feasible_p`);
   survivors beyond ``p'`` are *retired* (alive but excluded, like MPI
   ranks outside the shrunken communicator).  :meth:`Machine.shrink
   <repro.machine.machine.Machine.shrink>` compacts the ledger onto the
   survivor numbering.
3. **Re-pin** — the adjacency and its transpose are the only distributed
   state that outlives a batch (Algorithm 3; every frontier is recomputed
   per batch), and the engine keeps each pinned adjacency beside its
   graph, so the input a lost rank held can always be read again.  The
   engine's entries are cleared and each graph's adjacency is pinned again
   the way first use pins it (``DistributedEngine._pin``): scattered onto
   the new near-square home grid, charged as category ``"recovery"``, with
   a fresh transpose and empty replica memos.  The old matrices are
   epoch-stale: nothing spills them, and they are collected with the last
   reference.  The home grid is only where the engine first scatters a
   matrix — a product's output stays on its plan's layout — but the
   invariants are pinned there because that is where they always rest:
   every product re-blocks them from it (or reads their replica memo),
   never replaces them.
4. **Resume** — the policy is rescaled to ``p'``, memory accounting
   resets, and the driver re-executes only the interrupted batch, asking
   the engine for the adjacency again.

Determinism: the survivor set is a pure function of the seeded fault plan,
and every step here (grid choice, scatter order) is deterministic given
that set — so seeded runs make identical recovery decisions, and the
recomputed batch is bit-identical to a fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import config
from repro.faults.plan import note
from repro.obs import api as obs

__all__ = ["RecoveryError", "RecoveryReport", "recover_engine", "resolve_elastic"]


def _parse_spec(spec) -> bool:
    if spec is True:
        return True
    if not isinstance(spec, str):
        raise TypeError(f"cannot resolve elastic spec from {type(spec).__name__}")
    if spec.strip().lower() in ("on", "1", "true"):
        return True
    raise ValueError(f"unknown elastic spec {spec!r}; expected 'on' or 'off'")


def resolve_elastic(spec=None) -> bool | None:
    """``True`` when elastic recovery is on, ``None`` when it is off.

    Accepts ``True``, a spec string, or ``None`` for the ambient
    ``elastic`` knob (:mod:`repro.config`).
    """
    return config.ambient("elastic", spec, _parse_spec)


class RecoveryError(RuntimeError):
    """Elastic recovery could not reconstruct the lost state.

    Raised when the failure names no rank or no feasible survivor grid
    exists.  Callers fall back to the next rung of the robustness ladder
    (retry from checkpoint, then abort).
    """


@dataclass(frozen=True)
class RecoveryReport:
    """What one completed recovery did (appended to ``machine.recoveries``)."""

    dead: tuple[int, ...]  # failed ranks (old numbering)
    retired: tuple[int, ...]  # alive ranks shed to reach a feasible grid
    p_before: int
    p_after: int
    detail: dict = field(default_factory=dict)


def recover_engine(engine, failure) -> RecoveryReport:
    """Recover ``engine`` in place from a :class:`RankFailure`.

    Returns the :class:`RecoveryReport`; raises :class:`RecoveryError`
    when no feasible survivor grid exists.
    """
    machine = engine.machine
    if machine.elastic is None:
        raise RecoveryError(
            "machine has elastic recovery off; construct it with elastic='on' "
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
    # deferred import: repro.machine imports this package
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

        machine.shrink(removed)
        # every pre-shrink holder is epoch-stale now and frees nothing, so
        # the survivors' accounting restarts here and the re-pinned
        # invariants below charge what they hold
        machine.reset_memory()
        pr, pc = near_square_shape(p_target)
        engine.home_ranks2d = np.arange(p_target).reshape(pr, pc)

        # 3. pin every graph's adjacency again on the survivor grid: one
        # scatter each, charged as category "recovery"; the sweep widths
        # that fit the old grid go with the old pins
        graphs = [graph for graph, _, _ in engine._adjacency.values()]
        engine._adjacency.clear()
        for graph in graphs:
            engine._pin(graph, category="recovery")

        # 4. resume on the rescaled policy
        engine.policy = engine.policy.rescale(p_target)

        report = RecoveryReport(
            dead=tuple(dead),
            retired=tuple(retired),
            p_before=p_before,
            p_after=p_target,
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
        )
        if obs.enabled():
            sp.set(p_after=p_target, retired=len(retired))
    return report
