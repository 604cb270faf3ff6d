"""The distributed execution engine for MFBC (and the CombBLAS baseline).

Implements the :class:`~repro.core.engine.Engine` protocol over the
simulated machine.  Matrices the engine scatters (:meth:`~DistributedEngine.matrix`,
:meth:`~DistributedEngine.adjacency`) start on a near-square machine-wide 2D
"home" grid; every generalized product goes through the selection policy
(model-driven search by default) and one of the §5.2 algorithm variants,
and its output stays on the layout its plan computed it on (layout
persistence, §7.4).  A later product re-blocks an operand only onto a
layout it is not already on, and an elementwise operation on two matrices
that rest differently moves the one with fewer nonzeros.

The loop-invariant operands are a graph's adjacency and its transpose,
which every MFBC product reuses.  The engine pins them, one way
(:meth:`DistributedEngine._pin`): the adjacency is distributed once per
graph and every later :meth:`DistributedEngine.adjacency` call for the same
graph returns the same matrix (its memoized transpose with it), until an
elastic recovery pins it again on the survivors or
:meth:`~DistributedEngine.release_invariants` drops it.  A pinned matrix
carries a replica memo: the selector discounts its replication cost and the
variant executor keeps its replicas there, reproducing the amortization in
the proof of Theorem 5.1; they die with the matrix.  Beside it the engine
records the widest sweep width known to fit the budget, which every later
sweep of the graph starts at (:meth:`~DistributedEngine.sweep_width`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.algebra.matmul import MatMulSpec
from repro.algebra.monoid import Monoid
from repro.dist.distmat import DistMat
from repro.elastic import recover_engine
from repro.machine.grid import near_square_shape
from repro.machine.machine import Machine
from repro.obs import api as obs
from repro.sparse.spmatrix import SpMat
from repro.spgemm.selector import AutoPolicy, SelectionPolicy

__all__ = ["DistributedEngine"]


class DistributedEngine:
    """Run MFBC's matrix operations on a simulated machine.

    Parameters
    ----------
    machine:
        The simulated machine (ranks + cost model + ledger + executor).
    policy:
        SpGEMM selection policy (keyword-only); default :class:`AutoPolicy`
        (CTF-style model search).  Pass ``PinnedPolicy.ca_mfbc(p, c)`` for
        CA-MFBC or ``Square2DPolicy()`` for the CombBLAS restriction.

    When ``machine.check`` is set (the ``check`` knob, :mod:`repro.config`)
    the constructor returns the engine wrapped in a
    :class:`~repro.check.engine.CheckedEngine`; when it is off nothing is
    wrapped and the hot paths are exactly the unchecked ones.
    """

    def __new__(cls, machine: Machine | None = None, *, policy: SelectionPolicy | None = None):
        inner = super().__new__(cls)
        if machine is None or machine.check is None:
            return inner  # (no machine: bare __new__ of copy/pickle protocols)
        from repro.check.engine import CheckedEngine

        # Returning a non-instance skips __init__, so run it by hand.
        inner.__init__(machine, policy=policy)
        return CheckedEngine(inner, machine.check)

    def __init__(self, machine: Machine, *, policy: SelectionPolicy | None = None):
        if getattr(self, "_initialized", False):
            return  # __new__ already ran __init__ before wrapping
        self._initialized = True
        self.machine = machine
        self.policy = policy or AutoPolicy()
        # If a capture session is already active without a modeled clock,
        # adopt this machine's critical-path clock so spans carry modeled
        # begin/duration automatically.
        active = obs.tracer()
        if active is not None and active.modeled_clock is None:
            active.modeled_clock = machine.ledger.critical_time
        pr, pc = near_square_shape(machine.p)
        self.home_ranks2d = np.arange(machine.p).reshape(pr, pc)
        # the loop invariants: id(graph) -> [graph, its pinned adjacency
        # (holding its memoized transpose), the widest sweep width known to
        # fit]; holding the graph keeps its id from being recycled
        self._adjacency: dict[int, list] = {}
        #: plans chosen per product, newest last (diagnostics / tests)
        self.plan_log: list = []

    # -- Engine protocol -------------------------------------------------------

    def matrix(
        self,
        nrows: int,
        ncols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: dict[str, np.ndarray],
        monoid: Monoid,
    ) -> DistMat:
        local = SpMat(nrows, ncols, rows, cols, vals, monoid)
        return DistMat.distribute(local, self.machine, self.home_ranks2d)

    def adjacency(self, graph) -> DistMat:
        """``graph``'s adjacency, distributed and pinned on first use.

        Every later call for the same graph object returns the same matrix
        until an elastic recovery pins a new one, so queries and drivers
        sharing an engine share one copy; drivers ask again per attempt.
        """
        pinned = self._adjacency.get(id(graph))
        return self._pin(graph) if pinned is None else pinned[1]

    def _pin(self, graph, category: str = "input") -> DistMat:
        """Pin ``graph``'s adjacency: the one way, on first use and on
        elastic recovery.

        Scatters it onto the home grid (charged as ``category``), records
        it, builds its memoized transpose, gives both a replica memo, and
        makes both spillable: the long-lived resting state is exactly what
        the memory manager should evict to the spill store under pressure.
        """
        mat = DistMat.distribute(
            graph.adjacency(), self.machine, self.home_ranks2d, category=category
        )
        self._adjacency[id(graph)] = [graph, mat, math.inf]
        memory = getattr(self.machine, "memory", None)
        for pinned in (mat, mat.transpose()):
            pinned._replicas = {}
            if memory is not None:
                memory.register(pinned)
        return mat

    def sweep_width(self, graph, width: int) -> int:
        """``width``, capped at the widest sweep width known to fit beside
        ``graph``'s pinned adjacency; it goes with the pin."""
        pinned = self._adjacency.get(id(graph))
        return width if pinned is None else min(width, pinned[2])

    def narrow_sweeps(self, graph, width: int) -> bool:
        """Record that sweeps of ``graph`` wider than ``width`` do not fit
        (the shrink rung's, the record's one writer); False when ``graph``
        is not pinned."""
        pinned = self._adjacency.get(id(graph))
        if pinned is not None:
            pinned[2] = min(pinned[2], width)
        return pinned is not None

    def release_invariants(self) -> None:
        """Forget every pinned adjacency; its transpose, replicas and sweep
        width go with it.

        The serving layer calls this when the served graph is replaced: the
        old adjacency and its replicas would otherwise be kept alive across
        graph versions.
        """
        self._adjacency.clear()

    def spgemm(
        self,
        a: DistMat,
        b: DistMat,
        spec: MatMulSpec,
        *,
        mask=None,
    ) -> tuple[DistMat, int]:
        # deferred import: repro.spgemm.variants itself imports repro.dist
        from repro.spgemm.variants import execute_plan

        # a mask is handed over where it rests: each frame's sub-mask is read
        # from its tiles, uncharged (execute_plan)
        # in-flight operands become most-recently-used so relief-eviction
        # under memory pressure picks colder matrices first
        memory = getattr(self.machine, "memory", None)
        if memory is not None:
            memory.touch(a)
            memory.touch(b)
        amortized = frozenset(
            name for name, mat in (("A", a), ("B", b)) if mat._replicas is not None
        )
        with obs.span(
            "spgemm",
            cat="spgemm",
            phase=spec.name,
            m=a.nrows,
            k=a.ncols,
            n=b.ncols,
            nnz_a=a.nnz,
            nnz_b=b.nnz,
        ) as sp:
            plan = self.policy.select(
                self.machine,
                a.nrows,
                a.ncols,
                b.ncols,
                a.nnz,
                b.nnz,
                amortized=amortized,
            )
            self.plan_log.append(plan)
            out, ops = execute_plan(plan, a, b, spec, mask=mask)
            # fixed per-product setup overhead on every rank (see CostParams)
            self.machine.charge_overhead(self.machine.cost.product_overhead)
            if obs.enabled():
                sp.set(variant=plan.describe(), product_nnz=out.nnz, ops=ops)
        return out, ops

    def gather(self, mat: DistMat) -> SpMat:
        return mat.gather(charge=True)

    # -- fault tolerance -------------------------------------------------------

    def recover(self) -> None:
        """Reset transient state after an injected failure, before a retry.

        Empties the pinned matrices' replica memos (replicas are rebuilt —
        and recharged — on the next product, mirroring a restarted rank that
        lost its copies).  Memory accounting is left alone: the failed
        attempt's blocks were released by their finalizers before the retry
        starts, and what stays charged — the pinned adjacency and the
        matrices the driver still holds — is still resident, the durable
        inputs a restart would reload.
        """
        for _, adj, _ in self._adjacency.values():
            adj._replicas.clear()
            adj.transpose()._replicas.clear()

    def recover_from(self, failure):
        """Elastic recovery: shrink onto the survivors of ``failure``.

        Shrinks the machine to the nearest grid the selection policy can run
        on, rebuilds the home layout, pins every graph's adjacency there
        again, and returns the :class:`~repro.elastic.RecoveryReport`.
        Requires ``machine.elastic``; raises
        :class:`~repro.elastic.RecoveryError` when no feasible grid exists
        (caller falls back to retry/restart).
        """
        return recover_engine(self, failure)


if TYPE_CHECKING:
    from repro.core.engine import Engine

    # static proof that DistributedEngine satisfies the Engine protocol
    _DISTRIBUTED_IS_ENGINE: Engine = DistributedEngine(Machine(1))
