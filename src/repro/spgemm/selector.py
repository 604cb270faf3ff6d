"""Cost-model-driven algorithm selection (CTF's mapping search, §6.2).

For every product, :class:`AutoPolicy` prices the full §5.2 space —
three 1D variants, three 2D variants over every ``pr × pc`` factorization,
nine 3D variants over every ``p1 × p2 × p3`` factorization, enumerated and
tabled once per ``p`` (:func:`plan_table`) — with the closed-form α-β model
in one array pass over the operands' *actual* nonzero counts (output
nonzeros estimated by the uniform-sparsity model), filters by the machine's
memory budget, and picks the cheapest plan.

Two pinned policies reproduce the paper's named configurations:

* :class:`PinnedPolicy` — CA-MFBC (§6): the fixed Theorem-5.1 grid
  ``√(p/c) × √(p/c) × c`` with the adjacency matrix replicated;
* :class:`Square2DPolicy` — the CombBLAS restriction: square 2D process
  grids only (the reason the paper benchmarks powers of four).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.machine.grid import factorizations
from repro.machine.machine import Machine, MemoryLimitExceeded
from repro.obs import api as obs
from repro.spgemm.costmodel import CostEstimate, PlanTable
from repro.spgemm.plan import Plan

__all__ = [
    "SelectionPolicy",
    "AutoPolicy",
    "PinnedPolicy",
    "Square2DPolicy",
    "enumerate_plans",
    "plan_table",
    "cheapest_plan",
]


@functools.cache
def enumerate_plans(p: int) -> tuple[Plan, ...]:
    """Every (grid, variant) point of §5.2 for ``p`` ranks, built and
    validated once per ``p`` (plans are immutable values)."""
    plans: list[Plan] = []
    for x in "ABC":
        plans.append(Plan(p, 1, 1, x, "AB"))
    for pr, pc in factorizations(p, 2):
        if pr == 1 or pc == 1:
            # 1 × q and q × 1 "2D" grids degenerate to the 1D variants
            # already enumerated, with worse step counts.
            continue
        for yz in ("AB", "AC", "BC"):
            plans.append(Plan(1, pr, pc, "A", yz))
    for p1, p2, p3 in factorizations(p, 3):
        if p1 == 1 or p2 * p3 == 1:
            continue
        for x in "ABC":
            for yz in ("AB", "AC", "BC"):
                plans.append(Plan(p1, p2, p3, x, yz))
    return tuple(plans)


@functools.cache
def plan_table(p: int) -> PlanTable:
    """:func:`enumerate_plans` as a :class:`PlanTable`, built once per ``p``."""
    return PlanTable(enumerate_plans(p))


def cheapest_plan(table: PlanTable, est: CostEstimate, cost, memory_words):
    """The one selection loop: memory-filter → argmin over a priced table.

    ``est`` is ``table.price(...)``.  Plans whose estimate exceeds
    ``memory_words`` (``None`` = unbounded) are skipped; the rest are
    scanned in table order and ties within 1e-18 modeled seconds go to the
    smaller ``p1``.  Returns ``(plan, estimate, modeled seconds, feasible
    count)``; ``plan`` is ``None`` when nothing fits, and the caller raises
    its own error.
    """
    times = est.time(cost.alpha, cost.beta, cost.compute_rate).tolist()
    if memory_words is None:
        rows = range(len(times))
    else:
        rows = np.flatnonzero(est.memory_words <= memory_words).tolist()
    p1 = table.p1.tolist()
    best = None
    best_time = math.inf
    for i in rows:
        t = times[i]
        if t < best_time - 1e-18 or (
            abs(t - best_time) <= 1e-18 and best is not None and p1[i] < p1[best]
        ):
            best, best_time = i, t
    if best is None:
        return None, None, best_time, 0
    return table.plans[best], est.row(best), best_time, len(rows)


class SelectionPolicy:
    """Base policy interface."""

    def select(
        self,
        machine: Machine,
        m: int,
        k: int,
        n: int,
        nnz_a: int,
        nnz_b: int,
        amortized: frozenset[str] = frozenset(),
    ) -> Plan:
        raise NotImplementedError

    # -- elasticity hooks ----------------------------------------------------

    def feasible_p(self, p: int) -> bool:
        """Can this policy produce a plan for a ``p``-rank machine?

        Elastic recovery asks this while picking the nearest feasible
        survivor grid (:func:`~repro.machine.grid.nearest_feasible_p`).
        The default — any positive ``p`` — matches :class:`AutoPolicy`,
        which enumerates grids for arbitrary rank counts.
        """
        return p >= 1

    def rescale(self, p: int) -> "SelectionPolicy":
        """The policy to use after an elastic shrink to ``p`` ranks.

        Stateless policies return themselves (they re-run their search at
        the new ``p`` — the selector cost model re-runs per product, so the
        optimal variant may legitimately change at ``p'``); pinned policies
        must re-pin.
        """
        return self


@dataclass
class AutoPolicy(SelectionPolicy):
    """Full model-driven search over grids × variants (CTF behaviour)."""

    def select(self, machine, m, k, n, nnz_a, nnz_b, amortized=frozenset()):
        with obs.span("select", cat="selector") as sp:
            table = plan_table(machine.p)
            best, _est, best_time, feasible = cheapest_plan(
                table,
                table.price(m, k, n, nnz_a, nnz_b, amortized=amortized),
                machine.cost,
                machine.memory_words,
            )
            if best is None:
                raise MemoryLimitExceeded(
                    f"no SpGEMM plan fits the per-rank memory budget "
                    f"{machine.memory_words} words for nnz(A)={nnz_a}, nnz(B)={nnz_b}"
                )
            if obs.enabled():
                sp.set(
                    candidates=len(table.plans),
                    feasible=feasible,
                    chosen=best.describe(),
                    modeled_seconds=best_time,
                )
        return best


@dataclass
class PinnedPolicy(SelectionPolicy):
    """Always run one fixed plan (CA-MFBC's Theorem-5.1 configuration).

    ``ca_c`` records the Theorem-5.1 replication factor when the policy was
    built by :meth:`ca_mfbc`; it is what lets the policy re-pin itself on a
    shrunken machine (an arbitrary hand-pinned plan cannot).
    """

    plan: Plan
    ca_c: int | None = None

    @classmethod
    def ca_mfbc(cls, p: int, c: int = 1) -> "PinnedPolicy":
        """The communication-avoiding grid of Theorem 5.1.

        ``p1 = p2 = √(p/c)``, ``p3 = c``; the adjacency matrix (our second
        operand) is replicated over the ``p3 = c`` layers via the 1D variant
        and the 2D part broadcasts the frontier and reduces the output.
        """
        if c < 1 or p % c != 0:
            raise ValueError(f"replication factor c={c} must divide p={p}")
        s = math.isqrt(p // c)
        if s * s != p // c:
            raise ValueError(f"p/c = {p // c} must be a perfect square")
        if c == 1:
            return cls(Plan(1, s, s, "A", "AC"), ca_c=c)
        return cls(Plan(c, s, s, "B", "AC"), ca_c=c)

    def select(self, machine, m, k, n, nnz_a, nnz_b, amortized=frozenset()):
        if self.plan.p != machine.p:
            raise ValueError(
                f"pinned plan covers {self.plan.p} ranks, machine has {machine.p}"
            )
        return self.plan

    def feasible_p(self, p: int) -> bool:
        if self.ca_c is not None:
            c = self.ca_c
            return p >= c and p % c == 0 and math.isqrt(p // c) ** 2 == p // c
        return p == self.plan.p

    def rescale(self, p: int) -> "PinnedPolicy":
        if p == self.plan.p:
            return self
        if self.ca_c is None:
            raise ValueError(
                f"pinned plan covers {self.plan.p} ranks and cannot be "
                f"rescaled to p={p}"
            )
        return type(self).ca_mfbc(p, self.ca_c)


@dataclass
class Square2DPolicy(SelectionPolicy):
    """CombBLAS's restriction: a square 2D grid running plain SUMMA (AB)."""

    def select(self, machine, m, k, n, nnz_a, nnz_b, amortized=frozenset()):
        s = math.isqrt(machine.p)
        if s * s != machine.p:
            raise ValueError(
                f"CombBLAS requires a square process grid; p={machine.p} "
                "is not a perfect square"
            )
        return Plan(1, s, s, "A", "AB")

    def feasible_p(self, p: int) -> bool:
        return p >= 1 and math.isqrt(p) ** 2 == p
