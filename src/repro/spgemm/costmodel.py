"""The closed-form α-β cost model of the SpGEMM algorithm space (§5.2).

One expression prices every plan, with the structure CTF's mapping search
evaluates (§5.2.3)::

    W_{X,YZ} = W_X(X[p2,p3]) + W_YZ

``W_X = O(α·log p1 + β·nnz(X)/(p2·p3))`` is the 1D level moving X over
``p1`` (a broadcast of an operand, a sparse reduction of C) and
``W_YZ = O(α·lcm(p2,p3)·log(p2·p3) + β·(nnz(Y)/p2 + nnz(Z)/p3))`` the 2D
level, which sees every matrix but X shrunk by ``p1``.  A 1D plan is the
``p2·p3 = 1`` case and a 2D plan the ``p1 = 1`` case of the same formula.
The selector evaluates it a priori (with model-estimated ``nnz(C)``) for
every plan of a memoized :class:`PlanTable` at once; the theory benches print
it directly.

:meth:`PlanTable.price` (every plan) and :func:`model_plan` (its one-row
view) return a :class:`CostEstimate` with separate latency-message and
bandwidth-word tallies so callers can apply any machine's α and β.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.collectives import TREE
from repro.machine.grid import log2ceil

__all__ = [
    "CostEstimate",
    "estimate_ops",
    "estimate_nnz_c",
    "model_plan",
    "PlanTable",
]


@dataclass(frozen=True)
class CostEstimate:
    """Messages, words, local flops, and per-rank memory words of a plan —
    or, from :meth:`PlanTable.price`, arrays of them over a table's plans."""

    msgs: float
    words: float
    flops: float
    memory_words: float

    def time(self, alpha: float, beta: float, compute_rate: float) -> float:
        """Modeled execution time under given machine constants."""
        return self.msgs * alpha + self.words * beta + self.flops / compute_rate

    def row(self, i: int) -> "CostEstimate":
        """Plan ``i``'s estimate out of a table's."""
        return CostEstimate(
            float(self.msgs[i]), float(self.words[i]), self.flops, float(self.memory_words[i])
        )


def estimate_ops(m: int, k: int, n: int, nnz_a: int, nnz_b: int) -> float:
    """``ops(A, B) ≈ nnz(A)·nnz(B)/k`` — the uniform-sparsity estimate (§5.2)."""
    if k == 0:
        return 0.0
    return nnz_a * (nnz_b / k)


def estimate_nnz_c(m: int, k: int, n: int, nnz_a: int, nnz_b: int) -> float:
    """``nnz(C) ≈ min(m·n, ops(A, B))`` (§5.2)."""
    return min(float(m) * float(n), estimate_ops(m, k, n, nnz_a, nnz_b))


class PlanTable:
    """A sequence of plans (all over the same ``p`` ranks) as columns: the
    terms of ``W_X + W_YZ`` that do not depend on the operands' sizes.

    :meth:`price` evaluates the one formula for every row in one numpy pass
    and returns a :class:`CostEstimate` of arrays, one entry per plan.
    Every row performs the operations :func:`model_plan` would, in the same
    order, so each entry equals the scalar evaluation of its plan bit for bit
    (numpy's elementwise float64 arithmetic is Python's).
    """

    def __init__(self, plans) -> None:
        self.plans = tuple(plans)
        (self.p,) = {plan.p for plan in self.plans}
        cols = np.array(
            [
                (plan.p1, plan.p2, plan.p3, *("ABC".index(v) for v in plan.x + plan.yz))
                for plan in self.plans
            ],
            dtype=np.int64,
        )
        self.p1, self.p2, self.p3, self.x, self.y, self.z = cols.T
        #: the 1D level runs (``W_X``) / the 2D level runs (``W_YZ``)
        self.outer = self.p1 > 1
        self.inner = self.p2 * self.p3 > 1
        # (⌈log₂ 1⌉ = 0: a level that does not run sends nothing)
        self.msgs_x = np.array([TREE * log2ceil(p1) for p1 in self.p1.tolist()])
        self.msgs_yz = np.array(
            [
                TREE * math.lcm(p2, p3) * log2ceil(p2 * p3)
                for p2, p3 in zip(self.p2.tolist(), self.p3.tolist())
            ]
        )

    def price(
        self,
        m: int,
        k: int,
        n: int,
        nnz_a: float,
        nnz_b: float,
        nnz_c: float | None = None,
        ops: float | None = None,
        amortized: frozenset[str] = frozenset(),
    ) -> CostEstimate:
        """Every plan's :class:`CostEstimate` at once (fields are arrays;
        ``flops`` is the one scalar all plans share).

        ``amortized`` names the loop-invariant operands.  MFBC replicates
        the adjacency matrix once and reuses it across all ``O(d · n/nb)``
        products (the amortization in Theorem 5.1's proof), so a plan that
        moves such an X is priced without its ``W_X`` term; the selector must
        see that discount or it would never choose replication.
        """
        if ops is None:
            ops = estimate_ops(m, k, n, int(nnz_a), int(nnz_b))
        if nnz_c is None:
            nnz_c = estimate_nnz_c(m, k, n, int(nnz_a), int(nnz_b))
        p, p1, p2, p3 = self.p, self.p1, self.p2, self.p3
        nnz = np.array([nnz_a, nnz_b, nnz_c], dtype=float)
        nnz_x = nnz[self.x]
        # W_X: the 1D level handles blocks of X from a p2 × p3 distribution
        # with one broadcast/reduce-class collective over p1 ranks
        charged = self.outer & np.array([v not in amortized for v in "ABC"])[self.x]
        msgs = np.where(charged, self.msgs_x, 0.0) + self.msgs_yz
        words = np.where(charged, TREE * nnz_x / (p2 * p3), 0.0)
        # W_YZ per layer: matrices ≠ X are split by p1 along one dimension;
        # CTF runs lcm(p2, p3) broadcast/reduction steps and prefers grids
        # where lcm ≈ max
        y, z = (np.where(v == self.x, nnz[v], nnz[v] / p1) for v in (self.y, self.z))
        layer = y / p2 + z / p3
        words = words + np.where(self.inner, TREE * layer, 0.0)
        # every matrix's resting share of the machine; memory grows by the
        # replication factor, counted beside X's share, and by the layer's
        # panels
        memory = (nnz_a + nnz_b + nnz_c) / p
        memory = memory + np.where(self.outer, nnz_x * p1 / p, 0.0)
        memory = memory + np.where(self.inner, layer, 0.0)
        return CostEstimate(msgs, words, ops / p, memory)


def model_plan(
    plan,
    m: int,
    k: int,
    n: int,
    nnz_a: float,
    nnz_b: float,
    nnz_c: float | None = None,
    ops: float | None = None,
    amortized: frozenset[str] = frozenset(),
) -> CostEstimate:
    """Price any :class:`~repro.spgemm.plan.Plan`: ``W_X + W_YZ`` — the one
    row of :meth:`PlanTable.price` over that plan alone."""
    return PlanTable((plan,)).price(m, k, n, nnz_a, nnz_b, nnz_c, ops, amortized).row(0)
