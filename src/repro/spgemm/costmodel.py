"""The closed-form α-β cost model of the SpGEMM algorithm space (§5.2).

One expression prices every plan, with the structure CTF's mapping search
evaluates (§5.2.3)::

    W_{X,YZ} = W_X(X[p2,p3]) + W_YZ

``W_X = O(α·log p1 + β·nnz(X)/(p2·p3))`` is the 1D level moving X over
``p1`` (a broadcast of an operand, a sparse reduction of C) and
``W_YZ = O(α·lcm(p2,p3)·log(p2·p3) + β·(nnz(Y)/p2 + nnz(Z)/p3))`` the 2D
level, which sees every matrix but X shrunk by ``p1``.  A 1D plan is the
``p2·p3 = 1`` case and a 2D plan the ``p1 = 1`` case of the same formula.
The selector evaluates it a priori (with model-estimated ``nnz(C)``); the
theory benches print it directly.

:func:`model_plan` returns a :class:`CostEstimate` with separate
latency-message and bandwidth-word tallies so callers can apply any
machine's α and β.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.collectives import TREE
from repro.machine.grid import log2ceil

__all__ = [
    "CostEstimate",
    "estimate_ops",
    "estimate_nnz_c",
    "model_plan",
]


@dataclass(frozen=True)
class CostEstimate:
    """Messages, words, local flops, and per-rank memory words of a plan."""

    msgs: float
    words: float
    flops: float
    memory_words: float

    def time(self, alpha: float, beta: float, compute_rate: float) -> float:
        """Modeled execution time under given machine constants."""
        return self.msgs * alpha + self.words * beta + self.flops / compute_rate


def estimate_ops(m: int, k: int, n: int, nnz_a: int, nnz_b: int) -> float:
    """``ops(A, B) ≈ nnz(A)·nnz(B)/k`` — the uniform-sparsity estimate (§5.2)."""
    if k == 0:
        return 0.0
    return nnz_a * (nnz_b / k)


def estimate_nnz_c(m: int, k: int, n: int, nnz_a: int, nnz_b: int) -> float:
    """``nnz(C) ≈ min(m·n, ops(A, B))`` (§5.2)."""
    return min(float(m) * float(n), estimate_ops(m, k, n, nnz_a, nnz_b))


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
    """Price any :class:`~repro.spgemm.plan.Plan`: ``W_X + W_YZ``.

    ``amortized`` names the loop-invariant operands.  MFBC replicates the
    adjacency matrix once and reuses it across all ``O(d · n/nb)`` products
    (the amortization in Theorem 5.1's proof), so a plan that moves such an
    X is priced without its ``W_X`` term; the selector must see that
    discount or it would never choose replication.
    """
    if ops is None:
        ops = estimate_ops(m, k, n, int(nnz_a), int(nnz_b))
    if nnz_c is None:
        nnz_c = estimate_nnz_c(m, k, n, int(nnz_a), int(nnz_b))
    p1, p2, p3 = plan.p1, plan.p2, plan.p3
    p = plan.p
    nnz = {"A": nnz_a, "B": nnz_b, "C": nnz_c}
    msgs = words = 0.0
    # every matrix's resting share of the machine
    memory = (nnz_a + nnz_b + nnz_c) / p
    if p1 > 1:
        # W_X: the 1D level handles blocks of X from a p2 × p3 distribution
        # with one broadcast/reduce-class collective over p1 ranks
        if plan.x not in amortized:
            msgs += TREE * log2ceil(p1)
            words += TREE * nnz[plan.x] / (p2 * p3)
        # memory grows by the replication factor, counted beside X's share
        memory += nnz[plan.x] * p1 / p
    if p2 * p3 > 1:
        # W_YZ per layer: matrices ≠ X are split by p1 along one dimension;
        # CTF runs lcm(p2, p3) broadcast/reduction steps and prefers grids
        # where lcm ≈ max
        y, z = (nnz[v] if v == plan.x else nnz[v] / p1 for v in plan.yz)
        msgs += TREE * math.lcm(p2, p3) * log2ceil(p2 * p3)
        words += TREE * (y / p2 + z / p3)
        memory += y / p2 + z / p3
    return CostEstimate(msgs, words, ops / p, memory)
