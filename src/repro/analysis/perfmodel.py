"""Hybrid performance model: measured algorithm trace × analytic machine.

:func:`model_run` takes the :class:`~repro.core.stats.MFBCStats` trace of a
sequential MFBC (or CombBLAS-style) run — the exact per-iteration frontier
sizes ``nnz(F_i)``, product sizes ``nnz(G_i)``, and elementary operation
counts — and prices every generalized product on a hypothetical ``p``-rank
machine by selecting the cheapest §5.2 plan for its actual operand sizes.

This is precisely how the proof of Theorem 5.1 computes MFBC's cost
(``W_MFBC = Σ_i W_MM(A, F_i, G_i, p)``), so modeled scaling curves inherit
the paper's asymptotic shape while reflecting each real graph's frontier
evolution.  The adjacency matrix's replication is charged once per run and
amortized, as in the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import MFBCStats
from repro.machine.collectives import TREE
from repro.machine.grid import log2ceil
from repro.machine.machine import CostParams
from repro.spgemm.costmodel import PlanTable
from repro.spgemm.selector import SelectionPolicy, cheapest_plan, plan_table

__all__ = ["ModeledRun", "model_run"]


@dataclass(frozen=True)
class ModeledRun:
    """Modeled execution of one BC run on a p-rank machine."""

    p: int
    seconds: float
    comm_seconds: float
    compute_seconds: float
    words: float
    msgs: float

    @property
    def breakdown(self) -> dict[str, float]:
        return {
            "seconds": self.seconds,
            "comm_seconds": self.comm_seconds,
            "compute_seconds": self.compute_seconds,
            "words": self.words,
            "msgs": self.msgs,
        }


def model_run(
    stats: MFBCStats,
    graph,
    p: int,
    *,
    cost: CostParams | None = None,
    memory_words: float | None = None,
    policy: SelectionPolicy | None = None,
) -> ModeledRun:
    """Price a traced BC run on a ``p``-rank machine.

    Parameters
    ----------
    stats:
        Trace from a sequential run (``mfbc(...).stats`` or equivalent).
    graph:
        The graph the trace came from (supplies adjacency nnz and n).
    p:
        Hypothetical processor count.
    cost:
        Machine constants (defaults to :class:`CostParams` defaults).
    memory_words:
        Optional per-rank memory budget filtering plans.
    policy:
        Restrict plan selection (e.g. ``Square2DPolicy`` to model CombBLAS).
        Default: full §5.2 search per product.
    """
    cost = cost or CostParams()
    n = graph.n
    nnz_adj = graph.nnz_adjacency

    if policy is None:
        table = plan_table(p)
    else:
        from repro.machine.machine import Machine

        probe = Machine(p, cost=cost)
        table = PlanTable([policy.select(probe, 1, 1, 1, 1, 1)])

    comm_s = 0.0
    compute_s = 0.0
    words = 0.0
    msgs = 0.0

    # adjacency replication charged once (amortized over all products);
    # a single rank holds everything already, so p = 1 communicates nothing
    if p > 1:
        lg = log2ceil(p)
        words += TREE * nnz_adj / p
        msgs += TREE * lg
        comm_s += TREE * (nnz_adj / p) * cost.beta + TREE * lg * cost.alpha

    n_products = sum(len(b.iterations) for b in stats.batches)
    compute_s += n_products * cost.product_overhead

    for batch in stats.batches:
        nb = batch.sources
        for it in batch.iterations:
            # The adjacency matrix is always the second (B) operand of MFBC's
            # products and its replication is amortized across the whole run.
            _plan, est, _seconds, _feasible = cheapest_plan(
                table,
                table.price(
                    nb, n, n, it.frontier_nnz, nnz_adj,
                    nnz_c=it.product_nnz, ops=it.ops, amortized=frozenset("B"),
                ),
                cost,
                memory_words,
            )
            if est is None:
                raise ValueError(
                    f"no plan fits memory budget {memory_words} at p={p} "
                    f"(nnz_a={it.frontier_nnz}, nnz_b={nnz_adj})"
                )
            comm_s += est.msgs * cost.alpha + est.words * cost.beta
            compute_s += est.flops / cost.compute_rate
            words += est.words
            msgs += est.msgs

    return ModeledRun(
        p=p,
        seconds=comm_s + compute_s,
        comm_seconds=comm_s,
        compute_seconds=compute_s,
        words=words,
        msgs=msgs,
    )
