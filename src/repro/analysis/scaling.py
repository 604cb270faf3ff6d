"""Strong- and weak-scaling experiment harnesses (§7.2, §7.3).

Each harness runs the algorithm *once* per graph on the sequential engine to
obtain its exact execution trace (per-product frontier/output sizes and
operation counts), then prices that trace on machines with varying processor
counts via :func:`~repro.analysis.perfmodel.model_run` — the hybrid
methodology described in :mod:`repro.analysis` and DESIGN.md.  Results come
back as :class:`ScalingPoint` rows ready for the benches to print.

Batch-size handling follows §7.1: the paper reports the best rate over a
range of batch sizes; pass several via ``batch_sizes`` to reproduce that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.perfmodel import model_run
from repro.analysis.teps import mteps_per_node
from repro.core.mfbc import mfbc
from repro.core.stats import MFBCStats
from repro.graphs.graph import Graph
from repro.machine.machine import CostParams
from repro.spgemm.selector import SelectionPolicy

__all__ = [
    "ScalingPoint",
    "trace_mfbc",
    "trace_combblas",
    "strong_scaling",
    "edge_weak_scaling",
    "vertex_weak_scaling",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One (graph, p) point of a scaling curve."""

    graph_name: str
    n: int
    m: int
    p: int
    seconds: float
    comm_seconds: float
    mteps_per_node: float
    words: float
    msgs: float


def trace_mfbc(
    graph: Graph,
    batch_size: int | None = None,
    *,
    max_batches: int | None = None,
) -> tuple[MFBCStats, int]:
    """Sequential MFBC trace; returns (stats, sources traced)."""
    res = mfbc(graph, batch_size=batch_size, max_batches=max_batches)
    return res.stats, res.stats.sources_processed


def trace_combblas(
    graph: Graph,
    batch_size: int | None = None,
    *,
    max_batches: int | None = None,
) -> tuple[MFBCStats, int]:
    """Sequential CombBLAS-style trace; returns (stats, sources traced)."""
    from repro.baselines.combblas_bc import combblas_bc

    res = combblas_bc(graph, batch_size=batch_size, max_batches=max_batches)
    return res.stats, res.stats.sources_processed


#: Memory slack factor on the adjacency share: the graph fits with this much
#: headroom at the reference processor count, bounding replication factors to
#: c ≲ MEMORY_SLACK·p/p_ref (the §5.3.4 strong-scaling-range behaviour).
MEMORY_SLACK = 4.0


def default_memory_budget(graph: Graph, p_ref: int, nb: int) -> float:
    """A realistic constant per-node memory budget, in matrix *entries*
    (the unit the §5.2 cost models use).

    Real clusters have fixed memory per node, sized so the problem *just*
    fits at the smallest benchmarked processor count ``p_ref`` — the paper's
    graphs do not fit on one node, which is exactly why replication factors
    ``c`` are bounded and Theorem 5.1's ``M = Ω(c·m/p)`` constraint binds.
    The budget is the exact share of the ``n × nb`` working matrices plus
    ``MEMORY_SLACK``× the adjacency share at ``p_ref``; whole-graph
    replication (the communication-free degenerate strategy of §5.3.2) is
    thereby infeasible once ``p_ref`` exceeds the slack, as on the paper's
    machines.
    """
    working_entries = 2 * graph.n * max(nb, 1)  # T and Z
    return (
        working_entries + MEMORY_SLACK * graph.nnz_adjacency
    ) / max(p_ref, 1)


def _price(
    name: str,
    graph: Graph,
    stats: MFBCStats,
    sources: int,
    p_values: Sequence[int],
    cost: CostParams,
    policy: SelectionPolicy | None,
    memory_words: float | None,
) -> list[ScalingPoint]:
    points = []
    for p in p_values:
        budget = memory_words
        run = None
        while run is None:
            try:
                run = model_run(
                    stats, graph, p, cost=cost, policy=policy, memory_words=budget
                )
            except ValueError:
                # budget admits no plan at this p — relax it stepwise rather
                # than abort the sweep (the point is then memory-bound)
                budget = budget * 2 if budget is not None else None
        # scale the modeled time for the traced source subset up to a rate
        points.append(
            ScalingPoint(
                graph_name=name or graph.name,
                n=graph.n,
                m=graph.m,
                p=p,
                seconds=run.seconds,
                comm_seconds=run.comm_seconds,
                mteps_per_node=mteps_per_node(graph, run.seconds, p, sources),
                words=run.words,
                msgs=run.msgs,
            )
        )
    return points


def strong_scaling(
    graph: Graph,
    p_values: Sequence[int],
    *,
    batch_sizes: Sequence[int | None] = (None,),
    tracer: Callable = trace_mfbc,
    cost: CostParams | None = None,
    policy: SelectionPolicy | None = None,
    max_batches: int | None = None,
    memory_words: float | None = None,
) -> list[ScalingPoint]:
    """Fixed graph, varying p; best rate over ``batch_sizes`` per point
    (§7.1's methodology)."""
    cost = cost or CostParams()
    best: dict[int, ScalingPoint] = {}
    for nb in batch_sizes:
        stats, sources = tracer(graph, nb, max_batches=max_batches)
        nb_eff = max((b.sources for b in stats.batches), default=1)
        budget = (
            memory_words
            if memory_words is not None
            else default_memory_budget(graph, min(p_values), nb_eff)
        )
        for pt in _price(
            graph.name, graph, stats, sources, p_values, cost, policy, budget
        ):
            if pt.p not in best or pt.mteps_per_node > best[pt.p].mteps_per_node:
                best[pt.p] = pt
    return [best[p] for p in p_values]


def edge_weak_scaling(
    n0: int,
    edge_fraction: float,
    p_values: Sequence[int],
    *,
    batch_size: int | None = None,
    cost: CostParams | None = None,
    policy: SelectionPolicy | None = None,
    max_batches: int | None = None,
    seed: int = 0,
    graph_factory: Callable[[int, float, int], Graph] | None = None,
) -> list[ScalingPoint]:
    """§7.3 "edge weak scaling": ``n²/p`` and the nonzero fraction constant,
    i.e. ``n = n0·√p``."""
    from repro.graphs.random_uniform import uniform_random_graph

    cost = cost or CostParams()
    factory = graph_factory or (
        lambda n, f, s: uniform_random_graph(n, f, seed=s)
    )
    points = []
    for i, p in enumerate(p_values):
        n = int(round(n0 * np.sqrt(p)))
        g = factory(n, edge_fraction, seed + i)
        stats, sources = trace_mfbc(g, batch_size, max_batches=max_batches)
        nb_eff = max((b.sources for b in stats.batches), default=1)
        budget = default_memory_budget(g, p, nb_eff)
        points.extend(
            _price(g.name, g, stats, sources, [p], cost, policy, budget)
        )
    return points


def vertex_weak_scaling(
    n0: int,
    avg_degree: float,
    p_values: Sequence[int],
    *,
    batch_size: int | None = None,
    cost: CostParams | None = None,
    policy: SelectionPolicy | None = None,
    max_batches: int | None = None,
    seed: int = 0,
) -> list[ScalingPoint]:
    """§7.3 "vertex weak scaling": ``n/p`` and the average degree constant,
    i.e. ``n = n0·p``."""
    from repro.graphs.random_uniform import uniform_random_graph_nm

    cost = cost or CostParams()
    points = []
    for i, p in enumerate(p_values):
        n = int(n0 * p)
        g = uniform_random_graph_nm(n, avg_degree, seed=seed + i)
        stats, sources = trace_mfbc(g, batch_size, max_batches=max_batches)
        nb_eff = max((b.sources for b in stats.batches), default=1)
        budget = default_memory_budget(g, p, nb_eff)
        points.extend(
            _price(g.name, g, stats, sources, [p], cost, policy, budget)
        )
    return points
