"""Algebraic breadth-first search (the paper's §2.3 example).

BFS from a batch of roots is iterated multiplication of a sparse frontier
with the adjacency matrix over the tropical monoid ``(W, min)`` with the
``+`` action; the frontier retains only vertices whose distance was just
set (the "screening" step of §2.3).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.algebra.monoid import MinMonoid
from repro.algebra.semiring import TROPICAL
from repro.core.engine import Engine, SequentialEngine
from repro.graphs.graph import Graph

__all__ = ["bfs_levels"]

_MIN = MinMonoid()
# min-plus as a named semiring action (repro.check serializes it by name),
# under a complemented mask: the frontier screen below
_SPEC = replace(TROPICAL.matmul_spec(name="bfs"), mask_rule="complement")


def bfs_levels(
    graph: Graph,
    sources: np.ndarray | list[int],
    *,
    engine: Engine | None = None,
) -> np.ndarray:
    """Hop distances from each source to every vertex.

    Returns a dense ``len(sources) × n`` float array; unreachable entries
    are ``inf``.  Edge weights are ignored (every edge counts one hop).
    """
    engine = engine or SequentialEngine()
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) == 0:
        raise ValueError("empty source list")
    adj = engine.adjacency(graph.unweighted())
    n = graph.n
    nb = len(sources)

    levels = engine.matrix(
        nb,
        n,
        np.arange(nb, dtype=np.int64),
        sources,
        {"w": np.zeros(nb)},
        _MIN,
    )
    frontier = levels
    for _ in range(n + 1):
        if frontier.nnz == 0:
            return engine.gather(levels).to_dense("w")
        # screen (§2.3) as a complemented mask: a BFS label, once set, is
        # final, so only unlabeled vertices can join the frontier — and
        # their products are never even formed
        frontier, _ = engine.spgemm(frontier, adj, _SPEC, mask=levels)
        levels = levels.combine(frontier)
    raise RuntimeError("BFS failed to converge — inconsistent adjacency")
