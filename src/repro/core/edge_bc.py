"""Edge betweenness centrality from MFBC's T and Z matrices.

A natural extension of the paper's machinery (its conclusion explicitly
invites extending the formalism): the centrality of an *edge* (u, v) is
``λ(u,v) = Σ_{s,t} σ(s,t,(u,v))/σ̄(s,t)`` — the number of shortest paths
crossing the edge.  With MFBF's multpaths and MFBr's partial factors it has
the closed per-source form

    c(s, (u,v)) = σ̄(s,u) · (1/σ̄(s,v) + ζ(s,v))   if τ(s,u) + w(u,v) = τ(s,v)
                = 0                                otherwise,

i.e. the tail's multiplicity times exactly the value MFBr propagates when
``v`` fires.  Edge BC is the engine of Girvan–Newman community detection
(see ``examples/community_detection.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Engine, SequentialEngine
from repro.core.mfbf import equal_weights, mfbf
from repro.core.mfbr import mfbr
from repro.graphs.graph import Graph

__all__ = ["edge_betweenness_centrality", "EdgeBCResult"]


class EdgeBCResult:
    """Edge scores aligned with ``graph.src``/``graph.dst``.

    For undirected graphs each stored edge's score already sums both
    traversal directions.
    """

    __slots__ = ("graph", "scores")

    def __init__(self, graph: Graph, scores: np.ndarray) -> None:
        self.graph = graph
        self.scores = scores

    def top_edges(self, k: int) -> list[tuple[int, int, float]]:
        """The ``k`` highest-scoring edges as (u, v, score)."""
        order = np.argsort(self.scores)[::-1][:k]
        return [
            (int(self.graph.src[i]), int(self.graph.dst[i]), float(self.scores[i]))
            for i in order
        ]

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {
            (int(u), int(v)): float(s)
            for u, v, s in zip(self.graph.src, self.graph.dst, self.scores)
        }


def edge_betweenness_centrality(
    graph: Graph,
    *,
    batch_size: int | None = None,
    sources: np.ndarray | None = None,
    engine: Engine | None = None,
    edge_chunk: int = 1 << 20,
) -> EdgeBCResult:
    """Betweenness centrality of every edge (ordered-pair convention).

    Parameters mirror :func:`repro.core.mfbc.mfbc`; ``edge_chunk`` bounds
    the ``nb × edges`` working array materialized at once.
    """
    engine = engine or SequentialEngine()
    if sources is None:
        sources = np.arange(graph.n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
    if batch_size is None:
        batch_size = max(min(graph.n, 32), 1)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    adj = engine.adjacency(graph)
    bfs = equal_weights(graph)
    w = graph.edge_weights()
    src, dst = graph.src, graph.dst
    scores = np.zeros(graph.m)

    for lo in range(0, len(sources), batch_size):
        batch = sources[lo : lo + batch_size]
        t_mat = mfbf(adj, batch, engine=engine, equal_weights=bfs)
        z_mat = mfbr(adj, t_mat, engine=engine)
        t_local = engine.gather(t_mat)
        z_local = engine.gather(z_mat)
        tau = t_local.to_dense("w")
        sigma = t_local.to_dense("m", fill=0.0)
        zeta = z_local.to_dense("p", fill=0.0)
        # Φ(s, v) = 1/σ̄(s,v) + ζ(s,v) on reachable pairs
        with np.errstate(divide="ignore"):
            phi = np.where(sigma > 0, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
        phi = phi + zeta

        nb = len(batch)
        step = max(1, edge_chunk // max(nb, 1))
        for e_lo in range(0, graph.m, step):
            e_hi = min(e_lo + step, graph.m)
            u = src[e_lo:e_hi]
            v = dst[e_lo:e_hi]
            we = w[e_lo:e_hi]
            # forward orientation u -> v
            tie = tau[:, u] + we[None, :] == tau[:, v]
            contrib = np.where(tie, sigma[:, u] * phi[:, v], 0.0)
            if not graph.directed:
                tie_b = tau[:, v] + we[None, :] == tau[:, u]
                contrib = contrib + np.where(
                    tie_b, sigma[:, v] * phi[:, u], 0.0
                )
            scores[e_lo:e_hi] += contrib.sum(axis=0)

    return EdgeBCResult(graph, scores)
