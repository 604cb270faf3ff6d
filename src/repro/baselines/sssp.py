"""Single-source shortest paths with multiplicity counting.

These kernels return ``(dist, sigma)`` — the shortest distance and the
number of distinct shortest paths from a source to every vertex — i.e. one
row of MFBF's output matrix ``T``.  They serve as independent oracles for
the MFBF property tests and as the inner loop of the reference Brandes
implementation.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.algebra.monoid import segments, stable_key_sort
from repro.graphs.graph import Graph

__all__ = ["dijkstra_sssp", "bellman_ford_sssp", "bfs_sssp"]


def bfs_sssp(graph: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances/multiplicities for unweighted graphs (level-synchronous,
    vectorized per level)."""
    adj = graph.adjacency_scipy()
    n = graph.n
    dist = np.full(n, np.inf)
    sigma = np.zeros(n)
    dist[source] = 0.0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    level = 0.0
    while len(frontier):
        level += 1.0
        # Gather all neighbours of the frontier with path-count weights.
        indptr, indices = adj.indptr, adj.indices
        reps = indptr[frontier + 1] - indptr[frontier]
        src_rep = np.repeat(frontier, reps)
        offs = np.arange(len(src_rep)) - np.repeat(np.cumsum(reps) - reps, reps)
        nbrs = indices[indptr[src_rep] + offs]
        counts = np.bincount(nbrs, weights=sigma[src_rep], minlength=n)
        new_mask = np.isinf(dist) & (counts > 0)
        eq_mask = (dist == level) & (counts > 0)
        sigma[new_mask] += counts[new_mask]
        sigma[eq_mask] += 0.0  # new vertices only: BFS visits each level once
        dist[new_mask] = level
        frontier = np.nonzero(new_mask)[0]
    return dist, sigma


def dijkstra_sssp(graph: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra distances/multiplicities (lazy-deletion binary heap).

    Handles weighted graphs with positive weights; multiplicities accumulate
    on distance ties with exact float comparison, which is safe here because
    all test weights are small integers (sums stay exactly representable).
    """
    adj = graph.adjacency_scipy()
    n = graph.n
    dist = np.full(n, np.inf)
    sigma = np.zeros(n)
    done = np.zeros(n, dtype=bool)
    dist[source] = 0.0
    sigma[source] = 1.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for pos in range(indptr[u], indptr[u + 1]):
            v = indices[pos]
            nd = d + data[pos]
            if nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v]:
                sigma[v] += sigma[u]
    return dist, sigma


def bellman_ford_sssp(
    graph: Graph, source: int, max_iterations: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Frontier-driven Bellman-Ford with multiplicities.

    The scalar (non-algebraic) version of MFBF for a single source — an
    independent implementation used to cross-check the matrix formulation.
    """
    adj = graph.adjacency_scipy()
    n = graph.n
    if max_iterations is None:
        max_iterations = n + 1
    dist = np.full(n, np.inf)
    sigma = np.zeros(n)
    dist[source] = 0.0
    sigma[source] = 1.0
    # frontier entries carry (vertex, weight, multiplicity of exactly-j-edge
    # minimal paths)
    f_vtx = np.array([source], dtype=np.int64)
    f_w = np.array([0.0])
    f_m = np.array([1.0])
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for _ in range(max_iterations):
        if len(f_vtx) == 0:
            return dist, sigma
        reps = indptr[f_vtx + 1] - indptr[f_vtx]
        src_rep = np.repeat(np.arange(len(f_vtx)), reps)
        offs = np.arange(len(src_rep)) - np.repeat(np.cumsum(reps) - reps, reps)
        pos = indptr[f_vtx[src_rep]] + offs
        cand_v = indices[pos]
        cand_w = f_w[src_rep] + data[pos]
        cand_m = f_m[src_rep]
        # reduce candidates per destination: min weight, sum multiplicities
        cand_v, order = stable_key_sort(cand_v)
        cand_w, cand_m = cand_w[order], cand_m[order]
        starts, seg = segments(cand_v)
        uniq = cand_v[starts]
        best_w = np.minimum.reduceat(cand_w, starts)
        tied = cand_w == best_w[seg]
        best_m = np.add.reduceat(np.where(tied, cand_m, 0.0), starts)
        # merge into dist/sigma; survivors form the next frontier
        better = best_w < dist[uniq]
        equal = best_w == dist[uniq]
        sigma[uniq[better]] = best_m[better]
        dist[uniq[better]] = best_w[better]
        sigma[uniq[equal]] += best_m[equal]
        keep = better | equal
        f_vtx, f_w, f_m = uniq[keep], best_w[keep], best_m[keep]
    raise RuntimeError("Bellman-Ford did not converge: non-positive cycle?")
