"""Algebraic single-source shortest paths: MFBF without multiplicities.

Frontier-driven Bellman-Ford over the tropical monoid — the distance half
of Algorithm 1, usable on its own when path counts are not needed (e.g. as
the relaxation core for routing or max-flow style applications).
"""

from __future__ import annotations

import numpy as np

from repro.algebra.monoid import MinMonoid
from repro.algebra.semiring import TROPICAL
from repro.core.engine import Engine, SequentialEngine
from repro.graphs.graph import Graph

__all__ = ["sssp_distances"]


def _relax_to_fixpoint(engine, adj, seed, spec, improves, max_iterations):
    """Frontier relaxation to a fixpoint: multiply the frontier by ``adj``
    under ``spec``, keep the products that strictly ``improves(product,
    state)`` the stored state, fold them in, repeat until none does.

    Returns the dense ``w`` field of the final state.  The frontier only
    overwrites or extends the state, which :meth:`SpMat.combine` serves by
    locating it — the state is never re-sorted.
    """
    state = frontier = seed
    for _ in range(max_iterations):
        if frontier.nnz == 0:
            return engine.gather(state).to_dense("w")
        product, _ = engine.spgemm(frontier, adj, spec)
        frontier = product.zip_filter(state, improves)
        state = state.combine(frontier)
    raise RuntimeError(
        f"{spec.name} relaxation did not converge within {max_iterations} "
        "iterations (shortest paths: a non-positive-weight cycle)"
    )

_MIN = MinMonoid()
# min-plus as a named semiring action so the kernel-dispatch tier
# recognizes it (Bellman-Ford relaxations may *improve* stored distances,
# so — unlike BFS — the product is deliberately not masked)
_SPEC = TROPICAL.matmul_spec(name="sssp")


def sssp_distances(
    graph: Graph,
    sources: np.ndarray | list[int],
    *,
    engine: Engine | None = None,
    max_iterations: int | None = None,
) -> np.ndarray:
    """Shortest-path distances from each source (weighted; positive weights).

    Returns a dense ``len(sources) × n`` float array with ``inf`` for
    unreachable vertices.
    """
    engine = engine or SequentialEngine()
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) == 0:
        raise ValueError("empty source list")
    adj = engine.adjacency(graph)
    n = graph.n
    nb = len(sources)
    if max_iterations is None:
        max_iterations = n + 1

    seed = engine.matrix(
        nb, n, np.arange(nb, dtype=np.int64), sources, {"w": np.zeros(nb)}, _MIN
    )
    # relaxations that strictly improve the tentative distance
    return _relax_to_fixpoint(
        engine, adj, seed, _SPEC, lambda pv, dv: pv["w"] < dv["w"], max_iterations
    )
