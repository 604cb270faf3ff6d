"""Widest (bottleneck) paths: the max-min "semiring" as a monoid + action.

A step toward the maximum-flow extensions the paper's conclusion invites:
the *widest path* from s to t maximizes the minimum edge capacity along the
path — the capacity of the best single augmenting path.  Algebraically it is
frontier relaxation over the max monoid with the min action

    relax(width, capacity) = min(width, capacity),   combine = max

which drops straight into the same machinery as MFBF.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.monoid import MaxMonoid
from repro.algebra.semiring import MAX_MIN
from repro.apps.sssp import _relax_to_fixpoint
from repro.core.engine import Engine, SequentialEngine
from repro.graphs.graph import Graph

__all__ = ["widest_path_widths"]

_MAX = MaxMonoid()
# max-min as a named semiring action so the kernel-dispatch tier
# recognizes it (relaxations may widen stored entries: not maskable)
_SPEC = MAX_MIN.matmul_spec(name="widest")


def widest_path_widths(
    graph: Graph,
    sources: np.ndarray | list[int],
    *,
    engine: Engine | None = None,
    max_iterations: int | None = None,
) -> np.ndarray:
    """Bottleneck capacity of the widest path from each source to every
    vertex (edge weights are the capacities).

    Returns a dense ``len(sources) × n`` array; unreachable entries are
    ``−inf``, and each source's own entry is ``+inf`` (the empty path has
    unbounded capacity).
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

    # the empty path has unbounded capacity
    seed = engine.matrix(
        nb, n, np.arange(nb, dtype=np.int64), sources, {"w": np.full(nb, np.inf)}, _MAX
    )
    # keep only strict improvements (wider bottlenecks)
    return _relax_to_fixpoint(
        engine, adj, seed, _SPEC, lambda pv, wv: pv["w"] > wv["w"], max_iterations
    )
