"""Connected components via algebraic min-label propagation.

Every vertex starts labeled with its own id; each round propagates the
minimum label across edges (a generalized product over the min monoid with
the "take the neighbour's label" action) until no label changes.  The number
of rounds is bounded by the largest component's diameter.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.monoid import MinMonoid
from repro.algebra.semiring import Semiring, left_project
from repro.apps.sssp import _relax_to_fixpoint
from repro.core.engine import Engine, SequentialEngine
from repro.graphs.graph import Graph

__all__ = ["connected_components"]

_MIN = MinMonoid()
#: action: a frontier label crosses an edge unchanged — the (min, left)
#: semiring, named ``cc`` for its phase label and for replay
_SPEC = Semiring(
    add_monoid=_MIN, multiply=left_project, name="cc"
).matmul_spec()


def connected_components(
    graph: Graph,
    *,
    engine: Engine | None = None,
) -> np.ndarray:
    """Component labels (the smallest vertex id in each component).

    Directed graphs are treated as their underlying undirected graph
    (weak components).
    """
    engine = engine or SequentialEngine()
    n = graph.n
    # weak connectivity reads the symmetrized graph; the view is cached, so
    # an engine pins its adjacency once however often this is called
    adj = engine.adjacency(graph.undirected())

    ids = np.arange(n, dtype=np.int64)
    labels = engine.matrix(
        1,
        n,
        np.zeros(n, dtype=np.int64),
        ids,
        {"w": ids.astype(np.float64)},
        _MIN,
    )
    # keep only strict improvements (smaller labels); isolated vertices keep
    # their own id (their row is its label)
    out = _relax_to_fixpoint(
        engine, adj, labels, _SPEC, lambda pv, lv: pv["w"] < lv["w"], n + 1
    )
    return out[0].astype(np.int64)
