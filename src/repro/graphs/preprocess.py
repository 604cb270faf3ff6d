"""Graph preprocessing used before running BC.

The paper's §7.1: "Our CTF-MFBC code preprocessed all graphs to remove
completely disconnected vertices", and §5.2's load-balance assumption relies
on randomized vertex order.  Both transformations live here, along with the
largest-connected-component extraction used to build well-posed test cases.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import as_rng

__all__ = [
    "remove_isolated_vertices",
    "largest_connected_component",
    "randomize_vertex_order",
    "relabel",
]


def relabel(g: Graph, new_of_old: np.ndarray, n_new: int | None = None) -> Graph:
    """Relabel vertices by the mapping ``old id → new_of_old[old id]``.

    Entries mapped to ``-1`` are dropped (with their edges).
    """
    new_of_old = np.asarray(new_of_old, dtype=np.int64)
    if len(new_of_old) != g.n:
        raise ValueError("mapping length must equal vertex count")
    if n_new is None:
        n_new = int(new_of_old.max()) + 1 if len(new_of_old) else 0
    ns, nd = new_of_old[g.src], new_of_old[g.dst]
    keep = (ns >= 0) & (nd >= 0)
    w = g.weight[keep] if g.weight is not None else None
    return Graph(
        max(n_new, 1), ns[keep], nd[keep], w, directed=g.directed, name=g.name
    )


def remove_isolated_vertices(g: Graph) -> Graph:
    """Drop vertices with no incident edges, compacting labels."""
    touched = np.zeros(g.n, dtype=bool)
    touched[g.src] = True
    touched[g.dst] = True
    if touched.all():
        return g
    new_of_old = np.full(g.n, -1, dtype=np.int64)
    new_of_old[touched] = np.arange(int(touched.sum()))
    return relabel(g, new_of_old, int(touched.sum()))


def largest_connected_component(g: Graph) -> Graph:
    """Restrict to the largest (weakly) connected component."""
    # off the start-up path: see Graph.effective_diameter
    from scipy.sparse import csgraph

    adj = g.adjacency_scipy()
    ncomp, labels = csgraph.connected_components(
        adj, directed=g.directed, connection="weak"
    )
    if ncomp <= 1:
        return g
    sizes = np.bincount(labels, minlength=ncomp)
    big = int(np.argmax(sizes))
    new_of_old = np.full(g.n, -1, dtype=np.int64)
    members = labels == big
    new_of_old[members] = np.arange(int(members.sum()))
    return relabel(g, new_of_old, int(members.sum()))


def randomize_vertex_order(
    g: Graph, seed: int | np.random.Generator | None = 0
) -> Graph:
    """Apply a uniformly random vertex relabeling.

    Satisfies the balls-into-bins load-balance assumption of §5.2: after
    randomization every contiguous block of an adjacency matrix holds a
    number of nonzeros proportional to its area, with high probability.
    """
    rng = as_rng(seed)
    return relabel(g, rng.permutation(g.n).astype(np.int64), g.n)
