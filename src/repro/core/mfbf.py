"""Maximal Frontier Bellman-Ford (Algorithm 1 of the paper).

Computes, for a batch of ``nb`` starting vertices ``s``, the multpath matrix
``T`` with ``T(s, v) = (τ(s,v), σ̄(s,v))``: shortest-path distance and
multiplicity.  Each iteration relaxes *all* edges adjacent to vertices whose
path information changed in the previous iteration — the maximal frontier —
via one generalized sparse matrix multiplication ``T̃ •⟨⊕,f⟩ A`` with the
Bellman-Ford action ``f`` and the multpath monoid ``⊕``.

Implementation notes relative to the paper's pseudocode:

* Initialization starts from the diagonal ``T(s, s) = (0, 1)`` with the
  frontier equal to it, rather than from the adjacency row; iteration ``j``
  then produces exactly the minimal-weight paths of exactly ``j`` edges
  (the proof's ``ĥ_j``), at the cost of one extra (cheap, nb-nonzero)
  product.  Seeding both the diagonal *and* the adjacency row, as a literal
  reading of line 1 suggests, would double-count one-edge paths.
* The paper stores dead frontier entries as the explicit marker ``(∞, 0)``;
  here dead entries are simply *unstored* — ``(∞, 0)`` is the multpath
  identity, and canonical :class:`SpMat` never stores identities.
* When every edge weight is equal (an unweighted graph, or one distinct
  weight), iteration ``j`` is a BFS level: a vertex's first ``j``-edge
  paths are its shortest, so any product entry on a vertex already in T
  would lose to it.  The product is then ``BFS_LEVEL_SPEC``'s, masked by
  the complement of T's support — only pairs landing on unvisited vertices
  are formed — and is itself the new frontier, merged into T over disjoint
  supports (GraphBLAS BC's complemented-mask product and
  ``add_nointersect``).  Masking only
  drops pairs of other output keys, so every surviving entry sums the same
  terms in the same order: T is bit-identical to the Bellman-Ford
  iteration's (docs/performance_model.md §5).
"""

from __future__ import annotations

import numpy as np

from repro.algebra.multpath import MULTPATH
from repro.core.engine import Engine, SequentialEngine
from repro.core.specs import BELLMAN_FORD_SPEC, BFS_LEVEL_SPEC
from repro.core.stats import BatchStats, IterationStats

__all__ = ["mfbf", "equal_weights"]


def equal_weights(graph) -> bool:
    """Whether every edge of ``graph`` weighs the same: MFBF's iterations
    are then BFS levels (``mfbf(..., equal_weights=True)``)."""
    w = graph.weight
    return w is None or not len(w) or bool((w == w[0]).all())


def mfbf(
    adj,
    sources: np.ndarray,
    *,
    engine: Engine | None = None,
    stats: BatchStats | None = None,
    max_iterations: int | None = None,
    equal_weights: bool = False,
):
    """Run MFBF from ``sources`` over adjacency matrix ``adj``.

    Parameters
    ----------
    adj:
        ``n × n`` adjacency matrix in the engine's representation (tropical
        weight monoid; unstored entries mean "no edge").
    sources:
        The batch's starting vertices (length ``nb``).
    engine:
        Execution engine; defaults to :class:`SequentialEngine`.
    stats:
        Optional :class:`BatchStats` to append per-iteration records to.
    max_iterations:
        Safety bound; defaults to ``n`` (no shortest path has ≥ n edges, so
        hitting the bound indicates a non-positive-weight cycle or a bug).
    equal_weights:
        ``adj``'s stored weights are all equal (:func:`equal_weights` of its
        graph): run each iteration as a BFS level, its product masked by
        the complement of T.  Same T, bit for bit.

    Returns
    -------
    T:
        ``nb × n`` multpath matrix with ``T(s, v) = (τ(s,v), σ̄(s,v))``;
        unreachable pairs are unstored (≡ (∞, 0)).
    """
    engine = engine or SequentialEngine()
    sources = np.asarray(sources, dtype=np.int64)
    nb = len(sources)
    n = adj.nrows
    if nb == 0:
        raise ValueError("empty source batch")
    if sources.min() < 0 or sources.max() >= n:
        raise ValueError("source vertex out of range")
    if max_iterations is None:
        max_iterations = n + 1

    # T(s, s) = (0, 1): the empty path.  The frontier starts equal to T.
    t_mat = engine.matrix(
        nb,
        n,
        np.arange(nb, dtype=np.int64),
        sources,
        MULTPATH.make(np.zeros(nb), np.ones(nb)),
        MULTPATH,
    )
    frontier = t_mat

    for _ in range(max_iterations):
        if frontier.nnz == 0:
            return t_mat
        # Explore nodes adjacent to the frontier (line 4); with equal
        # weights, only the unvisited ones.
        if equal_weights:
            product, ops = engine.spgemm(frontier, adj, BFS_LEVEL_SPEC, mask=t_mat)
        else:
            product, ops = engine.spgemm(frontier, adj, BELLMAN_FORD_SPEC)
        if stats is not None:
            stats.iterations.append(
                IterationStats("mfbf", frontier.nnz, product.nnz, ops)
            )
        # Accumulate multiplicities (line 5): min weight wins, ties sum.
        t_mat = t_mat.combine(product)
        # New frontier (line 6): product entries that survived accumulation —
        # weight equal to the updated optimum.  (t.w ≤ p.w always holds.)
        # A masked product is new vertices only: all of it survives.
        frontier = product if equal_weights else product.zip_filter(
            t_mat, lambda pv, tv: pv["w"] <= tv["w"]
        )
    raise RuntimeError(
        f"MFBF did not converge within {max_iterations} iterations; "
        "the graph has a non-positive-weight cycle or inconsistent weights"
    )
