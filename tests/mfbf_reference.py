"""A literal Algorithm 1 for the bit-identity tests of :func:`repro.core.mfbf`.

This is MFBF as the paper states it: every iteration relaxes every edge
next to the frontier (the unmasked ``BELLMAN_FORD_SPEC`` product), folds
the product into T, and keeps as the next frontier the product entries
that did not lose to the updated T (``zip_filter``).  ``mfbf`` must return
the same T, bit for bit, with the same frontiers, in the same number of
iterations, while forming no more pairs.

Beside T it returns what the narrowed algorithm must reproduce exactly:
each iteration's frontier size, and each product's pairs whose weight does
not lose to T as it stood when the product was formed (``w ≤ T_old`` at the
pair's key, any weight on a key T does not hold), counted pair by pair here.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.multpath import MULTPATH
from repro.core.engine import SequentialEngine
from repro.core.specs import BELLMAN_FORD_SPEC

__all__ = ["mfbf_reference"]


def _bounded_pairs(frontier, adj, t_mat) -> int:
    """The pairs of ``frontier • adj`` (node-local matrices) whose weight
    is ``≤`` T's at their key, or whose key T does not hold."""
    t_w = dict(zip(zip(t_mat.rows.tolist(), t_mat.cols.tolist()), t_mat.vals["w"]))
    ptr = adj.row_pointer()
    count = 0
    for i, k, fw in zip(frontier.rows.tolist(), frontier.cols.tolist(), frontier.vals["w"]):
        for r in range(ptr[k], ptr[k + 1]):
            count += bool(fw + adj.vals["w"][r] <= t_w.get((i, int(adj.cols[r])), np.inf))
    return count


def mfbf_reference(adj, sources, engine=None):
    """``(T, frontiers, ops, bounded_ops)`` of Algorithm 1 on ``engine``'s
    matrices (node-local ones by default).

    ``frontiers`` lists each product's frontier size, so its length is the
    iteration count; ``ops`` lists every product's pairs as formed here, and
    ``bounded_ops`` the pairs of the same product that do not lose to T.
    """
    engine = engine or SequentialEngine()
    sources = np.asarray(sources, dtype=np.int64)
    nb, n = len(sources), adj.nrows
    t_mat = engine.matrix(
        nb, n, np.arange(nb, dtype=np.int64), sources,
        MULTPATH.make(np.zeros(nb), np.ones(nb)), MULTPATH,
    )
    frontier = t_mat
    local_adj = engine.gather(adj)
    frontiers, ops, bounded_ops = [], [], []
    for _ in range(n + 1):
        if frontier.nnz == 0:
            return t_mat, frontiers, ops, bounded_ops
        product, n_ops = engine.spgemm(frontier, adj, BELLMAN_FORD_SPEC)
        frontiers.append(frontier.nnz)
        ops.append(n_ops)
        bounded_ops.append(
            _bounded_pairs(engine.gather(frontier), local_adj, engine.gather(t_mat))
        )
        t_mat = t_mat.combine(product)
        frontier = product.zip_filter(t_mat, lambda pv, tv: pv["w"] <= tv["w"])
    raise RuntimeError("MFBF did not converge")
