"""A literal Algorithm 2 for the bit-identity tests of :func:`repro.core.mfbr`.

This is MFBr as it stood before its products were narrowed to the pairs
that can count: the successor count joins all of T against Aᵀ and keeps the
candidates that tie with τ afterwards, and every back-propagation product
is masked by Z's whole support, its non-tying runs dropped by the filter.
``mfbr`` must return the same Z, bit for bit, in the same number of
iterations, while forming no more pairs.

Beside Z it returns the op counts the narrowed algorithm must reproduce
exactly: the successor count's tying pairs (the sum of the successor
counts) and, per back-propagation product, the pairs that land on a vertex
whose counter is still positive when the product is formed.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.centpath import CENTPATH
from repro.core.engine import SequentialEngine
from repro.core.specs import BRANDES_SPEC

__all__ = ["mfbr_reference"]


def mfbr_reference(adj, t_mat, engine=None):
    """``(Z, ops, pending_ops)`` of Algorithm 2 on ``engine``'s matrices
    (node-local ones by default).

    ``ops`` lists every product's pairs as formed here; ``pending_ops``
    lists what the narrowed algorithm forms in the same products: the
    tying pairs of the successor count, then each back-propagation
    product's pairs on pending vertices.
    """
    engine = engine or SequentialEngine()
    n = adj.nrows
    adj_t = adj.transpose()
    seed = t_mat.map(
        lambda tv: {
            "w": tv["w"],
            "p": np.zeros(len(tv["w"])),
            "c": np.ones(len(tv["w"]), dtype=np.int64),
        },
        monoid=CENTPATH,
    )
    cand, ops0 = engine.spgemm(seed, adj_t, BRANDES_SPEC, mask=t_mat)
    nsucc = cand.zip_filter(t_mat, lambda cv, tv: cv["w"] == tv["w"])
    z_mat = seed.zip_map(
        nsucc,
        lambda zv, sv: {"w": zv["w"], "p": zv["p"], "c": sv["c"]},
        monoid=CENTPATH,
    )
    ops, pending_ops = [ops0], [int(engine.gather(nsucc).vals["c"].sum())]

    def fire(ready):
        return ready.zip_map(
            t_mat,
            lambda zv, tv: {
                "w": zv["w"],
                "p": zv["p"] + 1.0 / tv["m"],
                "c": np.full(len(zv["w"]), -1, dtype=np.int64),
            },
            monoid=CENTPATH,
        )

    frontier = fire(z_mat.filter(lambda zv: zv["c"] == 0))
    for _ in range(n + 1):
        if frontier.nnz == 0:
            z_mat = z_mat.map(
                lambda zv: {
                    "w": zv["w"], "p": zv["p"], "c": np.where(zv["c"] == 0, -1, zv["c"]),
                }
            )
            return z_mat, ops, pending_ops
        product, n_ops = engine.spgemm(frontier, adj_t, BRANDES_SPEC, mask=z_mat)
        pending = z_mat.filter(lambda zv: zv["c"] > 0)
        ops.append(n_ops)
        pending_ops.append(
            engine.spgemm(frontier, adj_t, BRANDES_SPEC, mask=pending)[1]
        )
        valid = product.zip_filter(z_mat, lambda pv, zv: pv["w"] == zv["w"])
        z_mat = z_mat.combine(valid)
        ready = valid.zip_map(z_mat, lambda vv, zv: zv).filter(lambda zv: zv["c"] == 0)
        frontier = fire(ready)
    raise RuntimeError("MFBr did not converge")
