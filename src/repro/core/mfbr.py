"""Maximal Frontier Brandes (Algorithm 2 of the paper).

Given the multpath matrix ``T`` from MFBF, computes the centpath matrix
``Z`` with ``Z(s, v).p = ζ(s, v) = δ(s, v)/σ̄(s, v)`` — the partial
centrality *factor* of [Sariyüce et al.] that the paper works with because it
makes the algebra (and the correctness proof) simpler than Brandes' δ.

Back-propagation walks the shortest-path DAG from its leaves toward each
source.  A vertex joins the frontier exactly when *all* of its DAG successors
have propagated their finalized factor; the centpath counter implements this
gate:

1. counters are initialized to the successor count ``nsucc(s, v)``: the
   edges ``(v, u)`` with ``τ(s,u) − A(v,u) = τ(s,v)``;
2. every frontier entry carries counter ``−1``; valid contributions (weight
   tie with ``τ(s,v)``) therefore decrement the receiver's counter while
   accumulating ``1/σ̄(s,u) + ζ(s,u)`` into its partial factor;
3. a counter hitting 0 fires the vertex into the next frontier with value
   ``(τ(s,v), Z(s,v).p + 1/σ̄(s,v), −1)`` (the paper's lines 7–11).  It is
   looked for only among the entries a contribution just touched — an
   untouched 0 has fired already — and all fired counters are parked at
   ``−1`` in one pass on return.

Against the paper's pseudocode, two products form fewer pairs, with the
same Z bit for bit (docs/performance_model.md §5):

* Lines 1–2 count successors with one product over the transposed
  adjacency, whose max-weight tie-count does the counting.  The paper
  forms every candidate and keeps those tying with τ; here the product runs
  under a tie mask (``SUCCESSOR_SPEC``): only the pairs whose weight equals
  T's τ are formed, so leaves and non-DAG edges cost nothing.
* Line 6's back-propagation product is masked to the *pending* vertices,
  those whose counter is still positive: a vertex that has fired, or fires
  now, has received its last tying contribution, so nothing landing there
  could count.  The pending set is filtered from Z once and then loses each
  iteration's fired vertices by a difference against the new frontier.

As in :mod:`repro.core.mfbf`, "empty" centpath entries are simply unstored
(the centpath identity is ``(−∞, 0, 0)``; see :mod:`repro.algebra.centpath`
for why the paper's ``(∞, 0, 0)`` marker is not a usable monoid identity).
"""

from __future__ import annotations

import numpy as np

from repro.algebra.centpath import CENTPATH
from repro.core.engine import Engine, SequentialEngine
from repro.core.specs import BRANDES_SPEC, SUCCESSOR_SPEC
from repro.core.stats import BatchStats, IterationStats

__all__ = ["mfbr"]


def mfbr(
    adj,
    t_mat,
    *,
    engine: Engine | None = None,
    stats: BatchStats | None = None,
    max_iterations: int | None = None,
):
    """Run MFBr over adjacency ``adj`` and MFBF output ``t_mat``.

    Parameters
    ----------
    adj:
        ``n × n`` adjacency matrix (engine representation).
    t_mat:
        ``nb × n`` multpath matrix of finalized distances/multiplicities.
    engine, stats, max_iterations:
        As in :func:`repro.core.mfbf.mfbf`.

    Returns
    -------
    Z:
        ``nb × n`` centpath matrix with ``Z(s, v).p = ζ(s, v)`` for every
        reachable pair; fired entries carry counter ``−1``.
    """
    engine = engine or SequentialEngine()
    n = adj.nrows
    if max_iterations is None:
        max_iterations = n + 1
    adj_t = adj.transpose()

    # --- initialize counters: one product counts DAG successors (lines 1-2).
    seed = t_mat.map(
        lambda tv: {"w": tv["w"], "p": np.zeros(len(tv["w"])), "c": np.ones(len(tv["w"]), dtype=np.int64)},
        monoid=CENTPATH,
    )
    # Only the pairs whose weight ties with τ(s, v) — the DAG edges — are
    # formed: their tie-count is nsucc.  Leaves and unreachable vertices get
    # no entry.
    nsucc, ops0 = engine.spgemm(seed, adj_t, SUCCESSOR_SPEC, mask=t_mat)
    if stats is not None:
        stats.iterations.append(IterationStats("mfbr", seed.nnz, nsucc.nnz, ops0))

    # Z(s,v) = (τ, 0, nsucc) on the reachable support: reuse ``seed``'s
    # (τ, 0, 1) entries and overwrite the counter with the aligned successor
    # count (leaves have no nsucc entry, so they get the identity count 0).
    z_mat = seed.zip_map(
        nsucc,
        lambda zv, sv: {"w": zv["w"], "p": zv["p"], "c": sv["c"]},
        monoid=CENTPATH,
    )
    del seed, nsucc

    # --- initial frontier: DAG leaves, value (τ, 1/σ̄, −1) (lines 3-4).
    def fire(ready, t_ref):
        return ready.zip_map(
            t_ref,
            lambda zv, tv: {
                "w": zv["w"],
                "p": zv["p"] + 1.0 / tv["m"],
                "c": np.full(len(zv["w"]), -1, dtype=np.int64),
            },
            monoid=CENTPATH,
        )

    # The vertices still waiting on a successor: the only ones a
    # contribution can tie with (a vertex fires once, after its last one).
    pending = z_mat.filter(lambda zv: zv["c"] > 0)
    frontier = fire(z_mat.filter(lambda zv: zv["c"] == 0), t_mat)
    for _ in range(max_iterations):
        if frontier.nnz == 0:
            # Fired counters are final and, by Lemma 4.2, received nothing
            # after firing: one pass parks them all at −1.
            return z_mat.map(
                lambda zv: {"w": zv["w"], "p": zv["p"], "c": np.where(zv["c"] == 0, -1, zv["c"])}
            )
        # Back-propagate the frontier of centralities (line 6), masked to
        # the pending vertices: a contribution anywhere else cannot tie.
        product, ops = engine.spgemm(frontier, adj_t, BRANDES_SPEC, mask=pending)
        if stats is not None:
            stats.iterations.append(
                IterationStats("mfbr", frontier.nnz, product.nnz, ops)
            )
        # Valid contributions tie with τ(s, v) (pending keeps Z's weights);
        # others are discarded — the max-weight selection of ⊗ played
        # against the finalized weights.
        valid = product.zip_filter(pending, lambda pv, zv: pv["w"] == zv["w"])
        del product
        # Accumulate centralities and decrement counters (line 8): the
        # centpath ⊗ sums p and c on the weight tie.
        z_mat = z_mat.combine(valid)
        # New frontier (lines 9-11): a counter can only have reached zero
        # where a contribution just landed, so only those entries are read.
        ready = valid.zip_map(z_mat, lambda vv, zv: zv).filter(lambda zv: zv["c"] == 0)
        del valid
        frontier = fire(ready, t_mat)
        del ready
        # the fired leave the pending set (the frontier's counters are −1)
        pending = pending.zip_filter(frontier, lambda pv, fv: fv["c"] == 0)
    raise RuntimeError(
        f"MFBr did not converge within {max_iterations} iterations; "
        "the shortest-path DAG counters are inconsistent (corrupt T input?)"
    )
