"""CombBLAS-style algebraic betweenness centrality.

This is the comparison target of §7: the Combinatorial BLAS library's BC
(Buluç & Gilbert) computes batched Brandes over *unweighted* graphs using
classical ``(+, ×)`` semiring SpGEMM:

* forward phase — level-synchronous batch BFS: the fringe is multiplied by
  the adjacency matrix and masked to unvisited vertices, accumulating the
  shortest-path counts ``σ̄`` level by level;
* backward phase — for each BFS level from deepest to shallowest, two
  elementwise products and one SpGEMM with ``Aᵀ`` push the Brandes
  dependency update ``δ(s,v) += σ̄(s,v)/σ̄(s,w) · (1 + δ(s,w))`` one level up.

Differences from MFBC that the paper's evaluation exercises:

* unweighted graphs only (weighted input raises);
* one frontier per BFS *level* — vertices enter exactly one fringe, so there
  is no counter machinery;
* the backward phase replays stored levels (requiring all levels to be kept,
  where MFBr recomputes structure on the fly — the §7.4 discussion of the
  patents graph);
* when run distributed, CombBLAS only supports square 2D process grids —
  pass an engine configured with a square-2D algorithm policy to reproduce
  its communication profile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

# the one (+, ×) spec object: check.replay resolves the name "real" to it
from repro.apps.triangles import _SPEC
from repro.core.engine import Engine, SequentialEngine
from repro.core.stats import BatchStats, IterationStats, MFBCStats
from repro.graphs.graph import Graph
from repro.obs import api as obs

__all__ = ["combblas_bc", "CombBLASResult"]

#: the forward sweep's (+, ×) operator under a complemented mask
_FORWARD = replace(_SPEC, name="combblas-forward", mask_rule="complement")


@dataclass
class CombBLASResult:
    """Scores plus the counters the benchmarks report.

    ``stats`` has the shape of :attr:`MFBCResult.stats` — one
    :class:`BatchStats` per batch, one :class:`IterationStats` per product —
    so :func:`~repro.analysis.perfmodel.model_run` prices both algorithms.
    """

    scores: np.ndarray
    batch_size: int
    elapsed_seconds: float
    stats: MFBCStats = field(default_factory=MFBCStats)
    levels_per_batch: list[int] = field(default_factory=list)

    @property
    def matmuls(self) -> int:
        return self.stats.total_multiplications

    @property
    def ops(self) -> int:
        return self.stats.total_ops

    def teps(self, graph: Graph) -> float:
        """Edge traversals per second, same convention as MFBC (§7.1)."""
        traversals = self.stats.sources_processed * graph.nnz_adjacency
        return traversals / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0


def combblas_bc(
    graph: Graph,
    batch_size: int | None = None,
    *,
    engine: Engine | None = None,
    sources: np.ndarray | None = None,
    max_batches: int | None = None,
) -> CombBLASResult:
    """Betweenness centrality via CombBLAS-style batched algebraic Brandes.

    Raises :class:`ValueError` on weighted graphs — CombBLAS BC is a BFS
    algorithm (this restriction is itself one of the paper's points: MFBC
    generalizes to weights, CombBLAS does not).
    """
    if graph.weighted:
        raise ValueError(
            "CombBLAS-style BC supports unweighted graphs only; "
            "use repro.core.mfbc for weighted graphs"
        )
    engine = engine or SequentialEngine()
    if sources is None:
        sources = np.arange(graph.n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
    if batch_size is None:
        batch_size = min(max(graph.n // 8, 1), 512)
    adj = engine.adjacency(graph)
    adj_t = adj.transpose()
    n = graph.n
    scores = np.zeros(n)
    result = CombBLASResult(
        scores=scores, batch_size=batch_size, elapsed_seconds=0.0
    )
    t0 = time.perf_counter()

    with obs.span(
        "combblas", cat="run", n=n, m=graph.nnz_adjacency, batch_size=batch_size
    ):
        nbatches = 0
        for lo in range(0, len(sources), batch_size):
            batch = sources[lo : lo + batch_size]
            result.stats.batches.append(BatchStats(sources=len(batch)))
            with obs.span("batch", cat="batch", index=nbatches, sources=len(batch)):
                _one_batch(engine, adj, adj_t, batch, n, scores, result)
            nbatches += 1
            if max_batches is not None and nbatches >= max_batches:
                break
    result.elapsed_seconds = time.perf_counter() - t0
    return result


def _one_batch(engine, adj, adj_t, batch, n, scores, result) -> None:
    nb = len(batch)
    plus = _SPEC.monoid
    iterations = result.stats.batches[-1].iterations

    # nsp(s, s) = 1: one empty path from each source to itself.
    nsp = engine.matrix(
        nb,
        n,
        np.arange(nb, dtype=np.int64),
        np.asarray(batch, dtype=np.int64),
        {"w": np.ones(nb)},
        plus,
    )
    # The depth-0 "level" is the sources themselves.
    levels = [nsp]
    fringe = nsp

    # ---- forward: batched BFS accumulating path counts per level.
    with obs.span("forward", cat="phase") as fwd:
        while True:
            # Complemented mask: only unvisited vertices (no nsp entry yet —
            # every stored count is positive) are expanded, so the settled
            # part of the frontier never even forms its products.  This is
            # the ``mxmm_msa_cmask`` idiom of GraphBLAS BC.
            product, ops = engine.spgemm(fringe, adj, _FORWARD, mask=nsp)
            iterations.append(
                IterationStats(_SPEC.name, fringe.nnz, product.nnz, ops)
            )
            fringe = product
            if fringe.nnz == 0:
                break
            nsp = nsp.combine(fringe)
            levels.append(fringe)
        fwd.set(levels=len(levels) - 1)
    result.levels_per_batch.append(len(levels) - 1)

    # ---- backward: replay levels from deepest to depth 1.
    # bcu(s, w) carries (1 + δ(s, w)); implicitly 1 where unstored, so we
    # store only the δ part and add the 1 when forming the update.
    with obs.span("backward", cat="phase"):
        delta = None  # lazily created sparse accumulator
        for d in range(len(levels) - 1, 0, -1):
            lvl = levels[d]
            # w1(s, w) = (1 + δ(s, w)) / σ̄(s, w) on level-d support.
            if delta is None:
                w1 = lvl.map(lambda lv: {"w": 1.0 / lv["w"]})
            else:
                w1 = lvl.zip_map(
                    delta, lambda lv, dv: {"w": (1.0 + dv["w"]) / lv["w"]}
                )
            # Only contributions landing on the previous level survive the
            # zip_map below (its support is levels[d-1]), so mask to it.
            back, ops = engine.spgemm(w1, adj_t, _SPEC, mask=levels[d - 1])
            iterations.append(IterationStats(_SPEC.name, w1.nnz, back.nnz, ops))
            # Keep contributions landing on the previous level, scale by
            # σ̄(s, v).
            upd = levels[d - 1].zip_map(back, lambda lv, bv: {"w": lv["w"] * bv["w"]})
            delta = upd if delta is None else delta.combine(upd)

        if delta is not None:
            local = engine.gather(delta)
            keep = local.cols != np.asarray(batch)[local.rows]
            scores += np.bincount(
                local.cols[keep], weights=local.vals["w"][keep], minlength=n
            )
