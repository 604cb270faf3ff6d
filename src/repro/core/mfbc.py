"""MFBC: the batched betweenness-centrality driver (Algorithm 3).

Processes the graph's vertices in batches of ``nb`` sources.  Each batch runs
MFBF (distances + multiplicities) then MFBr (partial centrality factors) and
accumulates ``λ(v) += Σ_s ζ(s,v) · σ̄(s,v)`` — the scaling by multiplicities
that converts partial centrality *factors* back into Brandes dependencies
``δ(s,v)`` (Theorem 4.3).

The batch size is the paper's time/storage tradeoff knob: MFBC performs
``⌈n/nb⌉`` batches while holding an ``n × nb`` working matrix; §5.3's
analysis picks ``nb = c·m/n`` to fill the available memory.

The batch boundary is also the fault-tolerance unit of the one batch
loop, :func:`run_batches` (``mfbc``'s and ``adaptive_bc``'s).  With
``checkpoint=`` the accumulated scores and source cursor are persisted
after every batch (see :mod:`repro.faults.checkpoint`), and
``resume_from=`` replays only the remaining batches — bit-identical to an
uninterrupted run, because partial sums accumulate in the same order
either way.

A batch that fails — an injected :class:`~repro.faults.FaultError`, or
:class:`~repro.machine.MemoryLimitExceeded` under a per-rank budget — is
answered by the one recovery ladder (:mod:`repro.core.ladder`): narrow the
sweep, never the batch (bit-identical; the overflowing allocation has
already evicted what the pressured rank could spill; the width that fit is
recorded beside the pinned adjacency, so later batches and later runs on
the same engine and graph start there), recover elastically
from a :class:`~repro.faults.RankFailure` when the machine has elastic
recovery on (the adjacency is pinned again from the graph on the
survivors and only the interrupted batch re-executes, asking the engine
for it afresh; never burns a retry), then retry up to ``retries`` times
with backoff charged to the machine's modeled clock.
:class:`~repro.faults.DeadlineExceeded` is terminal by design.  See
docs/robustness.md, "The recovery ladder".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.algebra.monoid import PlusMonoid
from repro.core.engine import Engine, SequentialEngine
from repro.core.ladder import RecoveryLadder
from repro.core.mfbf import equal_weights, mfbf
from repro.core.mfbr import mfbr
from repro.core.stats import BatchStats, MFBCStats
from repro.faults.checkpoint import (
    CheckpointState,
    CheckpointStore,
    resume_checkpoint,
    sources_checksum,
    stats_from_dicts,
    stats_to_dicts,
)
from repro.graphs.graph import Graph
from repro.obs import api as obs

__all__ = [
    "mfbc",
    "mfbc_per_source",
    "betweenness_centrality",
    "MFBCResult",
    "default_batch_size",
]

_PLUS = PlusMonoid()


@dataclass
class MFBCResult:
    """Centrality scores plus run metadata."""

    scores: np.ndarray
    stats: MFBCStats
    batch_size: int
    elapsed_seconds: float

    def teps(self, graph: Graph) -> float:
        """Edge traversals per second (the paper's §7.1 performance metric).

        For BC, every adjacency nonzero is traversed once per starting
        vertex, so traversals = (sources processed) × nnz(A).
        """
        traversals = self.stats.sources_processed * graph.nnz_adjacency
        return traversals / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0


def default_batch_size(graph: Graph) -> int:
    """The paper's batch size ``nb = c·m/n`` (§5.3 proof) with c = 1:
    ``max(average degree, 32)`` clamped to ``n``.

    A memory budget does not size the batch: the recovery ladder narrows
    the sweep to the width that fits and remembers it (see
    :mod:`repro.core.ladder`).
    """
    nnz = max(graph.nnz_adjacency, 1)
    return int(min(max(int(round(nnz / graph.n)), 32), graph.n))


def mfbc(
    graph: Graph,
    batch_size: int | None = None,
    *,
    engine: Engine | None = None,
    sources: np.ndarray | None = None,
    max_batches: int | None = None,
    checkpoint: "CheckpointStore | str | None" = None,
    resume_from: "CheckpointStore | str | None" = None,
    retries: int = 2,
) -> MFBCResult:
    """Compute betweenness centrality of every vertex of ``graph``.

    Parameters
    ----------
    graph:
        Input graph (directed or undirected, weighted or unweighted;
        weights must be positive).
    batch_size:
        Sources per batch (``nb``).  Defaults to :func:`default_batch_size`,
        or to the checkpoint's recorded batch size when resuming.  Under a
        memory budget the ladder sweeps a batch as narrower sub-sweeps; the
        batch, and the batch size a checkpoint records, stay the caller's.
    engine:
        Execution engine (sequential by default; pass a
        :class:`~repro.dist.engine.DistributedEngine` to run on the
        simulated machine).
    sources:
        Restrict to these starting vertices (approximate / partial BC, and
        the building block of the per-batch benchmarks).  Default: all
        vertices.
    max_batches:
        Stop after this many batches *in this call* (for sampled
        benchmarking); scores are then partial sums over the processed
        sources.
    checkpoint:
        A :class:`~repro.faults.CheckpointStore` or file path; the driver
        persists scores + cursor after every completed batch.
    resume_from:
        A store or path holding a previous run's checkpoint; the driver
        restores its scores and replays only the remaining batches.
        Incompatible checkpoints (different graph size, source list, or an
        explicit conflicting ``batch_size``) are rejected.  Pass the same
        store as both ``checkpoint=`` and ``resume_from=`` for
        resume-if-present semantics (an empty store starts from scratch).
    retries:
        How many times to re-run a batch that died with an injected
        :class:`~repro.faults.FaultError` before giving up.  Each retry
        first calls the engine's ``recover()`` hook (when it has one) and
        charges a decorrelated-jitter backoff to the modeled clock —
        restarts are not free: ``min(0.05·2^(retries-1), U[0.05, 3·prev])``
        seconds, the RNG keyed on the batch index, so every run is
        bit-reproducible.

    Returns
    -------
    :class:`MFBCResult` with ``scores[v] = λ(v) = Σ_{s,t} σ(s,t,v)/σ̄(s,t)``
    over ordered source/target pairs (the paper's convention; halve for the
    undirected unordered-pair convention).
    """
    engine = engine or SequentialEngine()
    sources = np.asarray(np.arange(graph.n) if sources is None else sources, dtype=np.int64)
    src_crc = sources_checksum(sources)

    def same_sources(state, _batch_size):
        if state.sources_crc != src_crc:
            raise ValueError("checkpoint was taken with a different source list")

    store, state, batch_size = resume_checkpoint(
        checkpoint,
        resume_from,
        n=graph.n,
        batch_size=batch_size,
        default_batch_size=default_batch_size(graph),
        site="mfbc",
        machine=getattr(engine, "machine", None),
        check=same_sources,
    )
    scores = np.zeros(graph.n, dtype=np.float64)
    stats = MFBCStats()
    lo = 0
    if state is not None:
        scores[:] = state.scores
        lo = int(state.cursor)
        stats.batches = stats_from_dicts(state.stats)

    def fold(_offset, _rows, cols, weights, sweep_stats):
        # ordered in-place accumulation: see _accumulate on why this keeps
        # scores bit-identical across sweep widths
        np.add.at(scores, cols, weights)
        stats.batches.append(sweep_stats)

    def plan(_index):
        # the cursor moves when the batch is planned: a batch that fails
        # ends the run before anything is saved
        nonlocal lo
        batch = sources[lo : lo + batch_size]
        lo += len(batch)
        return (batch, _sweeper(engine, graph, batch, fold)) if len(batch) else None

    def snapshot(index):
        return CheckpointState(
            cursor=lo, batch_index=index, batch_size=batch_size, n=graph.n,
            sources_crc=src_crc, scores=scores, stats=stats_to_dicts(stats.batches),
        )

    t0 = time.perf_counter()
    run_batches(
        engine, graph, "mfbc", plan, snapshot, store=store, max_batches=max_batches,
        index=0 if state is None else int(state.batch_index), retries=retries,
        batch_size=batch_size,
    )
    elapsed = time.perf_counter() - t0
    return MFBCResult(
        scores=scores, stats=stats, batch_size=batch_size, elapsed_seconds=elapsed
    )


def mfbc_per_source(
    graph: Graph,
    sources: np.ndarray,
    *,
    engine: Engine | None = None,
    ladder: RecoveryLadder | None = None,
) -> np.ndarray:
    """One k-wide MFBF + MFBr sweep, split into per-source score rows.

    This is the batch entry point the serving layer's coalescer uses: k
    concurrent single-source BC queries cost *one* sweep of width k instead
    of k sweeps.  Returns a dense ``len(sources) × n`` array whose row ``i``
    equals ``mfbc(graph, sources=[sources[i]]).scores`` bit-identically —
    rows of the multpath/centpath matrices never interact (every SpGEMM
    entry ``(i, j)`` depends only on row ``i`` of the frontier), so batching
    changes neither the values nor the accumulation order within a row.

    Parameters
    ----------
    graph:
        Input graph.
    sources:
        The coalesced batch of starting vertices (length ``k``).
    engine:
        Execution engine (sequential by default).  A distributed engine
        pins the graph's adjacency on first use, so repeated sweeps over one
        graph (the serving layer's) skip redistribution entirely.
    ladder:
        The caller's :class:`~repro.core.ladder.RecoveryLadder`, so the
        shrinks taken here carry its site and state (the serving layer
        passes its own).  Only ``shrink_batch`` applies — under a budget the
        sweep runs as narrower sub-sweeps; a fault propagates to the
        caller, who owns the batch and its retry budget.
    """
    engine = engine or SequentialEngine()
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) == 0:
        raise ValueError("empty source batch")
    ladder = ladder or RecoveryLadder(engine, graph, site="mfbc_per_source")
    with obs.span(
        "mfbc_per_source", cat="run", n=graph.n, sources=len(sources)
    ):
        with obs.span("adjacency", cat="phase"):
            engine.adjacency(graph)
        out, sweep = per_source_rows(engine, graph, sources)
        ladder.run(lambda _, width: sweep(width), width=len(sources))
    return out


def per_source_rows(engine, graph, sources):
    """``(out, sweep)``: per-source score rows of ``sources``, and the
    resumable ``sweep(width)`` (see :func:`_sweeper`) that fills them.

    Rows are independent, so filling ``out`` from sub-sweeps narrower than
    ``len(sources)`` (the shrink rung's relief) is bit-identical to one
    full-width sweep.  Ladder-free: callers run ``sweep`` under their own.
    """
    out = np.zeros((len(sources), graph.n), dtype=np.float64)

    def fold(offset, rows, cols, weights, _stats):
        # canonical SpMat stores each (row, col) once, so this is a plain
        # scatter — no accumulation-order concerns
        out[offset + rows, cols] = weights

    return out, _sweeper(engine, graph, sources, fold)


def run_batches(
    engine, graph, site, plan, snapshot, *, commit=None, store, index, max_batches,
    retries, **attrs,
) -> int:
    """The one checkpointed batch loop, ``mfbc``'s and ``adaptive_bc``'s.

    Under the ``site`` run span (with ``attrs``) it pins the adjacency and
    runs batches from ``index`` on, at most ``max_batches``: ``plan(index)``
    is a batch's ``(sources, sweep)`` (``None``: done), ``sweep(width)``
    runs in the ``batch`` span under the recovery ladder, ``commit(result,
    index + 1)`` folds its result in once, and a ``store`` saves
    ``snapshot(index + 1)``.  Returns the index after the last batch.
    """
    ladder = RecoveryLadder(engine, graph, site=site, retries=retries)
    stop = None if max_batches is None else index + max_batches
    with obs.span(site, cat="run", n=graph.n, m=graph.nnz_adjacency, **attrs):
        with obs.span("adjacency", cat="phase"):
            engine.adjacency(graph)
        while stop is None or index < stop:
            planned = plan(index)
            if planned is None:
                break
            batch, sweep = planned

            def attempt(retry, width):
                with obs.span(
                    "batch", cat="batch", index=index, sources=len(batch), attempt=retry
                ):
                    return sweep(width)

            result = ladder.run(attempt, index=index, width=len(batch))
            index += 1
            if commit is not None:
                commit(result, index)
            if store is not None:
                store.save(snapshot(index))
    return index


def _sweeper(engine, graph, sources, fold):
    """The one sweep body: ``sweep(width)`` runs MFBF → MFBr → accumulate
    over ``sources`` in ``width``-wide sub-sweeps, handing each one's
    ``(offset, rows, cols, weights, stats)`` to ``fold``.

    Progress outlives a failed attempt: a re-attempt (narrower, after the
    shrink rung) resumes after the sub-sweeps already folded, which are
    neither recomputed nor counted twice.  Each attempt asks the engine for
    ``graph``'s adjacency, so one after an elastic recovery reads the
    re-pinned matrix.  Each sub-sweep's T and Z are released before the
    next one starts, so a narrower sweep's peak is its own.
    """
    done = 0
    bfs = equal_weights(graph)

    def sweep(width):
        nonlocal done
        adj = engine.adjacency(graph)
        while done < len(sources):
            part = sources[done : done + width]
            stats = BatchStats(sources=len(part))
            with obs.span("mfbf", cat="phase"):
                t_mat = mfbf(adj, part, engine=engine, stats=stats, equal_weights=bfs)
            with obs.span("mfbr", cat="phase"):
                z_mat = mfbr(adj, t_mat, engine=engine, stats=stats)
            with obs.span("accumulate", cat="phase"):
                terms = _accumulate(engine, part, t_mat, z_mat)
            del t_mat, z_mat
            fold(done, *terms, stats)
            done += len(part)

    return sweep


def _accumulate(engine, batch, t_mat, z_mat) -> tuple[np.ndarray, ...]:
    """``λ(v) += Σ_s ζ(s,v) · σ̄(s,v)`` terms, excluding the source itself.

    The diagonal exclusion (pair ``v = s``) implements the convention
    ``σ(s, t, s) = 0``: a source accumulates back-propagated factors from its
    whole DAG, but its own centrality must not count paths it terminates.

    Returns the ``(batch row, target, weight)`` entry arrays in canonical
    (source-major, target-ascending) order *without* summing them: the
    driver folds them into the running scores with an ordered in-place
    ``np.add.at``, so the floating-point grouping per target is one strict
    left-to-right walk over sources — making the accumulated scores
    bit-identical for every sweep width (what lets the ladder's
    shrink-batch rung sweep narrower without changing the answer).
    """
    delta = z_mat.zip_map(
        t_mat,
        lambda zv, tv: {"w": zv["p"] * tv["m"]},
        monoid=_PLUS,
    )
    local = engine.gather(delta)
    keep = local.cols != batch[local.rows]
    return local.rows[keep], local.cols[keep], local.vals["w"][keep]


def betweenness_centrality(
    graph: Graph,
    *,
    batch_size: int | None = None,
    normalized: bool = False,
    engine: Engine | None = None,
) -> np.ndarray:
    """Convenience wrapper returning only the score vector.

    Raw scores follow the paper's ordered-pair convention (undirected graphs
    count each unordered pair twice).  With ``normalized=True`` scores are
    divided by ``(n−1)(n−2)``, the number of ordered source/target pairs a
    vertex can mediate — this lands exactly on networkx's normalization for
    both directed and undirected graphs, because networkx's halved raw score
    meets its halved denominator.
    """
    result = mfbc(graph, batch_size=batch_size, engine=engine)
    scores = result.scores
    if normalized:
        denom = (graph.n - 1) * (graph.n - 2)
        if denom > 0:
            scores = scores / denom
    return scores
