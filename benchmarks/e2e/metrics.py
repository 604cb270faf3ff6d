"""Metric catalogue of the end-to-end benchmark: names, units, directions, bounds.

Names are normative: later issues state their claim as "<metric> on
<workload>".  ``BENCHMARK.json`` at the repo root lists the subset the PR
driver gates on (``selftest.py`` checks the two agree); ``README.md`` has the
prose definitions.

Host time (``s``, ``ms``, ``1/s``) and simulated time (``sim_s``) never share
a metric.  *Exact* metrics come from the deterministic α-β ledger and must
repeat bit for bit at a fixed seed; their bound is a relative 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

EXACT_REL = 1e-9

BATCH = ("seq-ork", "dist16-rmat10", "ca16-rmat10", "dist4-wuniform11")
DIST = ("dist16-rmat10", "ca16-rmat10", "dist4-wuniform11")
SERVE = ("serve-waves", "serve-mixed")
ALL = BATCH + SERVE


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the baseline median it may worsen by
    workloads: tuple[str, ...]
    exact: bool = False


#: The 12 end-to-end metrics.  A workload that cannot produce a metric omits
#: it.  The wall bounds were sized from measured sets (README, "How the
#: bounds were sized").
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL),
    EndToEnd("wall_s", "s", "lower", 0.25, ALL),
    EndToEnd("mteps", "MTEPS", "higher", 0.25, BATCH),
    EndToEnd("modeled_s", "sim_s", "lower", EXACT_REL, DIST, exact=True),
    EndToEnd("modeled_comm_s", "sim_s", "lower", EXACT_REL, DIST, exact=True),
    EndToEnd("crit_words", "words", "lower", EXACT_REL, DIST, exact=True),
    EndToEnd("crit_msgs", "messages", "lower", EXACT_REL, DIST, exact=True),
    EndToEnd("peak_rank_words", "words", "lower", EXACT_REL, DIST, exact=True),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15, ALL),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25, SERVE),
    EndToEnd("query_p95_ms", "ms", "lower", 0.25, SERVE),
    EndToEnd("goodput_qps", "1/s", "higher", 0.25, SERVE),
)

#: What the PR driver gates on: it requires every listed metric from every
#: workload, so only the metrics all six workloads produce qualify.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.workloads == ALL)

#: Ledger traffic categories reported as ``machine.words.<category>``;
#: anything else the ledger names lands in ``machine.words.other``.
TRAFFIC_CATEGORIES = (
    "input", "gather", "redistribute", "replicate", "bcast", "reduce", "p2p",
)

_T, _C = ("s", "lower"), ("count", "lower")

#: Per-layer metrics (traced run): name -> (unit, better, what it should move).
#: Times are *self* times (span minus child spans) and, like the counts, are
#: per unit of work: one ``mfbc`` call (batch) or one 16-query wave (serve).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    # repro.sparse
    "sparse.spgemm_s": (*_T, "wall_s,mteps on seq-ork (~its whole share); <=~20% on dist16/ca16"),
    "sparse.spgemm_calls": (*_C, "wall_s on dist16-rmat10, ca16-rmat10 (many tiny products)"),
    "sparse.spgemm_ops": (*_C, "deterministic; modeled_s via compute_ops"),
    "sparse.kernel_mops": ("Mops/s", "higher", "wall_s,mteps on seq-ork"),
    "sparse.spmat_build_s": (*_T, "wall_s on dist16-rmat10, ca16-rmat10, dist4-wuniform11; query_p50_ms on serve-waves; none on seq-ork"),
    "sparse.spmat_builds": (*_C, "same as sparse.spmat_build_s"),
    "sparse.elementwise_s": (*_T, "wall_s on dist16-rmat10, ca16-rmat10"),
    "sparse.elementwise_calls": (*_C, "wall_s on dist16-rmat10, ca16-rmat10"),
    # repro.dist
    "dist.redistribute_s": (*_T, "wall_s on ca16-rmat10"),
    "dist.redistribute_calls": (*_C, "wall_s, crit_msgs on ca16-rmat10"),
    "dist.distribute_s": (*_T, "wall_s on dist workloads"),
    "dist.gather_s": (*_T, "wall_s on dist workloads"),
    "dist.slice_s": (*_T, "wall_s on ca16-rmat10 (transpose, extract_*_range)"),
    "dist.elementwise_s": (*_T, "wall_s on dist16-rmat10, ca16-rmat10"),
    "dist.engine_spgemm_s": (*_T, "wall_s on dist workloads"),
    # repro.spgemm
    "spgemm.execute_plan_s": (*_T, "wall_s on dist workloads, most on ca16-rmat10"),
    "spgemm.select_s": (*_T, "wall_s on dist16-rmat10 (AutoPolicy search)"),
    "spgemm.products": (*_C, "deterministic"),
    "spgemm.plans_1d": (*_C, "modeled_* on dist16-rmat10, dist4-wuniform11"),
    "spgemm.plans_2d": (*_C, "modeled_*"),
    "spgemm.plans_3d": (*_C, "modeled_* on ca16-rmat10 (only workload > 0)"),
    # repro.machine
    "machine.collectives_s": (*_T, "wall_s on ca16-rmat10"),
    "machine.collective_calls": (*_C, "wall_s on ca16-rmat10"),
    "machine.ledger_s": (*_T, "wall_s on dist16-rmat10, ca16-rmat10"),
    "machine.ledger_calls": (*_C, "wall_s on dist16-rmat10, ca16-rmat10"),
    "machine.executor_s": (*_T, "wall_s on dist16-rmat10, ca16-rmat10"),
    "machine.total_words": ("words", "lower", "crit_words, modeled_comm_s on dist workloads"),
    "machine.total_msgs": ("messages", "lower", "crit_msgs, modeled_comm_s on dist workloads"),
    "machine.compute_ops": (*_C, "modeled_s on dist workloads"),
    "machine.load_imbalance": ("ratio", "lower", "modeled_s on dist workloads"),
    **{
        f"machine.words.{c}": ("words", "lower", "crit_words on dist workloads")
        for c in (*TRAFFIC_CATEGORIES, "other")
    },
    "machine.modeled_s": ("sim_s", "lower", "= modeled_s (exact)"),
    "machine.modeled_comm_s": ("sim_s", "lower", "= modeled_comm_s (exact)"),
    "machine.crit_words": ("words", "lower", "= crit_words (exact)"),
    "machine.crit_msgs": ("messages", "lower", "= crit_msgs (exact)"),
    "machine.peak_rank_words": ("words", "lower", "= peak_rank_words (exact)"),
    "machine.sim_tax": ("ratio", "lower", "wall_s on dist workloads: simulator overhead / useful kernel time"),
    # repro.core
    "core.mfbf_s": (*_T, "wall_s everywhere; dist4-wuniform11 most"),
    "core.mfbr_s": (*_T, "wall_s everywhere"),
    "core.driver_s": (*_T, "wall_s everywhere (accumulate, bookkeeping)"),
    "core.batches": (*_C, "deterministic"),
    "core.mfbf_iterations": (*_C, "wall_s, modeled_* on dist4-wuniform11 (~19/batch) >> rmat (~7)"),
    "core.mfbr_iterations": (*_C, "wall_s, modeled_* on dist4-wuniform11"),
    "core.frontier_nnz": (*_C, "wall_s, modeled_* on dist4-wuniform11"),
    "core.product_nnz": (*_C, "wall_s, modeled_*"),
    # repro.serve
    "serve.submit_s": (*_T, "query_p50_ms on serve workloads"),
    "serve.queue_wait_ms_p50": ("ms", "lower", "query_p50_ms (~batch_window + position in wave)"),
    "serve.compute_ms_p50": ("ms", "lower", "query_p50_ms, wall_s on serve-waves"),
    "serve.sweeps": (*_C, "goodput_qps on serve-mixed"),
    "serve.coalescing_factor": ("ratio", "higher", "goodput_qps on serve-mixed; ~wave width on serve-waves"),
    "serve.cache_hit_rate": ("ratio", "higher", "goodput_qps, query_p95_ms on serve-mixed; 0 on serve-waves"),
    "serve.update_graph_s": (*_T, "goodput_qps, query_p95_ms on serve-mixed"),
    "serve.shed": (*_C, "ops_failed"),
    "serve.degraded": (*_C, "ops_failed"),
    "serve.retries": (*_C, "query_p95_ms"),
    # repro.graphs
    "graphs.generate_s": (*_T, "setup_s only"),
    "graphs.adjacency_s": (*_T, "wall_s on batch workloads (once per mfbc call)"),
    # the benchmark itself
    "trace.overhead_frac": ("ratio", "lower", "traced / untraced wall - 1"),
    "trace.accounted_frac": ("ratio", "higher", "share of traced wall that is layer self time"),
    "verify.oracle_s": (*_T, "outside every timed region"),
}
