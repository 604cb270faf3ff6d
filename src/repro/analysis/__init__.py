"""Evaluation machinery: metrics, performance models, scaling harnesses.

Two complementary ways to produce the paper's numbers:

* **full simulation** — run MFBC on a :class:`~repro.dist.DistributedEngine`
  and read the machine's critical-path ledger (used for Table 3, where the
  paper itself reports critical-path W/S from profiled collectives);
* **hybrid modeling** — run MFBC once on the sequential engine to collect
  the exact per-iteration frontier/product sizes and operation counts, then
  evaluate the §5.2 cost model per product for any processor count (used
  for the scaling figures, where the paper sweeps p over two orders of
  magnitude; this is exactly how Theorem 5.1 aggregates per-product costs).
"""

from repro.analysis.teps import mteps, mteps_per_node, traversed_edges
from repro.analysis.perfmodel import ModeledRun, model_run
from repro.analysis.theory import (
    apsp_bandwidth_words,
    mfbc_bandwidth_words,
    mfbc_latency_messages,
    mfbc_memory_words,
    strong_scaling_range,
)
from repro.analysis.scaling import (
    ScalingPoint,
    edge_weak_scaling,
    strong_scaling,
    vertex_weak_scaling,
)
from repro.analysis.report import (
    format_table,
    format_trace_report,
    trace_attribution,
)

__all__ = [
    "mteps",
    "mteps_per_node",
    "traversed_edges",
    "ModeledRun",
    "model_run",
    "mfbc_bandwidth_words",
    "mfbc_latency_messages",
    "mfbc_memory_words",
    "apsp_bandwidth_words",
    "strong_scaling_range",
    "ScalingPoint",
    "strong_scaling",
    "edge_weak_scaling",
    "vertex_weak_scaling",
    "format_table",
    "trace_attribution",
    "format_trace_report",
]
