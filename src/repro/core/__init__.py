"""The paper's primary contribution: Maximal Frontier Betweenness Centrality.

* :mod:`repro.core.mfbf` — Algorithm 1 (Maximal Frontier Bellman-Ford):
  shortest distances and multiplicities from a batch of sources;
* :mod:`repro.core.mfbr` — Algorithm 2 (Maximal Frontier Brandes):
  partial centrality factors ζ via counter-gated back-propagation;
* :mod:`repro.core.mfbc` — Algorithm 3: the batched driver combining both
  and accumulating λ, plus the top-level :func:`betweenness_centrality`
  convenience API;
* :mod:`repro.core.engine` — the execution-engine seam: the sequential
  engine runs on node-local :class:`~repro.sparse.SpMat`; the distributed
  engine (in :mod:`repro.dist`) runs the same algorithm over the simulated
  machine.
"""

from repro.core.approx import (
    AdaptiveBCResult,
    SamplerState,
    adaptive_bc,
    approximate_bc,
)
from repro.core.ca_mfbc import ca_engine, ca_mfbc
from repro.core.edge_bc import EdgeBCResult, edge_betweenness_centrality
from repro.core.engine import Engine, SequentialEngine
from repro.core.mfbf import mfbf
from repro.core.mfbr import mfbr
from repro.core.mfbc import MFBCResult, betweenness_centrality, mfbc, mfbc_per_source
from repro.core.stats import BatchStats, IterationStats, MFBCStats

__all__ = [
    "Engine",
    "SequentialEngine",
    "mfbf",
    "mfbr",
    "mfbc",
    "mfbc_per_source",
    "MFBCResult",
    "betweenness_centrality",
    "MFBCStats",
    "BatchStats",
    "IterationStats",
    "approximate_bc",
    "adaptive_bc",
    "AdaptiveBCResult",
    "SamplerState",
    "ca_mfbc",
    "ca_engine",
    "edge_betweenness_centrality",
    "EdgeBCResult",
]
