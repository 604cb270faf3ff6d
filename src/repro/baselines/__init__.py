"""Baseline algorithms the paper compares against (or builds on).

* :mod:`repro.baselines.brandes` — the classic Brandes algorithm (BFS for
  unweighted, Dijkstra for weighted graphs): the correctness oracle and the
  work-optimal sequential baseline;
* :mod:`repro.baselines.sssp` — single-source shortest path kernels with
  multiplicity counting (Bellman-Ford, Dijkstra);
* :mod:`repro.baselines.combblas_bc` — a CombBLAS-style batched algebraic
  BC (semiring SpGEMM batch-BFS + back-propagation, unweighted graphs,
  square 2D process grids): the performance comparison target of §7.
"""

from repro.baselines.brandes import brandes_bc
from repro.baselines.combblas_bc import combblas_bc
from repro.baselines.sssp import bellman_ford_sssp, dijkstra_sssp

__all__ = [
    "brandes_bc",
    "combblas_bc",
    "bellman_ford_sssp",
    "dijkstra_sssp",
]
