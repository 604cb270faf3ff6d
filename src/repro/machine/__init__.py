"""The simulated distributed-memory machine.

The paper ran on Blue Waters with MPI; this package substitutes a simulated
bulk-synchronous p-rank machine (see DESIGN.md).  It provides:

* :class:`~repro.machine.machine.Machine` — p ranks, an α-β communication
  cost model (§5.1), per-rank memory accounting, and a critical-path ledger
  that reproduces §7.4's methodology: for each collective over a set of
  processors, the critical-path costs are max-merged over the participants
  before the collective's cost is added;
* :class:`~repro.machine.collectives.Group` — the one data-movement
  path: broadcast / reduce / sparse-reduce / allreduce / scatter / gather
  / allgather / all-to-all / shift operations that take the payload that
  really moves, size it, charge the model cost (the only callers of
  ``Machine.charge_collective``) and return it through the fault plan's
  delivery hook — every SpGEMM variant, ``DistMat`` layout change and
  driver-level reduction is one of these calls;
* :mod:`~repro.machine.grid` — processor-grid shape arithmetic
  (factorizations, the near-square resting layout, survivor renumbering);
* :mod:`~repro.machine.executor` — the loop that runs the independent
  per-rank local kernels between two collectives, in rank order.

Fault injection (``Machine(p, faults=...)``) lives in :mod:`repro.faults`
and hooks into every layer above; see ``docs/robustness.md``.
"""

from repro.machine.executor import LocalExecutor
from repro.machine.machine import CostParams, Ledger, Machine, MemoryLimitExceeded
from repro.machine.collectives import Group, payload_words
from repro.machine.grid import near_square_shape

__all__ = [
    "Machine",
    "CostParams",
    "Ledger",
    "MemoryLimitExceeded",
    "Group",
    "payload_words",
    "near_square_shape",
    "LocalExecutor",
]
