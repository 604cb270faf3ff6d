"""Distributed matrices on the simulated machine.

:class:`~repro.dist.distmat.DistMat` is a block-distributed sparse matrix
over a 2D facet of a processor grid, mirroring CTF's distributed tensors:
blocks are plain :class:`~repro.sparse.SpMat` instances held in per-rank
stores, placed by one :class:`~repro.dist.distmat.Layout` value (rank grid
+ block boundaries), and every movement is a
:class:`~repro.machine.collectives.Group` collective on the blocks that
move — ``distribute`` a ``scatter``, ``gather`` a ``gather``,
``redistribute`` an ``alltoall`` — so the α-β ledger is charged with the
real traffic.

:class:`~repro.dist.engine.DistributedEngine` implements the MFBC engine
protocol on top: generalized products run through the CTF-style algorithm
selector in :mod:`repro.spgemm`.
"""

from repro.dist.distmat import DistMat, Layout, even_splits
from repro.dist.engine import DistributedEngine

__all__ = ["DistMat", "Layout", "even_splits", "DistributedEngine"]
