"""Execution statistics collected by MFBC runs.

These mirror the quantities the paper's analysis is phrased in: per-iteration
frontier sizes ``nnz(F_i)`` and product sizes ``nnz(G_i)`` (§5.3), elementary
product counts ``ops`` (§5.1), matrix-multiplication counts, and — when run
on the simulated machine — the α-β communication ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IterationStats", "BatchStats", "MFBCStats"]


@dataclass
class IterationStats:
    """One frontier relaxation (one generalized matrix multiplication)."""

    phase: str  # "mfbf" or "mfbr"
    frontier_nnz: int  # nnz(F_i), the product's sparse operand
    # nnz(G_i), the product output; MFBF's product is masked by T, so it
    # counts the entries that do not lose to T (on equal weights the
    # unvisited vertices: new vertices only),
    # and MFBr's is masked to its pending vertices (the successor count's to
    # the vertices with a successor), so it counts those
    product_nnz: int
    ops: int  # elementary nonzero products formed


@dataclass
class BatchStats:
    """All iterations for one batch of ``nb`` starting vertices."""

    sources: int
    iterations: list[IterationStats] = field(default_factory=list)

    @property
    def mfbf_iterations(self) -> int:
        return sum(1 for it in self.iterations if it.phase == "mfbf")

    @property
    def mfbr_iterations(self) -> int:
        return sum(1 for it in self.iterations if it.phase == "mfbr")

    @property
    def total_ops(self) -> int:
        return sum(it.ops for it in self.iterations)

    @property
    def total_frontier_nnz(self) -> int:
        return sum(it.frontier_nnz for it in self.iterations)

    @property
    def total_product_nnz(self) -> int:
        return sum(it.product_nnz for it in self.iterations)


@dataclass
class MFBCStats:
    """Whole-run statistics across all batches."""

    batches: list[BatchStats] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return sum(b.total_ops for b in self.batches)

    @property
    def total_multiplications(self) -> int:
        return sum(len(b.iterations) for b in self.batches)

    @property
    def sources_processed(self) -> int:
        return sum(b.sources for b in self.batches)

    def summary(self) -> dict[str, int]:
        """Flat dict for reports."""
        return {
            "batches": len(self.batches),
            "sources": self.sources_processed,
            "matmuls": self.total_multiplications,
            "ops": self.total_ops,
            "frontier_nnz": sum(b.total_frontier_nnz for b in self.batches),
            "product_nnz": sum(b.total_product_nnz for b in self.batches),
        }
