"""The loop that runs a machine's per-rank local work.

The simulated machine models ``p`` ranks inside one Python interpreter.
Between two collectives every rank has independent local work — the local
products of the §5.2 variant executors (a 1D-B step's strips as one
product), :class:`~repro.dist.distmat.DistMat` redistribution block
packing — and :class:`LocalExecutor` runs it rank after rank on the
simulation thread, results in submission order.  Ledger charges are
issued by the callers in the same order, so gathered matrices and
``ledger.snapshot()`` are a function of the inputs alone.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sparse.spgemm import SpGemmResult, spgemm
from repro.sparse.spmatrix import SpMat

__all__ = ["LocalExecutor"]


class LocalExecutor:
    """Runs batches of independent per-rank tasks, in submission order."""

    def run_tasks(self, thunks: Sequence[Callable[[], object]]) -> list:
        """Run zero-argument callables; results in submission order."""
        return [fn() for fn in thunks]

    def run_spgemm(
        self,
        pairs: Sequence[tuple[SpMat, SpMat]],
        spec,
        *,
        masks: Sequence[SpMat | None] | None = None,
        mask_complement: bool = False,
    ) -> list[SpGemmResult]:
        """Run a batch of independent local products ``C_t = A_t • B_t``.

        ``masks`` (aligned with ``pairs``; ``None`` entries unmasked) are
        per-task structural output masks, all sharing ``mask_complement``.
        """
        if masks is None:
            masks = [None] * len(pairs)
        return [
            spgemm(x, y, spec, mask=mk, mask_complement=mask_complement)
            for (x, y), mk in zip(pairs, masks)
        ]
