"""Distributed sparse tensors: contraction on the simulated machine.

CTF's core capability: distributed tensors contracted by mapping modes onto
processor grids and lowering to distributed matmul.  A :class:`DistTensor`
stores one *unfolding* of the tensor as a block-distributed matrix; a
contraction re-unfolds each operand so that its free modes form one matrix
dimension and the contracted mode the other (a global transposition,
charged as a redistribution — §1's "aside from the need for transposition
(data-reordering), sparse tensor contractions are equivalent to sparse
matrix multiplication"), then runs the distributed SpGEMM stack.
"""

from __future__ import annotations

from repro.algebra.matmul import MatMulSpec
from repro.dist.distmat import DistMat
from repro.dist.engine import DistributedEngine
from repro.tensor.sptensor import SpTensor

__all__ = ["DistTensor", "contract_distributed"]


class DistTensor:
    """An order-≤3 sparse tensor stored as a distributed unfolding.

    Parameters
    ----------
    distmat:
        The block-distributed matrix holding one unfolding.
    shape:
        The tensor's mode extents.
    row_modes, col_modes:
        Which tensor modes the matrix rows/columns pack (row-major, in
        order).
    """

    __slots__ = ("distmat", "shape", "row_modes", "col_modes")

    def __init__(
        self,
        distmat: DistMat,
        shape: tuple[int, ...],
        row_modes: tuple[int, ...],
        col_modes: tuple[int, ...],
    ) -> None:
        shape = tuple(int(s) for s in shape)
        if sorted(row_modes + col_modes) != list(range(len(shape))):
            raise ValueError(
                f"modes {row_modes}+{col_modes} do not partition order "
                f"{len(shape)}"
            )
        self.distmat = distmat
        self.shape = shape
        self.row_modes = tuple(row_modes)
        self.col_modes = tuple(col_modes)

    # -- construction -------------------------------------------------------

    @classmethod
    def distribute(
        cls,
        tensor: SpTensor,
        engine: DistributedEngine,
        row_modes: tuple[int, ...] | None = None,
    ) -> "DistTensor":
        """Scatter a node-local tensor onto the engine's machine.

        ``row_modes`` chooses the stored unfolding (default: mode 0 rows).
        """
        if row_modes is None:
            row_modes = (0,)
        row_modes = tuple(int(m) for m in row_modes)
        col_modes = tuple(
            m for m in range(tensor.order) if m not in row_modes
        )
        mat = tensor.unfold(row_modes)
        dm = DistMat.distribute(mat, engine.machine, engine.home_ranks2d)
        return cls(dm, tensor.shape, row_modes, col_modes)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return self.distmat.nnz

    # -- materialization -------------------------------------------------------

    def gather(self, *, charge: bool = True) -> SpTensor:
        """Reassemble the full tensor node-locally (natural mode order)."""
        from repro.tensor.contract import _drop_unit_mode

        mat = self.distmat.gather(charge=charge)
        row_shape = [self.shape[m] for m in self.row_modes] or [1]
        col_shape = [self.shape[m] for m in self.col_modes] or [1]
        folded = SpTensor.fold(mat, row_shape, col_shape)
        # drop the padding modes introduced when one side packs no modes
        if not self.row_modes:
            folded = _drop_unit_mode(folded, 0)
        if not self.col_modes:
            folded = _drop_unit_mode(folded, folded.order - 1)
        # folded mode order is row_modes + col_modes; permute to natural
        packed = list(self.row_modes) + list(self.col_modes)
        perm = [packed.index(m) for m in range(self.order)]
        return folded.permute(perm)

    # -- layout changes ------------------------------------------------------------

    def reunfold(self, row_modes: tuple[int, ...]) -> "DistTensor":
        """Switch to a different stored unfolding (a global transposition).

        Charged as one all-to-all (see :meth:`_transposed`).
        """
        row_modes = tuple(int(m) for m in row_modes)
        if row_modes == self.row_modes:
            return self
        return DistTensor._transposed(
            self.distmat,
            self.gather(charge=False),
            self.distmat.ranks2d,
            row_modes,
        )

    @classmethod
    def _transposed(cls, old: DistMat, tensor: SpTensor, ranks2d, row_modes):
        """``tensor`` — ``old``'s elements, re-ordered — stored under a new
        unfolding on ``ranks2d`` (the same ranks ``old`` lives on).

        A global transposition: one all-to-all in which every element moves
        once, so each rank hands over the blocks it held and ends with its
        blocks of the new layout — what CTF's sparse redistribution pays.
        (The simulation re-slices the gathered tensor, so the blocks the
        collective delivers are checked in flight but not re-installed.)
        """
        out = cls.distribute_uncharged(tensor, old.machine, ranks2d, row_modes)
        ranks, sent = old.owned_blocks()
        _, received = out.distmat.owned_blocks()
        old.machine.group(ranks).alltoall(sent, received, category="redistribute")
        return out

    @classmethod
    def distribute_uncharged(cls, tensor, machine, ranks2d, row_modes):
        """Internal: distribute without charging (movement charged by caller)."""
        row_modes = tuple(int(m) for m in row_modes)
        col_modes = tuple(m for m in range(tensor.order) if m not in row_modes)
        mat = tensor.unfold(row_modes)
        dm = DistMat.distribute(mat, machine, ranks2d, charge=False)
        return cls(dm, tensor.shape, row_modes, col_modes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistTensor(shape={self.shape}, rows={self.row_modes}, "
            f"cols={self.col_modes}, nnz={self.nnz})"
        )


def contract_distributed(
    a: DistTensor,
    ia: str,
    b: DistTensor,
    ib: str,
    out: str,
    spec: MatMulSpec,
    engine: DistributedEngine,
) -> DistTensor:
    """``C[out] = ⊕ f(A[ia], B[ib])`` on the simulated machine.

    Index semantics match :func:`repro.tensor.contract.contract`; the output
    tensor is distributed with its first mode as the stored rows.
    """
    from repro.tensor.contract import _validate

    k = _validate(_Shim(a), ia, _Shim(b), ib, out)
    a_free = [c for c in out if c in ia]
    b_free = [c for c in out if c in ib]

    # re-unfold operands into contraction-ready layouts
    a_ready = a.reunfold(tuple(ia.index(c) for c in a_free))
    b_ready = b.reunfold((ib.index(k),))
    # B's columns must pack b_free in 'out' order; unfold packs ascending,
    # so detour through a local permutation when the orders differ.
    asc = sorted(ib.index(c) for c in b_free)
    want = [ib.index(c) for c in b_free]
    if want != asc:
        local_b = b_ready.gather(charge=False).permute(
            [ib.index(k)] + want
        )
        b_ready = DistTensor.distribute_uncharged(
            local_b, engine.machine, engine.home_ranks2d, (0,)
        )

    c_mat, _ = engine.spgemm(a_ready.distmat, b_ready.distmat, spec)
    # the produced matrix packs (a_free | b_free) — the "natural" order
    natural = a_free + b_free
    nat_shape = tuple(
        a.shape[ia.index(c)] if c in ia else b.shape[ib.index(c)]
        for c in natural
    )
    tensor = DistTensor(
        c_mat,
        nat_shape,
        tuple(range(len(a_free))),
        tuple(range(len(a_free), len(natural))),
    )
    if natural == list(out):
        return tensor
    # permute modes to the requested output order (charged reshuffle)
    local = tensor.gather(charge=False).permute(
        [natural.index(c) for c in out]
    )
    return DistTensor._transposed(c_mat, local, engine.home_ranks2d, (0,))


class _Shim:
    """Adapter giving DistTensor the attributes _validate expects."""

    def __init__(self, t: DistTensor) -> None:
        self.order = t.order
        self.shape = t.shape
