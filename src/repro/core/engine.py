"""Execution engines: where the generalized matrix products actually run.

MFBF/MFBr are written against a minimal engine protocol so the *same*
algorithm code drives both execution modes:

* :class:`SequentialEngine` — products run on node-local
  :class:`~repro.sparse.SpMat` via the vectorized kernel;
* :class:`repro.dist.engine.DistributedEngine` — products run on the
  simulated p-rank machine through the CTF-style algorithm selector,
  charging α-β communication costs.

Both matrix types share the elementwise method surface (``combine``,
``filter``, ``map``, ``zip_filter``, ``zip_map``), so the
engine protocol only needs to abstract construction and multiplication.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.algebra.matmul import MatMulSpec
from repro.algebra.monoid import Monoid
from repro.obs import api as obs
from repro.sparse.spgemm import spgemm
from repro.sparse.spmatrix import SpMat

__all__ = ["Engine", "SequentialEngine"]


@runtime_checkable
class Engine(Protocol):
    """The seam between MFBC's algorithm code and its execution substrate.

    Both engines implement the full protocol, so algorithm code never
    feature-tests its engine: ``spgemm`` always returns the
    ``tuple[matrix, ops]`` pair.  ``adjacency`` is where an engine may pin
    the loop-invariant operand whose replication it amortizes.
    """

    def matrix(
        self,
        nrows: int,
        ncols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: dict[str, np.ndarray],
        monoid: Monoid,
    ):
        """Build a matrix in this engine's representation."""
        ...

    def adjacency(self, graph) -> object:
        """This engine's representation of ``graph``'s adjacency matrix."""
        ...

    def spgemm(self, a, b, spec: MatMulSpec, *, mask=None) -> tuple[object, int]:
        """``(a •⟨⊕,f⟩ b, elementary product count)``.

        The unified return contract across engines: the product matrix in
        this engine's representation, and the number of elementary nonzero
        products formed (``ops(A, B)`` of §5.1; with a mask, only the
        products surviving the mask).  ``mask`` is an optional structural
        output mask in this engine's matrix representation; ``spec`` says
        how it decides.
        """
        ...

    def gather(self, mat) -> SpMat:
        """Materialize an engine matrix as a node-local :class:`SpMat`."""
        ...


class SequentialEngine:
    """Single-node engine: matrices are plain :class:`SpMat`."""

    def matrix(self, nrows, ncols, rows, cols, vals, monoid) -> SpMat:
        return SpMat(nrows, ncols, rows, cols, vals, monoid)

    def adjacency(self, graph) -> SpMat:
        return graph.adjacency()

    def spgemm(
        self,
        a: SpMat,
        b: SpMat,
        spec: MatMulSpec,
        *,
        mask: SpMat | None = None,
    ) -> tuple[SpMat, int]:
        """``(a •⟨⊕,f⟩ b, elementary product count)`` — the unified
        :class:`Engine` contract."""
        with obs.span(
            "spgemm", cat="spgemm", phase=spec.name, frontier_nnz=a.nnz
        ) as sp:
            result = spgemm(a, b, spec, mask=mask)
            sp.set(product_nnz=result.matrix.nnz, ops=result.ops)
        return result.matrix, result.ops

    def gather(self, mat: SpMat) -> SpMat:
        return mat


if TYPE_CHECKING:
    # static proof that SequentialEngine satisfies the Engine protocol
    _SEQUENTIAL_IS_ENGINE: Engine = SequentialEngine()
