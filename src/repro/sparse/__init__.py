"""Single-node sparse matrices over arbitrary monoids.

:class:`~repro.sparse.spmatrix.SpMat` is a canonical COO matrix whose values
are columnar field arrays drawn from a monoid's carrier set — the node-local
building block that both the sequential MFBC engine and the per-rank blocks
of the distributed engine are made of.  The generalized SpGEMM kernel in
:mod:`repro.sparse.spgemm` implements ``C = A •⟨⊕,f⟩ B`` for any
:class:`~repro.algebra.matmul.MatMulSpec` with vectorized join + reduce,
with optional GraphBLAS-style output masks; :mod:`repro.sparse.dispatch`
routes the one recognized family — the multpath/centpath path sums — to a
bit-identical compiled fast path, and every other spec (plus-times,
min-plus, max-min, ...) to the generic kernel.
"""

from repro.sparse.spgemm import SpGemmResult, count_ops, spgemm
from repro.sparse.spmatrix import SpMat

__all__ = ["SpMat", "spgemm", "SpGemmResult", "count_ops"]
