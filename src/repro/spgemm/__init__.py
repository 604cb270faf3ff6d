"""Communication-efficient distributed sparse matrix multiplication (§5.2).

The paper's standalone theoretical contribution: a family of 1D, 2D, and 3D
sparse matmul algorithms whose communication cost adapts to the *imbalance*
of nonzeros between operands, searched automatically by a cost-model-driven
selector (CTF's mapping search, §6.2).

* :mod:`repro.spgemm.costmodel` — the closed-form α-β costs ``W_X`` (1D),
  ``W_YZ`` (2D), ``W_{X,YZ}`` (3D) and the uniform-sparsity output
  estimators ``ops(A,B) ≈ nnz(A)·nnz(B)/k``, ``nnz(C) ≈ min(mn, ops)``;
* :mod:`repro.spgemm.variants` — executable algorithms on the simulated
  machine: the three 1D variants, the three 2D SUMMA-style variants, and
  the nine 3D nestings, all moving real blocks and charging real sizes;
* :mod:`repro.spgemm.selector` — enumerates grids × variants, evaluates the
  model, and returns the cheapest feasible plan; plus the pinned policies
  (CA-MFBC's Theorem-5.1 grid, CombBLAS's square-2D restriction).
"""

from repro.spgemm.costmodel import (
    CostEstimate,
    estimate_nnz_c,
    estimate_ops,
    model_plan,
)
from repro.spgemm.plan import Plan
from repro.spgemm.selector import (
    AutoPolicy,
    PinnedPolicy,
    Square2DPolicy,
)
from repro.spgemm.variants import execute_plan

__all__ = [
    "CostEstimate",
    "estimate_ops",
    "estimate_nnz_c",
    "model_plan",
    "Plan",
    "AutoPolicy",
    "PinnedPolicy",
    "Square2DPolicy",
    "execute_plan",
]
