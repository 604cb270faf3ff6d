"""Semirings, for the baseline algorithms expressed in classic GraphBLAS style.

The paper's §2.2 defines a semiring ``(T, ⊕, ⊗)``; CombBLAS-style betweenness
centrality and the textbook algebraic BFS/Bellman-Ford baselines use
semirings where both operands share one carrier set.  A :class:`Semiring`
here is a thin wrapper producing the equivalent :class:`MatMulSpec`, keeping
one kernel implementation for everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algebra.fields import FieldArray
from repro.algebra.matmul import MatMulSpec
from repro.algebra.monoid import MaxMonoid, MinMonoid, Monoid, PlusMonoid

__all__ = [
    "Semiring",
    "SemiringAction",
    "left_project",
    "TROPICAL",
    "REAL_PLUS_TIMES",
    "MAX_MIN",
]


@dataclass(frozen=True)
class Semiring:
    """A semiring ``(T, ⊕, ⊗)`` over a single-field carrier set.

    Attributes
    ----------
    add_monoid:
        The commutative monoid ``(T, ⊕)``.
    multiply:
        Vectorized ``⊗`` on two equal-length columns.
    name:
        Label for diagnostics.
    """

    add_monoid: Monoid
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "semiring"

    def matmul_spec(self, field: str = "w", name: str | None = None) -> MatMulSpec:
        """The :class:`MatMulSpec` computing ``C = A •⟨⊕,⊗⟩ B``.

        ``name`` overrides the diagnostic label (e.g. an app using the
        tropical semiring under its own phase name); the action is the same
        structural :class:`SemiringAction` either way.
        """
        return MatMulSpec(
            monoid=self.add_monoid,
            f=SemiringAction(self.multiply, field),
            name=self.name if name is None else name,
        )


@dataclass(frozen=True)
class SemiringAction:
    """Structural ``f(a, b) = {field: a.field ⊗ b.field}``.

    The structural form (rather than a closure) keeps the operator
    inspectable: two actions over the same ``⊗`` and field compare equal
    and print as what they compute.  No fast path claims a semiring
    product: the kernel dispatcher (:mod:`repro.sparse.dispatch`) leaves
    every one, plus-times included, to the generic kernel.
    """

    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    field: str

    def __call__(self, a: FieldArray, b: FieldArray) -> FieldArray:
        return {self.field: self.multiply(a[self.field], b[self.field])}


def left_project(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``⊗`` keeping the left operand — label/frontier propagation.

    Connected components propagates the smallest reachable label with
    ``min``/``left_project``; the right operand only supplies structure.
    """
    return a


#: The tropical semiring (W, min, +): shortest-path relaxation (§2.3).
TROPICAL = Semiring(add_monoid=MinMonoid(), multiply=np.add, name="tropical")

#: The ordinary (R, +, ×) semiring: path counting / numeric SpGEMM.
REAL_PLUS_TIMES = Semiring(add_monoid=PlusMonoid(), multiply=np.multiply, name="real")

#: The bottleneck (max, min) semiring: widest-path / maximum-capacity routing.
MAX_MIN = Semiring(add_monoid=MaxMonoid(), multiply=np.minimum, name="max-min")
