"""The generalized matrix-multiplication operator ``C = A •⟨⊕,f⟩ B`` (§3).

A :class:`MatMulSpec` bundles the commutative monoid ``(D_C, ⊕)`` with the
bivariate map ``f : D_A × D_B → D_C`` so that every SpGEMM kernel — the
single-node vectorized one and all distributed variants — consumes the same
operator description, exactly as CTF's ``Kernel<W,M,M,u,f>`` does.

``f`` is vectorized: it receives two equal-length field arrays (the joined
nonzero pairs ``A(i,k)``/``B(k,j)``) and must return a field array with the
output monoid's schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algebra.fields import FieldArray
from repro.algebra.monoid import Monoid

__all__ = ["MatMulSpec", "MASK_RULES"]

ElementMap = Callable[[FieldArray, FieldArray], FieldArray]

#: how a product's output mask decides which joined pairs are formed
MASK_RULES = ("keep", "complement", "tie", "bound")


@dataclass(frozen=True)
class MatMulSpec:
    """Specification of ``•⟨⊕,f⟩``.

    Attributes
    ----------
    monoid:
        The commutative monoid supplying ``⊕`` and the output element schema.
    f:
        Vectorized elementwise map combining joined A/B nonzero values.
    name:
        Human-readable label used in logs and cost reports.
    mask_rule:
        How a mask, when the product has one, decides which joined pairs
        are formed: ``"keep"`` those whose output coordinate is in its
        support, ``"complement"`` those outside it (the GraphBLAS
        complemented mask), ``"tie"`` those in it whose weight (the output
        monoid's ``weight_field``, after ``f``) equals the mask entry's,
        ``"bound"`` those whose weight does not lose to the mask entry at
        their coordinate (``≤`` it under ``select="min"``, ``≥`` under
        ``"max"``; a coordinate with no entry bounds nothing, and an empty
        mask excludes nothing).  Pairs not formed are not counted in
        ``ops``.  A ``"complement"``, ``"tie"`` or ``"bound"`` operator
        needs a mask.
    """

    monoid: Monoid
    f: ElementMap
    name: str = "matmul"
    mask_rule: str = "keep"

    def __post_init__(self) -> None:
        if self.mask_rule not in MASK_RULES:
            raise ValueError(
                f"{self.name}: mask_rule {self.mask_rule!r} is not one of {MASK_RULES}"
            )

    def apply_f(self, a_vals: FieldArray, b_vals: FieldArray) -> FieldArray:
        """Apply ``f`` and validate the output schema in one place."""
        out = self.f(a_vals, b_vals)
        expected = set(self.monoid.field_names)
        if set(out.keys()) != expected:
            raise ValueError(
                f"{self.name}: f returned fields {sorted(out)} but monoid "
                f"requires {sorted(expected)}"
            )
        return out
