"""Execution plans for distributed SpGEMM.

A :class:`Plan` names one point in the paper's algorithm space: a processor
grid factorization ``p1 × p2 × p3`` plus the variant pair ``(X, YZ)``:

* ``p1 = p`` (2D/3D dims 1) with ``X`` alone → the three **1D** algorithms
  (§5.2.1): variant ``A`` replicates A, ``B`` replicates B, ``C`` reduces C;
* ``p1 = 1`` → the three **2D** algorithms (§5.2.2): ``AB`` broadcasts both
  operands (SUMMA), ``AC``/``BC`` broadcast one operand and reduce C;
* otherwise → the nine **3D** nestings (§5.2.3): the 1D variant ``X``
  applied over ``p1`` wrapping the 2D variant ``YZ`` on each ``p2 × p3``
  layer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Plan"]

_VALID_X = ("A", "B", "C")
_VALID_YZ = ("AB", "AC", "BC")


@dataclass(frozen=True)
class Plan:
    """One (grid, variant) choice."""

    p1: int
    p2: int
    p3: int
    x: str  # 1D variant over p1 ("A", "B", or "C"); ignored by a 2D plan
    yz: str  # 2D variant on p2 × p3 ("AB", "AC", "BC"); ignored when p2·p3 == 1

    def __post_init__(self) -> None:
        if min(self.p1, self.p2, self.p3) < 1:
            raise ValueError(f"grid dims must be positive: {self}")
        if self.x not in _VALID_X:
            raise ValueError(f"x must be one of {_VALID_X}, got {self.x!r}")
        if self.yz not in _VALID_YZ:
            raise ValueError(f"yz must be one of {_VALID_YZ}, got {self.yz!r}")

    @property
    def p(self) -> int:
        return self.p1 * self.p2 * self.p3

    @property
    def kind(self) -> str:
        """"1d", "2d", or "3d" according to the degenerate dimensions."""
        if self.p1 == 1:
            return "2d" if self.p2 * self.p3 > 1 else "1d"
        if self.p2 * self.p3 == 1:
            return "1d"
        return "3d"

    def describe(self) -> str:
        if self.kind == "1d":
            return f"1D-{self.x}(p={self.p})"
        if self.kind == "2d":
            return f"2D-{self.yz}({self.p2}x{self.p3})"
        return f"3D-{self.x},{self.yz}({self.p1}x{self.p2}x{self.p3})"
