"""Seeded random-number-generator plumbing.

Every stochastic component in the library (graph generators, vertex
relabeling, randomized layouts) accepts either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None`` and normalizes it through
:func:`as_rng` so experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng"]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so callers can thread
    one generator through a pipeline of stochastic steps.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
