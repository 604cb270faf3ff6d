"""Small shared utilities: validation helpers and seeded RNG plumbing."""

from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_positive_int,
    check_probability,
    require,
)

__all__ = [
    "as_rng",
    "check_positive_int",
    "check_probability",
    "require",
]
