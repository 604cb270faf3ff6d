"""Memory-pressure robustness: spill-to-disk store and relief eviction.

See :mod:`repro.memory.spill` (the checksummed segment store) and
:mod:`repro.memory.manager` (LRU eviction under pressure).  What a driver
does when relief is not enough — narrow the sweep — is the
``shrink_batch`` rung of :mod:`repro.core.ladder` ("The recovery ladder"
in ``docs/robustness.md``).
"""

from repro.memory.manager import MemoryManager
from repro.memory.spill import SpillError, SpillSegment, SpillStore

__all__ = [
    "MemoryManager",
    "SpillError",
    "SpillSegment",
    "SpillStore",
]
