"""repro.elastic: in-flight rank-failure recovery.

Shrink the machine to the survivors, rebuild every pinned adjacency from
its graph on the survivor grid, and resume the batch loop — no restart.
See :mod:`repro.elastic.recovery`.
"""

from repro.elastic.recovery import (
    RecoveryError,
    RecoveryReport,
    recover_engine,
    resolve_elastic,
)

__all__ = [
    "resolve_elastic",
    "RecoveryError",
    "RecoveryReport",
    "recover_engine",
]
