"""repro.elastic: in-flight rank-failure recovery.

Shrink the machine to the survivors, repair lost blocks from ABFT-style
checksummed replicas (or the retained source), rebuild the processor grid,
and resume the batch loop — no restart.  See :mod:`repro.elastic.policy`
for configuration and :mod:`repro.elastic.recovery` for the coordinator.
"""

from repro.elastic.policy import ElasticPolicy, resolve_elastic

__all__ = [
    "ElasticPolicy",
    "resolve_elastic",
    "RecoveryError",
    "RecoveryReport",
    "recover_engine",
]

_LAZY = ("RecoveryError", "RecoveryReport", "recover_engine")


def __getattr__(name: str):
    # repro.elastic.recovery imports repro.dist, which imports
    # repro.machine.machine, which imports repro.elastic.policy — loading
    # the coordinator lazily keeps the package importable from the
    # machine layer without a cycle.
    if name in _LAZY:
        from repro.elastic import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
