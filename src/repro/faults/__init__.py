"""repro.faults — deterministic fault injection and fault tolerance.

The injection half lives in :mod:`repro.faults.plan`: a seeded
:class:`FaultPlan` threaded through the machine, the collectives and the
spill store (rank crashes, payload corruption, stragglers, memory pressure,
torn spill writes).  Every run event — injected or not, with or without
a plan — goes through :func:`note`, which records a structured
:class:`FaultEvent` on the plan and mirrors it to the ``repro.obs``
streams.

The tolerance half lives in :mod:`repro.faults.checkpoint` (per-batch
checkpoint/restart stores for the MFBC driver) and in the consumer: the
drivers' recovery ladder (:mod:`repro.core.ladder`; ``retries=`` /
``resume_from=``).

See ``docs/robustness.md`` for the fault model and walkthroughs.
"""

from repro.faults.checkpoint import (
    CheckpointState,
    CheckpointStore,
    CorruptCheckpoint,
    JsonCheckpointStore,
    MemoryCheckpointStore,
    NpzCheckpointStore,
    resolve_checkpoint_store,
    sources_checksum,
    stats_from_dicts,
    stats_to_dicts,
)
from repro.faults.plan import (
    CorruptPayload,
    DeadlineExceeded,
    FaultError,
    FaultEvent,
    FaultPlan,
    RankFailure,
    ScriptedFault,
    corrupt_copy,
    note,
    payload_checksum,
    resolve_fault_plan,
)

__all__ = [
    # plan / injection
    "FaultPlan",
    "FaultEvent",
    "ScriptedFault",
    "FaultError",
    "RankFailure",
    "CorruptPayload",
    "DeadlineExceeded",
    "note",
    "resolve_fault_plan",
    "corrupt_copy",
    "payload_checksum",
    # checkpoint / restart
    "CheckpointState",
    "CheckpointStore",
    "CorruptCheckpoint",
    "MemoryCheckpointStore",
    "JsonCheckpointStore",
    "NpzCheckpointStore",
    "resolve_checkpoint_store",
    "sources_checksum",
    "stats_to_dicts",
    "stats_from_dicts",
]
