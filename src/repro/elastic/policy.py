"""Elastic-recovery policy: how lost blocks are reconstructed.

The policy answers one question — when a rank dies mid-run, where do its
blocks come from?

``replica``
    ABFT-style checksummed buddy replicas: :meth:`DistMat.distribute
    <repro.dist.distmat.DistMat.distribute>` keeps a deep copy of every
    block on a buddy rank (``(owner + stride) % p``) tagged with a CRC-32
    checksum, charging the replication collective to the ledger honestly
    (category ``"redundancy"``).  On failure, survivors restore a dead
    rank's blocks from verified replicas — no source data needed.

``source``
    Re-materialization: the distributed matrix retains a handle to its
    source :class:`~repro.core.spmat.SpMat` and re-slices only the lost
    blocks.  Free while healthy, but recovery depends on the source still
    being reachable (in the simulation it always is; on a real machine this
    models re-reading the input from the parallel filesystem).

The grammar mirrors :mod:`repro.faults.plan` and :mod:`repro.check.engine`:
a spec string, an :class:`ElasticPolicy`, or ``None`` for the ambient
``elastic`` knob (:mod:`repro.config`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config

__all__ = ["ElasticPolicy", "resolve_elastic"]

_REDUNDANCY_MODES = ("replica", "source")


@dataclass(frozen=True)
class ElasticPolicy:
    """Resolved elastic-recovery configuration.

    ``redundancy`` selects the primary block-reconstruction path
    (``"replica"`` or ``"source"``); ``stride`` is the buddy offset for
    replica placement (a replica of rank ``r``'s blocks lives on rank
    ``(r + stride) % p``, so ``stride`` must stay coprime-ish with common
    failure patterns — the default 1 survives any single failure, and any
    failure set that doesn't contain a full owner+buddy pair).
    """

    redundancy: str = "replica"
    stride: int = 1

    def __post_init__(self) -> None:
        if self.redundancy not in _REDUNDANCY_MODES:
            raise ValueError(
                f"unknown redundancy mode {self.redundancy!r}; "
                f"expected one of {_REDUNDANCY_MODES}"
            )
        if self.stride < 1:
            raise ValueError(f"replica stride must be >= 1, got {self.stride}")

    def describe(self) -> str:
        if self.redundancy == "replica" and self.stride != 1:
            return f"replica:{self.stride}"
        return self.redundancy


def _parse_spec(spec: str) -> ElasticPolicy:
    if not isinstance(spec, str):
        raise TypeError(
            f"cannot resolve elastic policy from {type(spec).__name__}"
        )
    spec = spec.strip().lower()
    if spec in ("on", "replica", "1", "true"):
        return ElasticPolicy()
    if spec.startswith("replica:"):
        try:
            stride = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad replica stride in elastic spec {spec!r}") from None
        return ElasticPolicy(redundancy="replica", stride=stride)
    if spec == "source":
        return ElasticPolicy(redundancy="source")
    raise ValueError(
        f"unknown elastic spec {spec!r}; expected 'off', 'replica', "
        f"'replica:STRIDE', or 'source'"
    )


def resolve_elastic(spec=None) -> ElasticPolicy | None:
    """Resolve ``spec`` into an :class:`ElasticPolicy` (or ``None``: off).

    Accepts an :class:`ElasticPolicy` (returned as-is), a spec string, or
    ``None`` for the ambient ``elastic`` knob (:mod:`repro.config`).
    """
    if isinstance(spec, ElasticPolicy):
        return spec
    return config.ambient("elastic", spec, _parse_spec)
