"""Deterministic fault injection: the plan, the events, the exceptions.

Long-running distributed BC jobs die mid-flight — the paper's Blue Waters
runs (§7) sit exactly in the regime where ranks crash and interconnects
flip bits.  This module provides the *injection* half of the robustness
story: a :class:`FaultPlan` is a seeded, fully deterministic schedule of
failures threaded through the simulated machine
(:class:`~repro.machine.machine.Machine`), the collectives
(:class:`~repro.machine.collectives.Group`) and the spill store
(:class:`~repro.memory.SpillStore`).

Fault kinds
-----------
``crash``
    A participating rank raises :class:`RankFailure` inside
    ``Machine.charge_collective`` / ``charge_pointtopoint`` — the modeled
    analogue of a node dying during a collective.
``corrupt``
    A collective payload is perturbed in flight (a copy is perturbed; the
    sender's buffer is never mutated).  Every broadcast, reduction and
    redistribution of a product is a :class:`Group` call, so this lands on
    a block a real run is moving.  With the opt-in checksum guard
    (``checksum:1``) the receiving collective detects the mismatch and
    raises :class:`CorruptPayload`, which the drivers' batch ladder
    retries; without it the corruption propagates silently, as on real
    hardware.  (The set-up collectives — ``scatter`` / ``gather`` — run
    outside that ladder and are not hooked.)
``straggle``
    One participant's modeled clock is skewed forward by a random factor of
    ``skew`` seconds, charged straight to the ledger — a slow rank
    lengthening the critical path.
``tear``
    A spill-segment write is torn mid-file (truncated after the atomic
    rename).  The spill store's write-then-verify read-back must detect
    the damage and keep the data resident.

Determinism
-----------
All stochastic decisions come from one ``numpy`` generator seeded at
construction, and every decision site is visited in the simulation's
deterministic order — so one seed yields one exact :class:`FaultEvent`
sequence, run after run.  A plan is *stateful* (the generator advances);
call :meth:`FaultPlan.reset` or build a fresh plan to replay a schedule.

Spec grammar
------------
``FaultPlan.from_spec`` (the grammar of the ``faults`` knob, see
:mod:`repro.config`) accepts comma-separated tokens::

    seed:3,crash:0.05,corrupt:0.01,straggle:0.1,tear:0.02,
    checksum:1,skew:1e-4,limit:10,crash@12,corrupt@7,straggle@9:2

* ``seed:N`` — generator seed (default 0);
* ``crash|corrupt|straggle|tear:RATE`` — per-decision
  probabilities in ``[0, 1]``;
* ``checksum:0|1`` — arm the payload checksum guard on Group collectives;
* ``skew:SECONDS`` — modeled straggler skew scale (default ``1e-4``);
* ``limit:N`` — stop injecting after ``N`` faults (lets retries succeed);
* ``KIND@STEP[:RANK]`` — a scripted event at collective-charge step
  ``STEP`` (``crash``/``straggle`` take an optional explicit rank;
  ``corrupt`` fires at the first payload delivery at-or-after the step).

The shared off-spellings (:data:`repro.config.OFF`) parse to ``None`` (no
injection).  Memory pressure is not a fault: a smaller ``memory_words``
budget applies it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import config
from repro.obs import api as obs
from repro.sparse.spmatrix import SpMat

__all__ = [
    "FaultError",
    "RankFailure",
    "CorruptPayload",
    "DeadlineExceeded",
    "FaultEvent",
    "ScriptedFault",
    "FaultPlan",
    "note",
    "resolve_fault_plan",
    "corrupt_copy",
    "payload_checksum",
]

#: default modeled straggler skew scale, in seconds.
DEFAULT_SKEW_SECONDS = 1e-4

#: fault kinds with a per-decision rate (``KIND:RATE``) and a scripted form
#: (``KIND@STEP``); quoted in the error for a spec naming anything else
_RATE_KINDS = ("crash", "corrupt", "straggle", "tear")
#: every ``key:value`` key of the spec grammar
_SPEC_KEYS = ("seed", *_RATE_KINDS, "skew", "checksum", "limit")


# ---------------------------------------------------------------------------
# exceptions
# ---------------------------------------------------------------------------


class FaultError(RuntimeError):
    """Base class of every injected failure (what retry loops catch)."""


class RankFailure(FaultError):
    """A simulated rank died during a collective."""

    def __init__(self, rank: int, step: int, site: str) -> None:
        super().__init__(
            f"rank {rank} failed during {site!r} (fault step {step})"
        )
        self.rank = rank
        self.step = step
        self.site = site


class CorruptPayload(FaultError):
    """The checksum guard caught a payload corrupted in flight."""

    def __init__(self, site: str, step: int) -> None:
        super().__init__(
            f"payload checksum mismatch in {site!r} (fault step {step})"
        )
        self.site = site
        self.step = step


class DeadlineExceeded(FaultError):
    """The machine's modeled critical-path time overran its deadline budget.

    Raised by :class:`~repro.machine.machine.Machine` charge paths when
    ``Machine(deadline=)`` is set.  A :class:`FaultError` so existing
    handlers recognize it as a fault-domain failure, but drivers must *not*
    retry it — the clock only moves forward, so a retry storm would spin
    until abort.  The overrunning charge is already on the ledger when this
    raises (deadlines are detected, not predicted).
    """

    def __init__(self, deadline: float, modeled: float, site: str) -> None:
        super().__init__(
            f"modeled critical-path time {modeled:.6g}s exceeded the "
            f"deadline budget {deadline:.6g}s during {site!r}"
        )
        self.deadline = deadline
        self.modeled = modeled
        self.site = site


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One run event: a fault injected, detected or recovered (see :func:`note`)."""

    kind: str  # crash | corrupt | straggle | tear | mem | spill | deadline | batch
    action: str  # injected | detected | evicted | recovered | degraded | resumed | abandoned
    step: int  # the plan's collective-charge counter at the event
    site: str  # where it happened ("bcast", "spgemm", "mfbc.batch", ...)
    rank: int | None = None
    detail: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        """Comparable identity (used by the determinism tests)."""
        return (self.kind, self.action, self.step, self.site, self.rank)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "action": self.action,
            "step": self.step,
            "site": self.site,
            "rank": self.rank,
            **{f"detail.{k}": v for k, v in self.detail.items()},
        }


class ScriptedFault:
    """An explicit fault at a chosen step (``KIND@STEP[:RANK]``)."""

    __slots__ = ("kind", "step", "rank", "fired")

    def __init__(self, kind: str, step: int, rank: int | None = None) -> None:
        if kind not in _RATE_KINDS:
            raise ValueError(
                f"unknown scripted fault kind {kind!r} "
                f"(expected one of {', '.join(_RATE_KINDS)})"
            )
        if step <= 0:
            raise ValueError(f"scripted fault step must be positive, got {step}")
        self.kind = kind
        self.step = int(step)
        self.rank = None if rank is None else int(rank)
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tail = "" if self.rank is None else f":{self.rank}"
        return f"{self.kind}@{self.step}{tail}"


# ---------------------------------------------------------------------------
# payload corruption + checksums
# ---------------------------------------------------------------------------


def payload_checksum(payload) -> int:
    """CRC-32 over a collective payload's raw bytes (order-deterministic).

    Covers the same payload shapes
    :func:`~repro.machine.collectives.payload_words` sizes: ``SpMat``,
    ndarray, ``None``, and lists/tuples/dicts thereof.
    """
    crc = 0

    def walk(p, crc):
        if p is None:
            return zlib.crc32(b"\x00", crc)
        if isinstance(p, SpMat):
            crc = walk(p.rows, crc)
            crc = walk(p.cols, crc)
            for name in p.monoid.field_names:
                crc = walk(np.asarray(p.vals[name]), crc)
            return crc
        if isinstance(p, np.ndarray):
            return zlib.crc32(np.ascontiguousarray(p).tobytes(), crc)
        if isinstance(p, (list, tuple)):
            for x in p:
                crc = walk(x, crc)
            return crc
        if isinstance(p, dict):
            for k in sorted(p, key=str):
                crc = walk(p[k], crc)
            return crc
        raise TypeError(f"cannot checksum payload of type {type(p).__name__}")

    return walk(payload, crc)


def _corrupt_array(arr: np.ndarray, rng: np.random.Generator):
    """A perturbed *copy* of ``arr``, or ``arr`` itself if uncorruptible."""
    if arr.size == 0:
        return arr
    out = arr.copy()
    flat = out.reshape(-1)
    i = int(rng.integers(flat.size))
    if np.issubdtype(out.dtype, np.floating):
        # multiplicative + additive perturbation: stays finite and positive
        # for the weight/multiplicity fields, so corrupted runs terminate
        flat[i] = flat[i] * 1.5 + 1.0
    elif np.issubdtype(out.dtype, np.integer):
        flat[i] = flat[i] ^ 1  # single bit flip
    elif out.dtype == np.bool_:
        flat[i] = ~flat[i]
    else:
        return arr
    return out


def corrupt_copy(payload, rng: np.random.Generator):
    """Return a copy of ``payload`` with one buffer perturbed.

    The original payload is never mutated (only the in-flight copy is
    damaged).  Returns ``payload`` unchanged when there is nothing to
    corrupt (``None``, empty arrays, non-numeric buffers).
    """
    if payload is None:
        return payload
    if isinstance(payload, np.ndarray):
        return _corrupt_array(payload, rng)
    if isinstance(payload, SpMat):
        for name in payload.monoid.field_names:
            arr = np.asarray(payload.vals[name])
            hit = _corrupt_array(arr, rng)
            if hit is not arr:
                vals = {
                    n: (hit if n == name else np.asarray(payload.vals[n]))
                    for n in payload.monoid.field_names
                }
                return SpMat(
                    payload.nrows,
                    payload.ncols,
                    payload.rows,
                    payload.cols,
                    vals,
                    payload.monoid,
                    canonical=True,
                )
        return payload
    if isinstance(payload, (list, tuple)):
        for i, x in enumerate(payload):
            hit = corrupt_copy(x, rng)
            if hit is not x:
                out = list(payload)
                out[i] = hit
                return type(payload)(out)
        return payload
    if isinstance(payload, dict):
        for k in payload:
            hit = corrupt_copy(payload[k], rng)
            if hit is not payload[k]:
                out = dict(payload)
                out[k] = hit
                return out
        return payload
    return payload


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Parameters (all keyword-only except ``seed``) mirror the spec grammar
    in the module docstring.  A plan with every rate at zero, no script
    and no checksum guard is *inert*: the machine skips its hooks entirely,
    so the hot paths pay nothing (see ``benchmarks/bench_fault_overhead.py``).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash: float = 0.0,
        corrupt: float = 0.0,
        straggle: float = 0.0,
        tear: float = 0.0,
        skew: float = DEFAULT_SKEW_SECONDS,
        checksum: bool = False,
        limit: int | None = None,
        script: "tuple | list" = (),
    ) -> None:
        for name, rate in (
            ("crash", crash),
            ("corrupt", corrupt),
            ("straggle", straggle),
            ("tear", tear),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self.seed = int(seed)
        self.crash = float(crash)
        self.corrupt = float(corrupt)
        self.straggle = float(straggle)
        self.tear = float(tear)
        self.skew = float(skew)
        self.checksum = bool(checksum)
        self.limit = limit if limit is None else int(limit)
        self.script = [
            sc if isinstance(sc, ScriptedFault) else ScriptedFault(*sc)
            for sc in script
        ]
        self.reset()

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Rewind the plan to its initial state (replay the same schedule)."""
        self.rng = np.random.default_rng(self.seed)
        self.step = 0
        self.injected = 0
        self.events: list[FaultEvent] = []
        for sc in self.script:
            sc.fired = False

    @property
    def armed(self) -> bool:
        """True when any hook can do anything (machine skips inert plans)."""
        return bool(
            self.crash
            or self.corrupt
            or self.straggle
            or self.tear
            or self.checksum
            or self.script
        )

    def signature(self) -> list[tuple]:
        """The event sequence as comparable tuples (determinism checks)."""
        return [ev.signature() for ev in self.events]

    def unfired(self) -> list[ScriptedFault]:
        """The scripted one-shots that have not fired: a run that ends with
        any left never exercised what its spec asked for (its step lies
        beyond the collectives the run issued)."""
        return [sc for sc in self.script if not sc.fired]

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan | None":
        """Parse the ``faults`` knob's grammar; see module doc."""
        if config.is_off(spec):
            return None
        kwargs: dict = {}
        script: list[ScriptedFault] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "@" in token:
                kind, _, at = token.partition("@")
                at, _, rank = at.partition(":")
                try:
                    script.append(
                        ScriptedFault(
                            kind.strip(),
                            int(at),
                            int(rank) if rank else None,
                        )
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"bad scripted fault {token!r}: {exc}"
                    ) from exc
                continue
            key, sep, value = token.partition(":")
            key = key.strip().lower()
            if not sep:
                raise ValueError(
                    f"bad fault spec token {token!r} (expected key:value "
                    f"or kind@step)"
                )
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key in _RATE_KINDS or key == "skew":
                    kwargs[key] = float(value)
                elif key == "checksum":
                    kwargs["checksum"] = bool(int(value))
                elif key == "limit":
                    kwargs["limit"] = int(value)
                else:
                    raise ValueError(
                        f"unknown fault spec key {key!r} "
                        f"(expected one of {', '.join(_SPEC_KEYS)})"
                    )
            except ValueError as exc:
                if "unknown fault spec key" in str(exc):
                    raise
                raise ValueError(
                    f"bad value in fault spec token {token!r}: {exc}"
                ) from exc
        return cls(script=script, **kwargs)

    def _may_inject(self) -> bool:
        return self.limit is None or self.injected < self.limit

    # -- decision hooks (called by machine / collectives / spill store) ------

    def on_collective(self, machine, ranks, site: str) -> None:
        """Called once per charged collective; may straggle or crash.

        Raises :class:`RankFailure` when a crash fires.  Straggler skew is
        charged directly to the machine's ledger.
        """
        self.step += 1
        step = self.step
        ranks = np.asarray(ranks)
        for sc in self.script:
            if sc.fired or sc.step != step:
                continue
            if sc.kind == "straggle":
                sc.fired = True
                rank = sc.rank if sc.rank is not None else int(ranks[0])
                self._straggle(machine, rank, site)
            elif sc.kind == "crash":
                sc.fired = True
                rank = sc.rank if sc.rank is not None else int(ranks[0])
                self._crash(machine, rank, site)
        if (
            self.straggle
            and self._may_inject()
            and self.rng.random() < self.straggle
        ):
            self._straggle(machine, int(self.rng.choice(ranks)), site)
        if self.crash and self._may_inject() and self.rng.random() < self.crash:
            self._crash(machine, int(self.rng.choice(ranks)), site)

    def _straggle(self, machine, rank: int, site: str) -> None:
        skew = self.skew * (0.5 + 1.5 * float(self.rng.random()))
        machine.ledger.time[rank] += skew
        note(machine, "straggle", "injected", site=site, rank=rank, skew_s=skew)

    def _crash(self, machine, rank: int, site: str) -> None:
        note(machine, "crash", "injected", site=site, rank=rank)
        raise RankFailure(rank, self.step, site)

    def deliver(self, machine, payload, site: str):
        """Possibly corrupt one in-flight payload → ``(payload, corrupted)``.

        Called by the hooked :class:`~repro.machine.collectives.Group` ops
        (``bcast``, the reduce class, ``allgather``, ``alltoall``) after
        charging; the checksum guard (when armed) is the *Group's* job, so
        detection is a real mechanism rather than a flag.
        """
        fire = False
        for sc in self.script:
            if not sc.fired and sc.kind == "corrupt" and sc.step <= self.step:
                sc.fired = True
                fire = True
                break
        if (
            not fire
            and self.corrupt
            and self._may_inject()
            and self.rng.random() < self.corrupt
        ):
            fire = True
        if not fire:
            return payload, False
        damaged = corrupt_copy(payload, self.rng)
        if damaged is payload:  # nothing corruptible in this payload
            return payload, False
        note(machine, "corrupt", "injected", site=site)
        return damaged, True

    def take_tear(self) -> bool:
        """Should this spill-segment write be torn mid-file?

        Consumed by :class:`~repro.memory.SpillStore` immediately after the
        atomic rename: the written segment is truncated to half its size, so
        the store's write-then-verify read-back must catch it.
        """
        for sc in self.script:
            if not sc.fired and sc.kind == "tear" and sc.step <= self.step:
                sc.fired = True
                return True
        if self.tear and self._may_inject() and self.rng.random() < self.tear:
            return True
        return False

    # -- reporting -----------------------------------------------------------

    def describe(self) -> str:
        parts = [f"seed:{self.seed}"]
        for key in _RATE_KINDS:
            rate = getattr(self, key)
            if rate:
                parts.append(f"{key}:{rate:g}")
        if self.checksum:
            parts.append("checksum:1")
        if self.limit is not None:
            parts.append(f"limit:{self.limit}")
        parts.extend(repr(sc) for sc in self.script)
        return ",".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.describe()}, events={len(self.events)})"


def note(
    machine, kind: str, action: str, *, site: str, rank: int | None = None, **detail
) -> FaultEvent:
    """Record one run event: the one emitter every layer reports through.

    An injected fault, an OOM, a ladder rung, a spill relief, a torn write,
    a deadline, a resume or an elastic recovery goes here.  ``machine`` may
    be ``None`` (a sequential engine).  The event is counted once, as
    ``faults.<action>{kind, site[, rung]}`` in ``machine.metrics``, with or
    without a fault plan or tracing; a plan on ``machine.faults`` also logs
    it in ``events`` (what :meth:`FaultPlan.signature` compares), and an obs
    session gets a ``fault.<kind>`` trace event.
    """
    plan = getattr(machine, "faults", None)
    ev = FaultEvent(
        kind=kind,
        action=action,
        step=0 if plan is None else plan.step,
        site=site,
        rank=rank,
        detail=detail,
    )
    if plan is not None:
        plan.events.append(ev)
        if action == "injected":
            plan.injected += 1
    metrics = getattr(machine, "metrics", None)
    if metrics is not None:
        labels = {"kind": kind, "site": site}
        if "rung" in detail:
            labels["rung"] = detail["rung"]
        metrics.count(f"faults.{action}", 1.0, **labels)
    if obs.enabled():
        obs.complete(f"fault.{kind}", cat="fault", args=ev.to_dict())
    return ev


def resolve_fault_plan(spec: "FaultPlan | str | None") -> "FaultPlan | None":
    """Normalize a faults specification into a plan (or ``None``).

    ``spec`` may be a :class:`FaultPlan` (returned as-is), a spec string, or
    ``None`` for the ambient ``faults`` knob (:mod:`repro.config`; default:
    no injection).
    """
    if isinstance(spec, FaultPlan):
        return spec
    if spec is not None and not isinstance(spec, str):
        raise TypeError(
            f"faults must be a FaultPlan, spec string, or None, got {spec!r}"
        )
    return config.ambient("faults", spec, FaultPlan.from_spec)
