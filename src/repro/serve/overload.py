"""Overload robustness for the serving layer: admit, shed, degrade, break.

The robustness ladder (retry → degrade → recover → restart → abort,
``docs/robustness.md``) defends against *fault*-driven failure; this module
defends against *load*-driven failure — the congestion collapse an
unbounded FIFO plus jitter-free retries produce under sustained
over-subscription.  Four cooperating pieces:

* :class:`AdmissionController` — the one way into the coalescer: bounds
  its queue by **query count and total modeled seconds** (both read off
  the coalescer), enforces per-client token-bucket rate limits, and
  rejects with a structured :class:`AdmissionError` carrying a
  ``Retry-After`` hint.  The α-β cost model gives the service
  something real deployments rarely have: an accurate *a-priori* per-query
  cost estimate (:class:`CostEstimator`), so admission is cost-aware — one
  whole-graph BC query and one BFS row are not the same unit of work.
* **Watermark governor** (inside the controller) — two hysteresis bands
  over queue pressure.  Crossing the *brownout* high watermark arms
  degraded service (stale cache reads, exact ``bc`` downgraded to
  fixed-pivot ``approx_bc``); crossing the *shed* high watermark rejects
  new work outright.  Each band re-arms only below its low watermark, so
  single arrivals and departures never flap at a boundary.  That holds
  while one sweep takes fewer queries than the shed band is wide,
  ``max_batch < (SHED_HIGH - SHED_LOW) * max_queued``: a wider sweep
  (32 of a 64-query queue, whose band is 25.6 queries) crosses the whole
  band, and shedding turns off and on again once per sweep.
* :class:`CircuitBreaker` — wraps the fault-recovery/retry ladder.
  Repeated recovery failures open the circuit: queued batches fail fast
  with a structured error instead of grinding the machine, and a half-open
  probe admits one batch after the reset timeout to test the waters.
* :class:`CostEstimator` — Theorem 5.1's closed-form α-β cost seeded with
  the machine's constants, corrected online by an EWMA of the modeled cost
  the ledger actually charged per swept source.

Everything here is deliberately clock-injectable (``clock=``) so tests run
deterministic; the service wires ``time.monotonic``.  The controller and
the breaker count their events (``serve.overload.state`` /
``serve.overload.breaker``) into the ``metrics=`` registry they are given,
the service's ``BCService.metrics``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from enum import Enum

from repro.obs.metrics import Metrics
from repro.serve.coalescer import Coalescer, Query

__all__ = [
    "ServiceState",
    "OverloadConfig",
    "AdmissionError",
    "TokenBucket",
    "AdmissionController",
    "CircuitBreaker",
    "BreakerState",
    "CircuitOpen",
    "CostEstimator",
]


class ServiceState(str, Enum):
    """The health model: what ``/v1/healthz`` truthfully reports."""

    OK = "ok"  # admitting, serving exact answers
    DEGRADED = "degraded"  # brownout armed (or circuit open): degraded answers
    OVERLOADED = "overloaded"  # shedding new work (or dispatcher stalled)
    DRAINING = "draining"  # close() in progress: finishing queued work only
    DEAD = "dead"  # dispatcher thread died (watchdog restart pending)

    @property
    def live(self) -> bool:
        """True when the endpoint should answer 200 (still taking traffic)."""
        return self in (ServiceState.OK, ServiceState.DEGRADED)


#: brownout band over queue pressure: degrade above high, recover below low
BROWNOUT_HIGH, BROWNOUT_LOW = 0.60, 0.30
#: shed band: reject above high, re-admit below low.  A full queue
#: (pressure 1) is always above ``SHED_HIGH``, so the count bound rejects
#: as ``overloaded``
SHED_HIGH, SHED_LOW = 0.90, 0.50
#: fixed-pivot sample count and pivot seed of brownout-degraded ``bc``
#: answers (a fixed seed lets degraded answers cache)
BROWNOUT_SAMPLES, BROWNOUT_SEED = 8, 0
#: graph-version generations kept for stale-while-degraded serving
STALE_DEPTH = 1
#: consecutive fault-ladder failures that open the circuit, and the wall
#: seconds it stays open before a half-open probe
BREAKER_THRESHOLD, BREAKER_RESET = 5, 5.0
#: watchdog poll interval and the heartbeat age that flags the dispatcher
#: as stalled, wall seconds
WATCHDOG_INTERVAL, STALL_TIMEOUT = 0.2, 30.0
#: Retry-After clamp, wall seconds
RETRY_AFTER_FLOOR, RETRY_AFTER_CAP = 0.05, 30.0
#: EWMA weight of a completed batch's charged cost in the cost estimate
COST_SMOOTHING = 0.3


@dataclass(frozen=True)
class OverloadConfig:
    """Admission bounds, per-client rate limits and the brownout answer.

    Pressure is ``max(queued / max_queued, queued_seconds /
    max_queued_seconds)`` over the coalescer's queue — the count bound protects
    latency under many cheap queries, the modeled-seconds bound under few
    expensive ones.  The watermarks over it, the breaker and the watchdog
    are the module constants above.
    """

    #: queue bound by query count
    max_queued: int = 1024
    #: queue bound by total modeled seconds of admitted-but-unswept work
    #: (None disables the cost-aware bound)
    max_queued_seconds: float | None = None
    #: per-client token-bucket refill rate in queries/second (None disables)
    client_rate: float | None = None
    #: per-client burst capacity (bucket size)
    client_burst: float = 20.0
    #: how brownout answers exact ``bc`` traffic: ``"approx_bc"`` runs the
    #: fixed-pivot estimator (``BROWNOUT_SAMPLES`` pivots, no error bound),
    #: ``"adaptive_bc"`` runs the (ε, δ) adaptive sampler — costlier but the
    #: degraded answer still carries a provable error bound
    brownout_algorithm: str = "approx_bc"
    #: accuracy target for ``brownout_algorithm="adaptive_bc"`` answers
    brownout_epsilon: float = 0.1
    brownout_delta: float = 0.1

    def __post_init__(self) -> None:
        if self.max_queued <= 0:
            raise ValueError(f"max_queued must be positive, got {self.max_queued}")
        if self.max_queued_seconds is not None and self.max_queued_seconds <= 0:
            raise ValueError(
                f"max_queued_seconds must be positive, got {self.max_queued_seconds}"
            )
        if self.brownout_algorithm not in ("approx_bc", "adaptive_bc"):
            raise ValueError(
                f"brownout_algorithm must be 'approx_bc' or 'adaptive_bc', "
                f"got {self.brownout_algorithm!r}"
            )
        from repro.core.approx import validate_epsilon_delta

        validate_epsilon_delta(self.brownout_epsilon, self.brownout_delta)


class AdmissionError(RuntimeError):
    """Submission rejected before queueing (shed, rate limit, queue bound).

    ``reason`` is one of ``overloaded`` / ``queue_seconds`` /
    ``rate_limited`` / ``circuit_open`` / ``draining``;
    ``retry_after`` is the wall-seconds hint surfaced as the HTTP
    ``Retry-After`` header (None when retrying cannot help soon).
    """

    def __init__(self, reason: str, message: str, retry_after: float | None) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class CircuitOpen(AdmissionError):
    """Fail-fast rejection while the fault circuit is open."""

    def __init__(self, message: str, retry_after: float | None) -> None:
        super().__init__("circuit_open", message, retry_after)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``."""

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def try_take(self) -> tuple[bool, float]:
        """Take one token; returns ``(ok, seconds_until_next_token)``."""
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Cost-aware queue bounds, per-client rate limits, and the governor.

    The one way into the :class:`~repro.serve.coalescer.Coalescer` it
    bounds (:meth:`admit`; :meth:`requeue` never rejects), counting nothing
    of its own.  The watermarks are evaluated at each rise and, if the queue
    shrank since (a take, a cancel, a drain), before each read: the queue
    only shrinks in between, so the pressure acted on is the lowest since.
    """

    def __init__(
        self,
        config: OverloadConfig,
        coalescer: Coalescer,
        *,
        metrics: Metrics,
        clock=time.monotonic,
    ) -> None:
        self.config = config
        self.coalescer = coalescer
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.Lock()
        self._evaluated = 0  # queue depth at the last evaluation
        self.peak_queued = 0
        self._brownout = self._shedding = False
        self._buckets: dict[str, TokenBucket] = {}
        #: EWMA of wall seconds the dispatcher needed per drained query —
        #: the drain rate behind the Retry-After hint
        self._wall_per_query = 0.01

    # -- the watermark governor ----------------------------------------------

    @property
    def brownout_active(self) -> bool:
        """Brownout armed; a forced value holds until the queue changes."""
        with self._lock:
            self._settle_locked()
            return self._brownout

    @brownout_active.setter
    def brownout_active(self, on: bool) -> None:
        with self._lock:
            self._settle_locked()
            self._brownout = on

    def _pressure(self, count: int, seconds: float) -> float:
        p = count / self.config.max_queued
        if self.config.max_queued_seconds is not None:
            p = max(p, seconds / self.config.max_queued_seconds)
        return p

    def _settle_locked(self) -> None:
        if len(self.coalescer) < self._evaluated:
            self._evaluate_locked(self.coalescer.depth())

    def _evaluate_locked(self, depth: tuple[int, float]) -> None:
        self._evaluated = count = depth[0]
        self.peak_queued = max(self.peak_queued, count)
        p = self._pressure(*depth)
        shed, brown = self._shedding, self._brownout
        if p >= SHED_HIGH:
            self._shedding = True
        elif self._shedding and p <= SHED_LOW:
            self._shedding = False
        if p >= BROWNOUT_HIGH:
            self._brownout = True
        elif self._brownout and p <= BROWNOUT_LOW and not self._shedding:
            self._brownout = False
        if self._shedding != shed:
            self.metrics.count(
                "serve.overload.state",
                transition="shed_on" if self._shedding else "shed_off",
            )
        if self._brownout != brown:
            self.metrics.count(
                "serve.overload.state",
                transition="brownout_on" if self._brownout else "brownout_off",
            )

    # -- into the queue -------------------------------------------------------

    def admit(self, query: Query) -> None:
        """Queue ``query`` or raise: shed state → modeled-seconds bound →
        ``query.client``'s rate limit.  A full queue is pressure 1, above
        ``SHED_HIGH``, so the count bound needs no check of its own; queued
        queries hold no blocks, so memory is no queue bound."""
        cfg = self.config
        with self._lock:
            self._settle_locked()
            if self._shedding:
                raise AdmissionError(
                    "overloaded",
                    "service is shedding load (queue pressure above the shed "
                    "watermark)",
                    self._retry_after_locked(),
                )
            if cfg.max_queued_seconds is not None:
                queued = self.coalescer.depth()[1]
                if queued + query.cost_estimate > cfg.max_queued_seconds:
                    raise AdmissionError(
                        "queue_seconds",
                        f"queued work at {queued:.3e}s modeled "
                        f"(+{query.cost_estimate:.3e}s would exceed the "
                        f"{cfg.max_queued_seconds:.3e}s budget)",
                        self._retry_after_locked(),
                    )
            if cfg.client_rate is not None:
                key = query.client or ""
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = self._buckets[key] = TokenBucket(
                        cfg.client_rate, cfg.client_burst, self._clock
                    )
                ok, wait = bucket.try_take()
                if not ok:
                    raise AdmissionError(
                        "rate_limited",
                        f"client {key or '(anonymous)'} over its "
                        f"{cfg.client_rate}/s rate limit",
                        max(wait, RETRY_AFTER_FLOOR),
                    )
            self._evaluate_locked(self.coalescer.put(query))

    def requeue(self, queries: list[Query]) -> None:
        """Put retry / deadline survivors back first; never rejects."""
        with self._lock:
            self._settle_locked()
            self._evaluate_locked(self.coalescer.putback(queries))

    def observe_drain(self, n_queries: int, wall_seconds: float) -> None:
        """Feed the drain-rate EWMA behind the Retry-After hint."""
        if n_queries <= 0:
            return
        per = wall_seconds / n_queries
        with self._lock:
            self._wall_per_query += 0.3 * (per - self._wall_per_query)

    def retry_after(self) -> float:
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        est = len(self.coalescer) * self._wall_per_query
        return min(max(est, RETRY_AFTER_FLOOR), RETRY_AFTER_CAP)

    def snapshot(self) -> dict:
        with self._lock:
            self._settle_locked()
            count, seconds = self.coalescer.depth()
            return {
                "queued_count": count,
                "queued_seconds": seconds,
                "peak_queued": self.peak_queued,
                "pressure": self._pressure(count, seconds),
                "brownout": self._brownout,
                "shedding": self._shedding,
            }


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Fail fast after repeated fault-ladder failures; probe to recover.

    ``record_failure`` is called once per batch that entered the
    fault-recovery ladder and did not come back clean; ``record_success``
    once per batch the machine completed.  ``BREAKER_THRESHOLD``
    consecutive failures open the circuit; after ``BREAKER_RESET`` wall
    seconds one probe batch is allowed through (half-open) — its outcome
    closes or re-opens the circuit.  Each transition counts one
    ``serve.overload.breaker{state}`` event.
    """

    def __init__(self, *, metrics: Metrics, clock=time.monotonic) -> None:
        self._clock = clock
        self.metrics = metrics
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a batch execute now?  Transitions open → half-open when due."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            now = self._clock()
            if self._state is BreakerState.OPEN:
                if now - self._opened_at < BREAKER_RESET:
                    return False
                self._transition_locked(BreakerState.HALF_OPEN)
                self._probe_inflight = True
                return True
            # half-open: exactly one probe at a time
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            if self._state is not BreakerState.CLOSED:
                self._transition_locked(BreakerState.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probe_inflight = False
            if self._state is BreakerState.HALF_OPEN or (
                self._state is BreakerState.CLOSED
                and self._failures >= BREAKER_THRESHOLD
            ):
                self._opened_at = self._clock()
                self._transition_locked(BreakerState.OPEN)

    def retry_after(self) -> float:
        with self._lock:
            if self._state is not BreakerState.OPEN:
                return 0.0
            return max(0.0, BREAKER_RESET - (self._clock() - self._opened_at))

    def _transition_locked(self, state: BreakerState) -> None:
        self._state = state
        self.metrics.count("serve.overload.breaker", state=state.value)


class CostEstimator:
    """A-priori modeled-seconds cost per query, corrected online.

    The seed estimate prices one source sweep from Theorem 5.1's α-β cost
    at the machine's constants (bandwidth + latency terms per source, plus
    ~``m·log₂n`` elementary operations and the per-product overhead over a
    ``log₂n``-deep frontier evolution).  Every completed batch then feeds
    the ledger's *actually charged* modeled cost back through a
    per-algorithm EWMA (weight ``COST_SMOOTHING``), so the estimate
    converges on the served graph's real frontier behavior within a few
    sweeps.
    """

    def __init__(self, machine, graph) -> None:
        self.machine = machine
        self._lock = threading.Lock()
        self._per_unit: dict[str, float] = {}
        self.rebind(graph)

    def rebind(self, graph) -> None:
        """Point at a new graph (version swap); learned rates reset."""
        with self._lock:
            self._n = int(graph.n)
            self._m = max(int(graph.nnz_adjacency), 1)
            self._per_unit.clear()

    def _baseline_per_source(self) -> float:
        from repro.analysis.theory import (
            mfbc_bandwidth_words,
            mfbc_latency_messages,
        )

        n, m = self._n, self._m
        p = max(int(self.machine.p), 1)
        cost = self.machine.cost
        depth = max(math.log2(max(n, 2)), 1.0)
        words = mfbc_bandwidth_words(n, m, p) / max(n, 1)
        msgs = mfbc_latency_messages(n, m, p) / max(n, 1)
        ops = m * depth
        overhead = 2.0 * depth * cost.product_overhead
        return (
            words * cost.beta
            + msgs * cost.alpha
            + ops / cost.compute_rate
            + overhead
        )

    def units(self, algorithm: str, params: dict) -> float:
        """How many source-sweep equivalents the query costs."""
        if algorithm == "bc":
            return float(self._n)
        if algorithm == "approx_bc":
            return float(params.get("samples", 1))
        if algorithm == "adaptive_bc":
            from repro.core.approx import planned_sample_bound

            return float(
                max(
                    planned_sample_bound(
                        self._n,
                        float(params.get("epsilon", 0.1)),
                        float(params.get("delta", 0.1)),
                    ),
                    1,
                )
            )
        return 1.0

    def estimate(self, algorithm: str, params: dict) -> float:
        """Modeled seconds this query will charge to the ledger."""
        with self._lock:
            rate = self._per_unit.get(algorithm)
        if rate is None:
            rate = self._baseline_per_source()
        return self.units(algorithm, params) * rate

    def estimate_memory_words(self) -> float:
        """Modeled per-rank peak words of a width-1 sweep: the floor the
        memory ladder can shrink any query's sweep down to.

        Theorem 5.1's memory form: the resting adjacency footprint
        ``M = O(c·m/p)`` plus the ``n·n_b/p`` frontier/score working set
        of an ``n_b``-wide batch, at ``n_b = 1``.
        """
        from repro.analysis.theory import mfbc_memory_words

        with self._lock:
            n, m = self._n, self._m
        p = max(int(self.machine.p), 1)
        return mfbc_memory_words(n, m, p) + n / p

    def observe(
        self, algorithm: str, units: float, modeled_seconds: float
    ) -> None:
        """Fold one completed batch's charged cost into the EWMA."""
        if units <= 0 or modeled_seconds < 0:
            return
        per = modeled_seconds / units
        with self._lock:
            prev = self._per_unit.get(algorithm)
            if prev is None:
                self._per_unit[algorithm] = per
            else:
                self._per_unit[algorithm] = prev + COST_SMOOTHING * (per - prev)
