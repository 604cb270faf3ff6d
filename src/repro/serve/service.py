"""``BCService``: betweenness centrality (and friends) as a service.

One-shot CLI/bench runs rebuild the simulated machine, redistribute the
graph, and compute from scratch on every invocation.  The service instead
keeps one engine on a warm :class:`~repro.machine.Machine`; the engine pins
the served graph's distributed adjacency once per version — queries share
that copy, and the replicas it carries stay warm between requests — and
the service answers a concurrent query mix:

* ``bc`` — exact betweenness centrality of every vertex;
* ``bc_source`` — one source's dependency contribution (the unit the
  coalescer turns into shared MFBC sweeps);
* ``approx_bc`` — fixed-pivot sampled BC (``samples``/``seed`` parameters
  expose the latency/accuracy knob per request);
* ``adaptive_bc`` — adaptive-sampling BC with a provable (ε, δ) error
  bound (:func:`repro.core.approx.adaptive_bc`); concurrent requests
  coalesce on their ``(epsilon, delta, seed)`` accuracy key, so identical
  targets share one sampling run and its cache entry;
* ``bfs`` / ``sssp`` / ``widest`` — per-source kernels from
  :mod:`repro.apps`, coalesced the same way;
* ``connected`` / ``triangles`` — whole-graph kernels, answered from the
  version cache after the first computation.

Execution is single-flight: one dispatcher thread drains the coalescer and
runs each batch on the machine, so the ledger stays a coherent single
timeline while any number of client threads submit/poll/cancel.  Faults
compose with serving: a failed batch is answered by the drivers' own
recovery ladder (:mod:`repro.core.ladder`) — a
:class:`~repro.faults.RankFailure` mid-batch recovers elastically (grid
shrink + the pinned adjacency rebuilt from the served graph) and the batch
transparently re-executes on the survivors, anything else burns one of ``retries`` — while what is serve
policy stays here: survivors requeue at the queue front with zero backoff,
the circuit breaker counts the failure, and per-query ``deadline`` budgets
reuse ``Machine(deadline=)`` — the strictest member of a batch arms the
machine's modeled-time guard, and on expiry only the blown queries fail
while the rest retry.

Overload composes with both (:mod:`repro.serve.overload`): every
submission and requeued batch enters the coalescer through a cost-aware
:class:`~repro.serve.overload.AdmissionController` (queue bounds in queries
*and* modeled seconds read off the coalescer, per-client token buckets,
deadline-infeasibility rejection), watermark pressure arms brownout
(stale cache reads, exact ``bc`` downgraded to fixed-pivot ``approx_bc``
or the (ε, δ)-bounded ``adaptive_bc`` per
:attr:`~repro.serve.overload.OverloadConfig.brownout_algorithm`, with
``degraded: true``) and then load shedding
(:class:`~repro.serve.overload.AdmissionError` → HTTP 503 + Retry-After),
a :class:`~repro.serve.overload.CircuitBreaker` fails batches fast during
fault-recovery storms, and a watchdog restarts a dead dispatcher while
:meth:`BCService.health` reports the truthful
``ok``/``degraded``/``overloaded``/``draining`` state.

Every serving event is counted once, in :attr:`BCService.metrics`, which
*is* the machine's counter registry, ``machine.metrics``: the cache, the
admission controller and the breaker count into it beside the run events
of the sweeps (an elastic recovery is ``faults.recovered{kind="crash"}``).
:meth:`BCService.stats` sums it through ``_STATS``, and the ``cache`` /
``overload`` / ``memory`` reports of :mod:`repro.analysis.report` render it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ladder import RecoveryLadder
from repro.core.mfbc import mfbc, mfbc_per_source
from repro.faults.plan import DeadlineExceeded, FaultError
from repro.graphs.graph import Graph
from repro.obs import api as obs
from repro.serve.cache import ScoreCache, cache_key
from repro.serve.coalescer import Coalescer, Query, QueryState
from repro.serve.overload import (
    BROWNOUT_SAMPLES,
    BROWNOUT_SEED,
    STALE_DEPTH,
    STALL_TIMEOUT,
    WATCHDOG_INTERVAL,
    AdmissionController,
    AdmissionError,
    CircuitBreaker,
    CircuitOpen,
    CostEstimator,
    OverloadConfig,
    ServiceState,
)

if TYPE_CHECKING:
    from repro.machine.machine import Machine

__all__ = ["BCService", "QueryError", "ALGORITHMS", "SOURCE_ALGORITHMS"]

#: queries that carry a ``source`` parameter and coalesce into shared sweeps
SOURCE_ALGORITHMS = frozenset({"bc_source", "bfs", "sssp", "widest"})
#: whole-graph queries (no source); identical concurrent requests dedupe
GRAPH_ALGORITHMS = frozenset(
    {"bc", "approx_bc", "adaptive_bc", "connected", "triangles"}
)
ALGORITHMS = SOURCE_ALGORITHMS | GRAPH_ALGORITHMS

#: each ``stats()`` counter: the registry counter it sums, and the labels
#: a series must carry to count (``serve.queries``' outcome is the
#: query's terminal :class:`QueryState` value)
_STATS = {
    "submitted": ("serve.submitted", {}),
    "completed": ("serve.queries", {"outcome": "done"}),
    "failed": ("serve.queries", {"outcome": "failed"}),
    "expired": ("serve.queries", {"outcome": "expired"}),
    "cancelled": ("serve.queries", {"outcome": "cancelled"}),
    "batches": ("serve.batches", {}),
    "swept_sources": ("serve.swept_sources", {}),
    "recoveries": ("faults.recovered", {"kind": "crash"}),
    "retries": ("serve.retries", {}),
    "shed": ("serve.overload.shed", {}),
    "degraded": ("serve.overload.degraded", {}),
    "stale": ("serve.overload.stale", {}),
    "infeasible": ("serve.overload.infeasible", {}),
    "breaker_fastfail": ("serve.overload.breaker_fastfail", {}),
    "dispatcher_restarts": ("serve.overload.dispatcher_restart", {}),
}


class QueryError(RuntimeError):
    """Raised by :meth:`BCService.result` when the query did not succeed."""

    def __init__(self, query_id: str, state: str, message: str) -> None:
        super().__init__(f"query {query_id} {state}: {message}")
        self.query_id = query_id
        self.state = state


class BCService:
    """A persistent query service over one pinned distributed graph.

    Parameters
    ----------
    graph:
        The graph to serve.  Replaceable at runtime via
        :meth:`update_graph`, which bumps the graph version and invalidates
        the score cache.
    machine:
        The :class:`~repro.machine.Machine` to serve on (keyword-only) —
        it carries the run configuration (faults, check, elastic,
        deadline, memory budget; see
        :mod:`repro.config`).  When None, ``Machine(p)`` with the ambient
        configuration.
    p:
        Rank count of the default machine (ignored with ``machine=``).
    policy:
        SpGEMM selection policy for the engine (default: model search).
    batch_window:
        Wall-seconds the dispatcher lingers after the first queued query so
        concurrent submitters coalesce into the same sweep (0 disables).
    max_batch:
        Maximum sweep width ``k`` — the §5.3 time/storage knob applied to
        the query mix.
    cache_capacity:
        LRU capacity of the versioned score cache, and the number of
        finished queries kept pollable (the oldest is dropped first).
    retries:
        Batch re-executions allowed per injected non-rank fault (rank
        failures take the elastic path first, which never burns retries).
    overload:
        An :class:`~repro.serve.overload.OverloadConfig`: admission
        bounds, per-client rate limits and the brownout answer.  The
        defaults admit generously (1024 queued queries, no modeled-seconds
        bound, no rate limit) so light traffic never sees the machinery;
        the watermarks, the circuit breaker and the watchdog are
        :mod:`repro.serve.overload`'s constants (see ``docs/serving.md``).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        machine: "Machine | None" = None,
        p: int = 4,
        policy=None,
        batch_window: float = 0.002,
        max_batch: int = 64,
        cache_capacity: int = 4096,
        retries: int = 2,
        overload: OverloadConfig | None = None,
    ) -> None:
        # deferred imports: repro.dist pulls in the full engine stack
        from repro.dist.engine import DistributedEngine
        from repro.machine.machine import Machine

        if machine is None:
            machine = Machine(p)
        self.machine = machine
        self.engine = DistributedEngine(machine, policy=policy)
        self.graph = graph
        self.graph_version = 0
        self.retries = int(retries)
        #: the one place a serving event is counted: the machine's registry
        self.metrics = machine.metrics
        self.cache = ScoreCache(capacity=cache_capacity, metrics=self.metrics)
        self.coalescer = Coalescer(max_batch=max_batch, window=batch_window)
        self.overload = overload or OverloadConfig()
        self.admission = AdmissionController(
            self.overload, self.coalescer, metrics=self.metrics
        )
        self.breaker = CircuitBreaker(metrics=self.metrics)
        self.estimator = CostEstimator(machine, graph)
        self._queries: dict[str, Query] = {}
        #: ids of finished queries still pollable, oldest first
        self._finished: deque[str] = deque()
        #: guards the query registry and every query state change;
        #: re-entrant so ``cancel`` can hold it across ``_finish``
        self._registry_lock = threading.RLock()
        #: serializes batch execution against graph mutation
        self._exec_lock = threading.Lock()
        self._closed = False
        self._draining = False
        self._stalled = False
        self._inflight = 0
        self._heartbeat = time.monotonic()
        self._stop = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="bcservice-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="bcservice-watchdog", daemon=True
        )
        self._watchdog.start()

    # -- client API ----------------------------------------------------------

    def submit(self, algorithm: str, **params) -> str:
        """Enqueue a query; returns its id for :meth:`poll` / :meth:`result`.

        ``params`` are the keywords of :meth:`_submit`: ``source``,
        ``samples``, ``seed``, ``epsilon``, ``delta``, ``deadline`` and
        ``client``.
        """
        return self._submit(algorithm, **params).id

    def ask(self, algorithm: str, *, timeout: float | None = None, **params) -> dict:
        """:meth:`submit`, then wait up to ``timeout`` wall seconds for the
        query to finish; returns its :meth:`poll` status (terminal unless
        the wait timed out; ``timeout=0`` does not wait).

        The caller holds the query throughout, so it gets the answer even
        if the id stops being pollable first (``cache_capacity`` newer
        queries finished).
        """
        query = self._submit(algorithm, **params)
        query.done.wait(timeout)
        return _status(query)

    def _submit(
        self,
        algorithm: str,
        *,
        source: int | None = None,
        samples: int | None = None,
        seed: int = 0,
        epsilon: float | None = None,
        delta: float | None = None,
        deadline: float | None = None,
        client: str | None = None,
    ) -> Query:
        """Enqueue a query (finished at once on a cache hit or when
        infeasible) and return it.

        ``deadline`` is a modeled-seconds budget for the query's sweep
        (measured from when its batch starts executing on the machine).
        A cache hit at the current graph version completes immediately —
        without touching the machine's ledger — and bypasses admission
        entirely.  A query whose *a-priori* modeled cost already exceeds
        its deadline is finished ``expired`` at submit time and never
        burns a sweep.  Under overload the submission may raise
        :class:`~repro.serve.overload.AdmissionError` (shed) instead of
        queueing; ``client`` names the rate-limit principal when
        per-client token buckets are configured.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        params = self._canonical_params(
            algorithm,
            source=source,
            samples=samples,
            seed=seed,
            epsilon=epsilon,
            delta=delta,
        )
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        cfg = self.overload
        version = self.graph_version
        requested = algorithm
        degraded = False
        if self.admission.brownout_active and algorithm == "bc":
            # brownout: answer exact-BC traffic with cheaper sampling
            # (van der Grinten & Meyerhenke's degrade-don't-fail); the
            # config picks fixed-pivot or the (ε, δ)-bounded adaptive
            # sampler as the downgrade target
            if cfg.brownout_algorithm == "adaptive_bc":
                algorithm = "adaptive_bc"
                params = {
                    "epsilon": float(cfg.brownout_epsilon),
                    "delta": float(cfg.brownout_delta),
                    "seed": BROWNOUT_SEED,
                }
            else:
                algorithm = "approx_bc"
                params = {
                    "samples": min(BROWNOUT_SAMPLES, self.graph.n),
                    "seed": BROWNOUT_SEED,
                }
            degraded = True
        query = Query(
            algorithm=algorithm,
            params=params,
            deadline=deadline,
            degraded=degraded,
            requested_algorithm=requested if degraded else None,
            client=client,
        )
        cached = self.cache.get(cache_key(version, algorithm, params))
        if cached is None and self.admission.brownout_active:
            # brownout: a stale answer beats a shed one — look back through
            # the retained generations before charging the queue
            for v in range(version - 1, max(version - 1 - STALE_DEPTH, -1), -1):
                cached = self.cache.peek(cache_key(v, algorithm, params))
                if cached is not None:
                    self.metrics.count("serve.overload.stale", algorithm=requested)
                    query.degraded = True
                    query.requested_algorithm = requested
                    query.stale_version = version = v
                    break
        if cached is not None:
            query.cache_hit = True
            query.graph_version = version
            self._register(query)
            self._finish(query, QueryState.DONE, result=cached)
            return query
        estimate = self.estimator.estimate(algorithm, params)
        infeasible = None
        budget = self.machine.memory_words
        if budget is not None:
            floor = self.estimator.estimate_memory_words()
            if floor > budget:
                # not even a width-1 sweep fits the per-rank budget: the shrink
                # rung has nothing left to narrow, so fail fast
                infeasible = (
                    f"memory infeasible: modeled peak {floor:.3e} words at batch "
                    f"width 1 exceeds the {budget:.3e}-word per-rank budget "
                    f"before queueing"
                )
        if infeasible is None and deadline is not None and estimate > deadline:
            infeasible = (
                f"deadline infeasible: modeled cost estimate {estimate:.3e}s "
                f"exceeds the {deadline:.3e}s budget before queueing"
            )
        if infeasible is not None:
            self.metrics.count("serve.overload.infeasible", algorithm=requested)
            self._register(query)
            self._finish(query, QueryState.EXPIRED, error=infeasible)
            return query
        if self._draining:
            self.metrics.count("serve.overload.shed", reason="draining")
            raise AdmissionError(
                "draining", "service is draining; not accepting new work", None
            )
        breaker_wait = self.breaker.retry_after()
        if breaker_wait > 0:
            self.metrics.count("serve.overload.shed", reason="circuit_open")
            raise CircuitOpen(
                f"fault circuit open; retry in {breaker_wait:.2f}s", breaker_wait
            )
        query.cost_estimate = estimate
        # registered before the dispatcher can take it: a shed query is
        # never registered, and no unregistered query is ever finished
        with self._registry_lock:
            try:
                self.admission.admit(query)
            except AdmissionError as exc:
                self.metrics.count("serve.overload.shed", reason=exc.reason)
                raise
            self._register(query)
        return query

    def poll(self, query_id: str) -> dict:
        """Status snapshot: state plus result/error once terminal."""
        return _status(self._get(query_id))

    def result(self, query_id: str, timeout: float | None = None):
        """Block until the query finishes; return its payload or raise."""
        q = self._get(query_id)
        if not q.done.wait(timeout):
            raise TimeoutError(f"query {query_id} still {q.state.value}")
        if q.state is QueryState.DONE:
            return q.result
        raise QueryError(q.id, q.state.value, q.error or "no detail")

    def cancel(self, query_id: str) -> bool:
        """Withdraw a queued query; running/terminal queries are not touched."""
        q = self._get(query_id)
        with self._registry_lock:
            if q.state is not QueryState.QUEUED:
                return False
            self._finish(q, QueryState.CANCELLED, error="cancelled")
        self.coalescer.remove(q)
        return True

    def update_graph(self, graph: Graph) -> int:
        """Replace the served graph; returns the new graph version.

        Queued queries are answered against the new version (queries bind
        to the version current when their batch executes); the engine
        releases the old graph's pinned adjacency and pins the new one on
        the next sweep.  The score
        cache retains the newest ``STALE_DEPTH`` older generations
        for brownout stale serving and purges everything beyond them.
        """
        with self._exec_lock:
            self.graph = graph
            self.graph_version += 1
            self.engine.release_invariants()
            self.estimator.rebind(graph)
            self.cache.invalidate(before_version=self.graph_version - STALE_DEPTH)
            self.metrics.count("serve.graph_updates")
            return self.graph_version

    def health(self) -> dict:
        """The truthful health model behind ``GET /v1/healthz``.

        States: ``ok`` (admitting, exact answers) → ``degraded`` (brownout
        armed or fault circuit open; degraded answers flagged) →
        ``overloaded`` (shedding new work, or dispatcher stalled) →
        ``draining`` (close in progress) — plus ``dead`` when the
        dispatcher thread died and the watchdog has not yet revived it.
        ``live`` is True for ``ok``/``degraded`` only; the HTTP endpoint
        maps not-live states to 503.
        """
        snap = self.admission.snapshot()
        breaker = self.breaker.state
        if self._closed or self._draining:
            state = ServiceState.DRAINING
        elif not self._dispatcher.is_alive():
            state = ServiceState.DEAD
        elif snap["shedding"] or self._stalled:
            state = ServiceState.OVERLOADED
        elif snap["brownout"] or breaker.value != "closed":
            state = ServiceState.DEGRADED
        else:
            state = ServiceState.OK
        return {
            "state": state.value,
            "live": state.live,
            "graph_version": self.graph_version,
            "queued": snap["queued_count"],
            "queued_seconds": snap["queued_seconds"],
            "pressure": snap["pressure"],
            "brownout": snap["brownout"],
            "shedding": snap["shedding"],
            "breaker": breaker.value,
            "dispatcher_alive": self._dispatcher.is_alive(),
        }

    def stats(self) -> dict:
        """Service counters + cache stats + coalescing factor: the
        registry's ``_STATS`` sums, as ints."""
        with self._registry_lock:  # submitted and outcomes: one instant
            counters = {
                key: int(self.metrics.total(name, **labels))
                for key, (name, labels) in _STATS.items()
            }
        batches = counters["batches"]
        counters["coalescing_factor"] = (
            counters["swept_sources"] / batches if batches else 0.0
        )
        return {
            "graph_version": self.graph_version,
            "queued": len(self.coalescer),
            "p": self.machine.p,
            "health": self.health()["state"],
            **counters,
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.state.value,
            "cache": self.cache.stats(),
        }

    def close(self, drain_timeout: float | None = 10.0) -> None:
        """Drain queued work, stop the dispatcher, and release the machine.

        While draining, :meth:`health` reports ``draining`` and new
        submissions are rejected with ``AdmissionError("draining")``.
        Queued work is given ``drain_timeout`` wall seconds to finish
        (None waits indefinitely); whatever remains is finished
        ``cancelled`` with a drain message.  Idempotent.
        """
        if self._closed:
            return
        self._draining = True
        deadline = (
            None if drain_timeout is None else time.monotonic() + drain_timeout
        )
        while len(self.coalescer) or self._inflight:
            if deadline is not None and time.monotonic() >= deadline:
                break
            if not self._dispatcher.is_alive() and not len(self.coalescer):
                break
            time.sleep(0.01)
        self._closed = True
        self._stop.set()
        self.coalescer.close()
        for q in self.coalescer.drain():
            self._finish(
                q,
                QueryState.CANCELLED,
                error="service draining: query abandoned at drain timeout",
            )
        self._dispatcher.join(5.0)
        self._watchdog.join(5.0)

    def __enter__(self) -> "BCService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            self._heartbeat = time.monotonic()
            batch = self.coalescer.take(timeout=0.05)
            if batch is None:
                if self._closed and not len(self.coalescer):
                    return
                continue
            with self._registry_lock:
                self._inflight += 1
            try:
                self._execute(batch)
            except Exception as exc:  # defensive: never kill the dispatcher
                for q in batch:
                    self._finish(q, QueryState.FAILED, error=f"{type(exc).__name__}: {exc}")
            finally:
                with self._registry_lock:
                    self._inflight -= 1

    def _watchdog_loop(self) -> None:
        """Supervise the dispatcher: restart it dead, flag it stalled."""
        while not self._stop.wait(WATCHDOG_INTERVAL):
            if self._closed:
                return
            if not self._dispatcher.is_alive():
                self.metrics.count("serve.overload.dispatcher_restart")
                self._heartbeat = time.monotonic()
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="bcservice-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
                continue
            stalled = (
                len(self.coalescer) > 0
                and time.monotonic() - self._heartbeat > STALL_TIMEOUT
            )
            if stalled and not self._stalled:
                self.metrics.count("serve.overload.dispatcher_stall")
            self._stalled = stalled

    def _execute(self, batch: list[Query]) -> None:
        with self._exec_lock:
            version = self.graph_version
            algorithm = batch[0].algorithm
            now = _wall()
            with self._registry_lock:  # a cancel lands before this or not at all
                batch = [q for q in batch if q.state is QueryState.QUEUED]
                for q in batch:
                    q.state = QueryState.RUNNING
            if not batch:
                return
            for q in batch:
                q.queue_seconds = now - q.submitted_wall
            # re-check the cache: an earlier batch may have answered this key
            remaining: list[Query] = []
            for q in batch:
                key = cache_key(version, algorithm, q.params)
                hit = self.cache.peek(key)
                if hit is not None:
                    q.cache_hit = True
                    q.graph_version = version
                    self._finish(q, QueryState.DONE, result=hit)
                else:
                    remaining.append(q)
            if not remaining:
                return
            if not self.breaker.allow():
                wait = self.breaker.retry_after()
                self.metrics.count(
                    "serve.overload.breaker_fastfail", len(remaining), algorithm=algorithm
                )
                for q in remaining:
                    self._finish(
                        q,
                        QueryState.FAILED,
                        error="circuit open after repeated fault-recovery "
                        f"failures; retry in {wait:.2f}s",
                    )
                return
            self._execute_live(algorithm, remaining, version)

    def _execute_live(
        self, algorithm: str, queries: list[Query], version: int
    ) -> None:
        """Run one sweep for ``queries`` (all sharing a coalesce key)."""
        machine = self.machine
        saved_deadline = machine.deadline
        budgets = [q.deadline for q in queries if q.deadline is not None]
        start_modeled = machine.ledger.critical_time()
        if budgets:
            batch_budget = start_modeled + min(budgets)
            machine.deadline = (
                batch_budget
                if saved_deadline is None
                else min(saved_deadline, batch_budget)
            )
        for q in queries:
            q.attempts += 1
        # one ladder per sweep: the shrinks of a ``bc_source`` sweep and the
        # fault rungs of ``_handle_fault`` share its site and state
        ladder = RecoveryLadder(
            self.engine, self.graph, site="serve", retries=self.retries, retry_backoff=0.0
        )
        t0 = _wall()
        try:
            with obs.span(
                "serve.batch",
                cat="serve",
                algorithm=algorithm,
                size=len(queries),
                version=version,
            ) as sp:
                results = self._compute(algorithm, queries, version, ladder)
                modeled_cost = machine.ledger.critical_time() - start_modeled
                sp.set(modeled_cost=modeled_cost)
        except DeadlineExceeded:
            self.breaker.record_success()  # the machine itself is healthy
            elapsed = machine.ledger.critical_time() - start_modeled
            expired = [
                q for q in queries if q.deadline is not None and q.deadline <= elapsed
            ]
            if not expired:  # the machine's own global deadline tripped
                for q in queries:
                    self._finish(q, QueryState.EXPIRED, error="machine deadline exceeded")
                return
            survivors = [q for q in queries if q not in expired]
            for q in expired:
                self._finish(
                    q,
                    QueryState.EXPIRED,
                    error=f"deadline {q.deadline}s modeled exceeded "
                    f"({elapsed:.3e}s elapsed)",
                )
            if survivors:
                self.metrics.count("serve.retries")
                self.admission.requeue(survivors)
            return
        except FaultError as exc:
            self._handle_fault(queries, exc, ladder)
            return
        finally:
            machine.deadline = saved_deadline
            # the engine logs one plan per product for whoever built it to
            # read after a run; nothing reads it here, and a service lives
            # for millions of products
            self.engine.plan_log.clear()
        compute = _wall() - t0
        self.breaker.record_success()
        self.estimator.observe(
            algorithm, self._batch_units(algorithm, queries), modeled_cost
        )
        self.admission.observe_drain(len(queries), compute)
        self.metrics.count("serve.batches", algorithm=algorithm)
        self.metrics.count("serve.swept_sources", len(queries), algorithm=algorithm)
        for q in queries:
            q.compute_seconds = compute
            q.graph_version = version
            q.batch_size = len(queries)
            payload = results[q.id]
            self.cache.put(cache_key(version, algorithm, q.params), payload)
            self._finish(q, QueryState.DONE, result=payload)

    def _handle_fault(
        self, queries: list[Query], exc: FaultError, ladder: RecoveryLadder
    ) -> None:
        """Ask the ladder what a failed batch gets; requeue or fail it.

        The policy — elastic recovery first and free, else one of
        ``retries`` — is the ladder's; requeue-at-front (zero backoff) and
        the circuit breaker are the service's.
        """
        self.breaker.record_failure()
        # the budget is per query across requeues: the batch has burned what
        # its most-retried member has
        ladder.attempt = max(q.attempts for q in queries) - 1
        rung = ladder.advance(
            exc, index=int(self.metrics.total("serve.batches")), width=len(queries)
        )
        if rung is None:
            for q in queries:
                self._finish(
                    q,
                    QueryState.FAILED,
                    error=f"{type(exc).__name__} after {q.attempts} attempts",
                )
            return
        if rung == "elastic":
            # never burns retry budget (each success strictly shrinks p, so
            # storms terminate — same contract as mfbc)
            for q in queries:
                q.attempts -= 1
        else:
            self.metrics.count("serve.retries")
        self.admission.requeue(queries)

    # -- kernels -------------------------------------------------------------

    def _compute(
        self,
        algorithm: str,
        queries: list[Query],
        version: int,
        ladder: RecoveryLadder,
    ) -> dict[str, object]:
        """One sweep answering every query; returns payloads by query id.

        Faults are ``_handle_fault``'s: the whole-graph drivers run with
        ``retries=0`` so the service's budget is the only one a query sees.
        """
        graph = self.graph
        engine = self.engine
        if algorithm in SOURCE_ALGORITHMS:
            # dedupe repeated sources within the batch: one sweep column each
            sources = sorted({int(q.params["source"]) for q in queries})
            order = {s: i for i, s in enumerate(sources)}
            src = np.asarray(sources, dtype=np.int64)
            if algorithm == "bc_source":
                rows = mfbc_per_source(graph, src, engine=engine, ladder=ladder)
            elif algorithm == "bfs":
                from repro.apps import bfs_levels

                rows = bfs_levels(graph, src, engine=engine)
            elif algorithm == "sssp":
                from repro.apps import sssp_distances

                rows = sssp_distances(graph, src, engine=engine)
            else:  # widest
                from repro.apps import widest_path_widths

                rows = widest_path_widths(graph, src, engine=engine)
            return {
                q.id: rows[order[int(q.params["source"])]].copy() for q in queries
            }
        if algorithm == "bc":
            res = mfbc(graph, engine=engine, retries=0)
            payload = res.scores
        elif algorithm == "approx_bc":
            from repro.core.approx import approximate_bc

            params = queries[0].params
            payload = approximate_bc(
                graph,
                int(params["samples"]),
                seed=int(params["seed"]),
                engine=engine,
                retries=0,
            )
        elif algorithm == "adaptive_bc":
            from repro.core.approx import adaptive_bc

            params = queries[0].params
            # raw λ-scale scores: a drop-in for clients expecting ``bc``
            # arrays (brownout downgrades swap algorithms transparently)
            payload = adaptive_bc(
                graph,
                epsilon=float(params["epsilon"]),
                delta=float(params["delta"]),
                seed=int(params["seed"]),
                engine=engine,
                retries=0,
            ).scores
        elif algorithm == "connected":
            from repro.apps import connected_components

            payload = connected_components(graph, engine=engine)
        else:  # triangles
            payload = self._triangles()
        return {q.id: payload for q in queries}

    def _triangles(self):
        from repro.apps import triangle_count

        return triangle_count(self.graph, engine=self.engine)

    def _batch_units(self, algorithm: str, queries: list[Query]) -> float:
        """Source-sweep equivalents a batch charged (estimator feedback)."""
        if algorithm in SOURCE_ALGORITHMS:
            return float(len({int(q.params["source"]) for q in queries}))
        return self.estimator.units(algorithm, queries[0].params)

    # -- bookkeeping ---------------------------------------------------------

    def _canonical_params(
        self,
        algorithm: str,
        *,
        source: int | None,
        samples: int | None,
        seed: int,
        epsilon: float | None = None,
        delta: float | None = None,
    ) -> dict:
        from repro.core.approx import (
            normalize_seed,
            validate_epsilon_delta,
            validate_sample_count,
        )

        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{sorted(ALGORITHMS)}"
            )
        if algorithm in SOURCE_ALGORITHMS:
            if source is None:
                raise ValueError(f"{algorithm} requires a source vertex")
            if not 0 <= int(source) < self.graph.n:
                raise ValueError(
                    f"source {source} out of range [0, {self.graph.n})"
                )
            return {"source": int(source)}
        if source is not None:
            raise ValueError(f"{algorithm} does not take a source")
        if algorithm == "approx_bc":
            if samples is None:
                raise ValueError("approx_bc requires samples")
            count = validate_sample_count(samples, self.graph.n, name="samples")
            return {"samples": count, "seed": normalize_seed(seed)}
        if algorithm == "adaptive_bc":
            eps, dlt = validate_epsilon_delta(
                0.1 if epsilon is None else epsilon,
                0.1 if delta is None else delta,
            )
            return {"epsilon": eps, "delta": dlt, "seed": normalize_seed(seed)}
        return {}

    def _get(self, query_id: str) -> Query:
        with self._registry_lock:
            q = self._queries.get(query_id)
        if q is None:
            raise KeyError(f"unknown query id {query_id!r}")
        return q

    def _register(self, query: Query) -> None:
        """Make ``query`` pollable and count it submitted."""
        with self._registry_lock:
            self._queries[query.id] = query
            self.metrics.count("serve.submitted", algorithm=query.algorithm)

    def _finish(self, q: Query, state: QueryState, *, result=None, error=None) -> None:
        """Move ``q`` to the terminal ``state``; count and note it once.

        The first terminal state wins: a query already finished (say,
        cancelled before its batch ran) keeps its state and is not counted
        again.  Only the newest ``cache.capacity`` finished queries stay
        pollable: the oldest beyond them is forgotten.
        """
        with self._registry_lock:
            if q.state.terminal:
                return
            self.metrics.count("serve.queries", algorithm=q.algorithm, outcome=state.value)
            if state is QueryState.DONE and q.degraded:
                self.metrics.count(
                    "serve.overload.degraded",
                    algorithm=q.requested_algorithm or q.algorithm,
                )
            if obs.enabled():
                obs.complete(
                    "serve.query",
                    cat="serve",
                    wall_dur=q.queue_seconds + q.compute_seconds,
                    args={
                        "id": q.id,
                        "algorithm": q.algorithm,
                        "outcome": state.value,
                        "cache_hit": q.cache_hit,
                        "degraded": q.degraded,
                        "queue_s": q.queue_seconds,
                        "compute_s": q.compute_seconds,
                        "batch": q.batch_size,
                        "attempts": q.attempts,
                    },
                )
            self._finished.append(q.id)
            while len(self._finished) > self.cache.capacity:
                del self._queries[self._finished.popleft()]
            # last: a client woken by ``done`` sees the counts already made
            q.finish(state, result=result, error=error)


def _status(q: Query) -> dict:
    """:meth:`BCService.poll`'s snapshot of one query."""
    out = {
        "id": q.id,
        "algorithm": q.algorithm,
        "params": dict(q.params),
        "state": q.state.value,
        "cache_hit": q.cache_hit,
        "degraded": q.degraded,
        "attempts": q.attempts,
        "batch_size": q.batch_size,
        "graph_version": q.graph_version,
        "queue_seconds": q.queue_seconds,
        "compute_seconds": q.compute_seconds,
    }
    if q.requested_algorithm is not None:
        out["requested_algorithm"] = q.requested_algorithm
    if q.stale_version is not None:
        out["stale_version"] = q.stale_version
    if q.state is QueryState.DONE:
        out["result"] = q.result
    elif q.state.terminal:
        out["error"] = q.error
    return out


def _wall() -> float:
    return time.perf_counter()
