"""Overload robustness: admission, shedding, brownout, breaker, watchdog.

Unit-level pieces run against an injected fake clock so watermark and
breaker transitions are deterministic; service-level tests use the same
tiny graph as ``test_serve.py`` and force states directly (the soak
harness in ``scripts/soak.py`` exercises the emergent behavior under real
overload).
"""

from __future__ import annotations

import dataclasses
import re
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import uniform_random_graph_nm
from repro.machine import Machine
from repro.obs import Metrics
from repro.serve import (
    AdmissionController,
    AdmissionError,
    BCService,
    CircuitBreaker,
    CircuitOpen,
    Coalescer,
    CostEstimator,
    OverloadConfig,
    Query,
    QueryError,
    QueryState,
    ServiceState,
    TokenBucket,
)
from repro.serve.overload import (
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    BROWNOUT_HIGH,
    BROWNOUT_LOW,
    BROWNOUT_SAMPLES,
    BROWNOUT_SEED,
    COST_SMOOTHING,
    RETRY_AFTER_CAP,
    RETRY_AFTER_FLOOR,
    SHED_HIGH,
    SHED_LOW,
    BreakerState,
)

from conftest import park

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph_nm(36, 4.0, seed=7)


def _service(graph, **kw):
    """A service on ``Machine(p=4, <the machine keywords among kw>)``."""
    kw.setdefault("batch_window", 0.05)
    if "machine" not in kw:
        names = ("faults", "check", "elastic", "memory_words")
        kw["machine"] = Machine(4, **{k: kw.pop(k) for k in names if k in kw})
    return BCService(graph, **kw)


def _reference_row(graph, source, p=4):
    from repro.core.mfbc import mfbc_per_source
    from repro.dist.engine import DistributedEngine
    from repro.machine.machine import Machine

    engine = DistributedEngine(Machine(p))
    rows = mfbc_per_source(graph, np.array([source]), engine=engine)
    return rows[0]


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# config validation + health states
# ---------------------------------------------------------------------------


class TestConfig:
    def test_defaults_valid(self):
        cfg = OverloadConfig()
        assert cfg.max_queued == 1024
        assert cfg.max_queued_seconds is None

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_queued": 0},
            {"max_queued_seconds": -1.0},
            {"brownout_algorithm": "pagerank"},
            {"brownout_algorithm": "adaptive_bc", "brownout_epsilon": 0.0},
            {"brownout_algorithm": "adaptive_bc", "brownout_delta": 1.5},
            {"brownout_algorithm": "bc"},  # not a downgrade target
            {"max_queued_seconds": 0.0},
            # the accuracy target is checked under the default algorithm too
            {"brownout_epsilon": 0.0},
            {"brownout_epsilon": float("inf")},
            {"brownout_delta": 0.0},
            {"brownout_delta": 1.0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            OverloadConfig(**kw)

    def test_docs_table_is_the_config(self):
        # docs/serving.md's OverloadConfig table names every field, in order
        text = (ROOT / "docs" / "serving.md").read_text()
        section = text.split("`OverloadConfig` field |", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, re.MULTILINE)
        fields = dataclasses.fields(OverloadConfig)
        assert [name for name, _ in rows] == [f.name for f in fields]
        assert [default for _, default in rows] == [str(f.default) for f in fields]

    def test_service_state_liveness(self):
        assert ServiceState.OK.live and ServiceState.DEGRADED.live
        for s in (ServiceState.OVERLOADED, ServiceState.DRAINING, ServiceState.DEAD):
            assert not s.live


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take()[0] for _ in range(3)] == [True] * 3
        ok, wait = bucket.try_take()
        assert not ok and wait == pytest.approx(0.5)
        clock.advance(0.5)  # one token refilled
        assert bucket.try_take()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------------
# admission controller + watermark governor
# ---------------------------------------------------------------------------


def _gate(cfg=None, *, max_batch=64, clock=None):
    """An admission controller over a fresh coalescer, and the coalescer."""
    queue = Coalescer(max_batch=max_batch)
    ctl = AdmissionController(
        cfg or OverloadConfig(), queue, metrics=Metrics(), clock=clock or FakeClock()
    )
    return ctl, queue


def _q(cost=0.0, client=None):
    return Query("bc_source", {"source": 0}, cost_estimate=cost, client=client)


class EagerGovernor:
    """Reference model: the queue as a list of costs, with the watermarks
    evaluated after every single query that joins or leaves it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.costs: list[float] = []
        self.peak = 0
        self.shedding = self.brownout = False
        self.transitions = dict.fromkeys(
            ("shed_on", "shed_off", "brownout_on", "brownout_off"), 0
        )

    def pressure(self):
        p = len(self.costs) / self.cfg.max_queued
        if self.cfg.max_queued_seconds is not None:
            p = max(p, sum(self.costs, 0.0) / self.cfg.max_queued_seconds)
        return p

    def feed(self):
        self.peak = max(self.peak, len(self.costs))
        p = self.pressure()
        shed = p >= SHED_HIGH or (self.shedding and p > SHED_LOW)
        brown = p >= BROWNOUT_HIGH or (
            self.brownout and (p > BROWNOUT_LOW or shed)
        )
        for name, was, now in (
            ("shed", self.shedding, shed),
            ("brownout", self.brownout, brown),
        ):
            if was != now:
                self.transitions[f"{name}_{'on' if now else 'off'}"] += 1
        self.shedding, self.brownout = shed, brown

    def snapshot(self):
        return {
            "queued_count": len(self.costs),
            "queued_seconds": sum(self.costs, 0.0),
            "peak_queued": self.peak,
            "pressure": self.pressure(),
            "brownout": self.brownout,
            "shedding": self.shedding,
        }


class TestAdmission:
    def test_count_bound(self):
        # a full queue is pressure 1, above the shed watermark: the count
        # bound rejects as ``overloaded``
        ctl, queue = _gate(OverloadConfig(max_queued=2), max_batch=1)
        ctl.admit(_q(0.1))
        ctl.admit(_q(0.1))
        with pytest.raises(AdmissionError) as exc:
            ctl.admit(_q(0.1))
        assert exc.value.reason == "overloaded"
        assert exc.value.retry_after is not None
        queue.take(timeout=0)  # pressure 0.5: at the shed low watermark
        ctl.admit(_q(0.1))  # bound frees up

    @settings(max_examples=200, deadline=None)
    @given(
        max_queued=st.integers(1, 40),
        max_queued_seconds=st.none() | st.floats(0.01, 10.0),
        max_batch=st.integers(1, 8),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["admit", "take", "cancel", "requeue", "drain", "read"]
                ),
                st.floats(0.0, 2.0),
                st.integers(0, 1000),
            ),
            max_size=150,
        ),
    )
    def test_count_bound_holds_and_rejects_as_overloaded(
        self, max_queued, max_queued_seconds, max_batch, ops
    ):
        cfg = OverloadConfig(
            max_queued=max_queued, max_queued_seconds=max_queued_seconds
        )
        ctl, queue = _gate(cfg, max_batch=max_batch)
        model = EagerGovernor(cfg)
        queued: list[Query] = []  # the coalescer's order
        taken: list[list[Query]] = []  # swept batches not yet requeued

        def read():  # a read settles the controller: it must agree in full
            assert ctl.snapshot() == model.snapshot()
            assert {
                t: ctl.metrics.get_count("serve.overload.state", transition=t)
                for t in model.transitions
            } == model.transitions

        for op, cost, pick in ops:
            if op == "admit":
                full = len(queued) >= max_queued
                q = _q(cost)
                try:
                    ctl.admit(q)
                except AdmissionError as exc:
                    seconds = sum(model.costs, 0.0) + cost
                    if model.shedding:
                        assert exc.reason == "overloaded"
                    else:
                        assert exc.reason == "queue_seconds"
                        assert seconds > max_queued_seconds
                    continue
                assert not full and not model.shedding
                queued.append(q)
                model.costs.append(cost)
                model.feed()
            elif op == "take":
                batch = queue.take(timeout=0)
                if batch is None:
                    assert not queued
                    continue
                assert batch == queued[: len(batch)]
                taken.append(batch)
                for _ in batch:
                    del queued[0]
                    del model.costs[0]
                    model.feed()
            elif op == "cancel":
                if not queued:
                    continue
                i = pick % len(queued)
                q = queued.pop(i)
                q.state = QueryState.CANCELLED
                assert queue.remove(q)
                del model.costs[i]
                model.feed()
            elif op == "requeue":
                if not taken:
                    continue
                batch = taken.pop(pick % len(taken))
                ctl.requeue(batch)
                queued[:0] = batch
                for q in reversed(batch):
                    model.costs.insert(0, q.cost_estimate)
                    model.feed()
            elif op == "drain":
                assert queue.drain() == queued
                while queued:
                    queued.pop()
                    model.costs.pop()
                    model.feed()
            else:
                read()
        read()

    def test_modeled_seconds_bound(self):
        ctl, _ = _gate(OverloadConfig(max_queued=100, max_queued_seconds=1.0))
        ctl.admit(_q(0.8))
        with pytest.raises(AdmissionError) as exc:
            ctl.admit(_q(0.3))
        assert exc.value.reason == "queue_seconds"
        ctl.admit(_q(0.1))  # still fits

    def test_rate_limit_per_client(self):
        clock = FakeClock()
        ctl, _ = _gate(OverloadConfig(client_rate=1.0, client_burst=2.0), clock=clock)
        ctl.admit(_q(client="a"))
        ctl.admit(_q(client="a"))
        with pytest.raises(AdmissionError) as exc:
            ctl.admit(_q(client="a"))
        assert exc.value.reason == "rate_limited"
        ctl.admit(_q(client="b"))  # buckets are per client
        clock.advance(1.0)
        ctl.admit(_q(client="a"))  # refilled

    def test_hysteresis_bands(self):
        ctl, queue = _gate(OverloadConfig(max_queued=10), max_batch=1)
        for _ in range(6):  # pressure 0.6 → brownout arms
            ctl.admit(_q())
        assert ctl.brownout_active and not ctl.snapshot()["shedding"]
        for _ in range(3):  # pressure 0.9 → shedding arms
            ctl.admit(_q())
        assert ctl.snapshot()["shedding"]
        with pytest.raises(AdmissionError) as exc:
            ctl.admit(_q())
        assert exc.value.reason == "overloaded"
        for _ in range(4):  # pressure 0.5 → shed re-arms (low watermark)
            queue.take(timeout=0)
        assert not ctl.snapshot()["shedding"]
        assert ctl.brownout_active  # still above its own low watermark
        for _ in range(3):  # pressure 0.2 < 0.3 → brownout recovers
            queue.take(timeout=0)
        assert not ctl.brownout_active
        # no flapping: 0.4 is inside both bands → neither re-arms
        for _ in range(2):
            ctl.admit(_q())
        assert not ctl.brownout_active and not ctl.snapshot()["shedding"]

    @pytest.mark.parametrize("sweep, flaps", [(32, 1), (16, 0)])
    def test_a_sweep_wider_than_the_shed_band_toggles_shedding(self, sweep, flaps):
        # the soak's queue: 64 queued, a 0.9 -> 0.5 band of 25.6 queries;
        # its max_batch of 32 is wider than the band, 16 is not
        cfg = OverloadConfig(max_queued=64)
        assert (sweep > (SHED_HIGH - SHED_LOW) * cfg.max_queued) == bool(flaps)
        ctl, queue = _gate(cfg, max_batch=sweep)

        def fill():  # clients admit until shedding rejects them
            with pytest.raises(AdmissionError):
                while True:
                    ctl.admit(_q())

        def transitions():
            return [
                ctl.metrics.get_count("serve.overload.state", transition=t)
                for t in ("shed_on", "shed_off")
            ]

        fill()
        assert ctl.snapshot()["shedding"] and transitions() == [1, 0]
        assert len(queue.take(timeout=0)) == sweep  # one sweep
        fill()
        assert transitions() == [1 + flaps, flaps]

    def test_requeue_never_rejects(self):
        ctl, queue = _gate(OverloadConfig(max_queued=1))
        ctl.admit(_q(0.5))
        swept = queue.take(timeout=0)
        ctl.admit(_q(0.5))  # the queue is full again
        ctl.requeue(swept)  # retry: over the bound, still accepted
        snap = ctl.snapshot()
        assert snap["queued_count"] == 2 == len(queue)
        assert snap["queued_seconds"] == pytest.approx(1.0)
        assert snap["peak_queued"] == 2

    def test_retry_after_tracks_queue_depth(self):
        ctl, _ = _gate()
        assert ctl.retry_after() == pytest.approx(RETRY_AFTER_FLOOR)  # empty
        ctl.observe_drain(1, 1.0)  # ~0.3s per query after one EWMA step
        for _ in range(5):
            ctl.admit(_q())
        assert RETRY_AFTER_FLOOR < ctl.retry_after() < RETRY_AFTER_CAP
        ctl.requeue([_q() for _ in range(1000)])
        assert ctl.retry_after() == pytest.approx(RETRY_AFTER_CAP)  # clamped

    def test_snapshot_shape(self):
        ctl, _ = _gate()
        ctl.admit(_q(0.25))
        snap = ctl.snapshot()
        assert snap["queued_count"] == 1
        assert snap["queued_seconds"] == pytest.approx(0.25)
        assert snap["peak_queued"] == 1
        assert 0 <= snap["pressure"] <= 1
        assert snap["brownout"] is False and snap["shedding"] is False


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


def _trip(brk):
    """Open ``brk`` with ``BREAKER_THRESHOLD`` consecutive failures."""
    for _ in range(BREAKER_THRESHOLD):
        brk.record_failure()
    assert brk.state is BreakerState.OPEN
    return brk


class TestBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        brk = CircuitBreaker(metrics=Metrics(), clock=clock)
        for _ in range(BREAKER_THRESHOLD - 1):
            brk.record_failure()
        brk.record_success()  # success resets the consecutive count
        for _ in range(BREAKER_THRESHOLD - 1):
            brk.record_failure()
        assert brk.state is BreakerState.CLOSED
        brk.record_failure()
        assert brk.state is BreakerState.OPEN
        assert not brk.allow()
        assert brk.retry_after() == pytest.approx(BREAKER_RESET)

    def test_half_open_single_probe_then_close(self):
        clock = FakeClock()
        brk = _trip(CircuitBreaker(metrics=Metrics(), clock=clock))
        assert not brk.allow()
        clock.advance(BREAKER_RESET)
        assert brk.allow()  # the probe
        assert brk.state is BreakerState.HALF_OPEN
        assert not brk.allow()  # exactly one probe at a time
        brk.record_success()
        assert brk.state is BreakerState.CLOSED
        assert brk.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        brk = _trip(CircuitBreaker(metrics=Metrics(), clock=clock))
        clock.advance(BREAKER_RESET)
        assert brk.allow()
        brk.record_failure()
        assert brk.state is BreakerState.OPEN
        assert brk.metrics.get_count("serve.overload.breaker", state="open") == 2
        assert not brk.allow()


# ---------------------------------------------------------------------------
# cost estimator
# ---------------------------------------------------------------------------


class TestEstimator:
    def test_baseline_scales_with_units(self, graph):
        from repro.machine.machine import Machine

        est = CostEstimator(Machine(4), graph)
        one = est.estimate("bc_source", {"source": 0})
        assert one > 0
        assert est.estimate("bc", {}) == pytest.approx(one * graph.n)
        assert est.estimate("approx_bc", {"samples": 5, "seed": 0}) == (
            pytest.approx(one * 5)
        )

    def test_adaptive_units_follow_planned_bound(self, graph):
        from repro.core.approx import planned_sample_bound
        from repro.machine.machine import Machine

        est = CostEstimator(Machine(4), graph)
        one = est.estimate("bc_source", {"source": 0})
        planned = planned_sample_bound(graph.n, 0.1, 0.1)
        assert planned >= 1
        assert est.estimate(
            "adaptive_bc", {"epsilon": 0.1, "delta": 0.1, "seed": 0}
        ) == pytest.approx(one * planned)
        # a looser target prices cheaper
        assert est.units(
            "adaptive_bc", {"epsilon": 0.5, "delta": 0.1}
        ) <= planned

    def test_observe_corrects_the_estimate(self, graph):
        from repro.machine.machine import Machine

        est = CostEstimator(Machine(4), graph)
        baseline = est.estimate("bc_source", {"source": 0})
        est.observe("bc_source", units=1.0, modeled_seconds=baseline * 10)
        first = est.estimate("bc_source", {"source": 0})
        assert first == pytest.approx(baseline * 10)  # first sample adopted
        est.observe("bc_source", units=1.0, modeled_seconds=baseline * 10)
        assert est.estimate("bc_source", {"source": 0}) == pytest.approx(
            baseline * 10
        )
        # later samples move it by the EWMA weight
        est.observe("bc_source", units=1.0, modeled_seconds=baseline * 20)
        assert est.estimate("bc_source", {"source": 0}) == pytest.approx(
            baseline * (10 + COST_SMOOTHING * 10)
        )

    def test_rebind_resets_learned_rates(self, graph):
        from repro.machine.machine import Machine

        est = CostEstimator(Machine(4), graph)
        baseline = est.estimate("bc_source", {"source": 0})
        est.observe("bc_source", units=1.0, modeled_seconds=baseline * 100)
        est.rebind(graph)
        assert est.estimate("bc_source", {"source": 0}) == pytest.approx(baseline)


# ---------------------------------------------------------------------------
# service integration: shed / brownout / stale / infeasible
# ---------------------------------------------------------------------------


    def test_memory_estimate_follows_theory_form(self, graph):
        from repro.analysis.theory import mfbc_memory_words
        from repro.machine.machine import Machine

        est = CostEstimator(Machine(4), graph)
        floor = est.estimate_memory_words()
        # the estimator's m is the adjacency nnz (2m when undirected)
        assert floor == pytest.approx(
            mfbc_memory_words(est._n, est._m, 4) + graph.n / 4
        )


class TestServiceOverload:
    def test_queue_bound_sheds_and_recovers(self, graph):
        cfg = OverloadConfig(max_queued=2)
        with _service(graph, overload=cfg, batch_window=0.0) as svc:
            with svc._exec_lock:  # park the dispatcher so the queue fills
                ids = [park(svc, source=4)]
                ids += [svc.submit("bc_source", source=i) for i in range(2)]
                with pytest.raises(AdmissionError) as exc:
                    svc.submit("bc_source", source=5)
                assert exc.value.reason == "overloaded"
                assert svc.health()["state"] == "overloaded"
                assert svc.stats()["shed"] == 1
            for qid in ids:
                svc.result(qid, timeout=60.0)
            assert svc.health()["state"] in ("ok", "degraded")
            svc.submit("bc_source", source=6)  # admitting again

    def test_brownout_downgrades_bc_and_marks_degraded(self, graph):
        with _service(graph) as svc:
            svc.admission.brownout_active = True
            qid = svc.submit("bc")
            degraded = svc.result(qid, timeout=60.0)
            status = svc.poll(qid)
            svc.admission.brownout_active = False
            exact = svc.result(svc.submit("bc"), timeout=60.0)
        assert status["degraded"] is True
        assert status["requested_algorithm"] == "bc"
        assert status["algorithm"] == "approx_bc"
        assert not np.array_equal(degraded, exact)

    def test_brownout_downgrades_to_adaptive_when_configured(self, graph):
        cfg = OverloadConfig(
            brownout_algorithm="adaptive_bc",
            brownout_epsilon=0.4,
            brownout_delta=0.2,
        )
        with _service(graph, overload=cfg) as svc:
            svc.admission.brownout_active = True
            qid = svc.submit("bc")
            degraded = svc.result(qid, timeout=60.0)
            status = svc.poll(qid)
            # the degraded answer shares the adaptive cache key
            same = svc.result(
                svc.submit(
                    "adaptive_bc", epsilon=0.4, delta=0.2, seed=BROWNOUT_SEED
                ),
                timeout=60.0,
            )
            svc.admission.brownout_active = False
            exact = svc.result(svc.submit("bc"), timeout=60.0)
        assert status["degraded"] is True
        assert status["requested_algorithm"] == "bc"
        assert status["algorithm"] == "adaptive_bc"
        assert np.array_equal(degraded, same)
        assert not np.array_equal(degraded, exact)
        assert degraded.shape == exact.shape  # drop-in λ-scale payload

    def test_brownout_answers_cache_under_approx_key(self, graph):
        with _service(graph) as svc:
            svc.admission.brownout_active = True
            a = svc.result(svc.submit("bc"), timeout=60.0)
            b = svc.result(
                svc.submit(
                    "approx_bc", samples=BROWNOUT_SAMPLES, seed=BROWNOUT_SEED
                ),
                timeout=60.0,
            )
            svc.admission.brownout_active = False
            exact = svc.result(svc.submit("bc"), timeout=60.0)
        assert np.array_equal(a, b)  # degraded bc == the approx key it used
        assert not np.array_equal(exact, a)  # exact bc never polluted

    def test_brownout_serves_stale_generation(self, graph):
        other = uniform_random_graph_nm(36, 4.0, seed=8)
        with _service(graph) as svc:
            old = svc.result(svc.submit("bc_source", source=1), timeout=60.0)
            svc.update_graph(other)
            svc.admission.brownout_active = True
            qid = svc.submit("bc_source", source=1)
            stale = svc.result(qid, timeout=60.0)
            status = svc.poll(qid)
            svc.admission.brownout_active = False
            fresh = svc.result(svc.submit("bc_source", source=1), timeout=60.0)
        assert np.array_equal(stale, old)  # version-0 answer served
        assert status["degraded"] is True
        assert status["stale_version"] == 0
        assert status["cache_hit"] is True
        assert not np.array_equal(fresh, stale)

    def test_infeasible_deadline_expires_at_submit(self, graph):
        with _service(graph) as svc:
            before = svc.stats()["batches"]
            qid = svc.submit("bc", deadline=1e-15)
            status = svc.poll(qid)
            with pytest.raises(QueryError, match="expired"):
                svc.result(qid, timeout=5.0)
            stats = svc.stats()
        assert status["state"] == "expired"
        assert "infeasible" in status["error"]
        assert stats["infeasible"] == 1
        assert stats["batches"] == before  # never burned a sweep

    def test_memory_infeasible_submit_expires(self, graph):
        # modeled floor (batch width 1) above the per-rank budget: no batch
        # shrink can make it fit, so the query expires before queueing
        with _service(graph, memory_words=1 << 30) as svc:
            before = svc.stats()["batches"]
            svc.estimator.estimate_memory_words = (
                lambda *a, **k: float(1 << 40)
            )
            qid = svc.submit("bc")
            status = svc.poll(qid)
            with pytest.raises(QueryError, match="expired"):
                svc.result(qid, timeout=5.0)
            stats = svc.stats()
        assert status["state"] == "expired"
        assert "memory infeasible" in status["error"]
        assert stats["infeasible"] == 1
        assert stats["batches"] == before  # never burned a sweep

    def test_rate_limited_client_sheds(self, graph):
        cfg = OverloadConfig(client_rate=0.001, client_burst=1.0)
        with _service(graph, overload=cfg) as svc:
            svc.submit("bc_source", source=1, client="alice")
            with pytest.raises(AdmissionError) as exc:
                svc.submit("bc_source", source=2, client="alice")
            assert exc.value.reason == "rate_limited"
            svc.submit("bc_source", source=2, client="bob")  # unaffected


# ---------------------------------------------------------------------------
# service integration: circuit breaker
# ---------------------------------------------------------------------------


class TestServiceBreaker:
    def test_open_circuit_sheds_submissions(self, graph):
        with _service(graph) as svc:
            svc.breaker._clock = FakeClock()  # frozen: the circuit stays open
            _trip(svc.breaker)
            with pytest.raises(CircuitOpen) as exc:
                svc.submit("bc_source", source=1)
            assert exc.value.reason == "circuit_open"
            assert exc.value.retry_after > 0
            assert svc.health()["state"] == "degraded"

    def test_queued_batch_fails_fast_when_circuit_opens(self, graph):
        with _service(graph, batch_window=0.0) as svc:
            with svc._exec_lock:
                qid = svc.submit("bc_source", source=1)
                svc.breaker._clock = FakeClock()  # frozen: stays open
                _trip(svc.breaker)  # opens while the query queues
            with pytest.raises(QueryError, match="circuit open"):
                svc.result(qid, timeout=30.0)
            stats = svc.stats()
        assert stats["breaker_fastfail"] == 1
        assert stats["failed"] == 1

    def test_storm_opens_circuit_then_probe_recovers(self, graph):
        # exhaust retries on a batch: each fault-ladder entry records a
        # failure, and the last of BREAKER_THRESHOLD attempts opens it
        clock = FakeClock()
        with _service(
            graph,
            retries=BREAKER_THRESHOLD - 1,
            faults=f"seed:1,crash:1.0,limit:{BREAKER_THRESHOLD}",
            elastic="off",
            batch_window=0.0,
        ) as svc:
            svc.breaker._clock = clock
            with pytest.raises(QueryError):
                svc.result(svc.submit("bc_source", source=1), timeout=60.0)
            assert svc.breaker.state is BreakerState.OPEN
            # fault plan exhausted (limit) → the probe batch will succeed
            clock.advance(BREAKER_RESET)
            out = svc.result(svc.submit("bc_source", source=2), timeout=60.0)
            assert svc.breaker.state is BreakerState.CLOSED
        assert np.array_equal(out, _reference_row(graph, 2))


# ---------------------------------------------------------------------------
# service integration: watchdog, drain, health over HTTP
# ---------------------------------------------------------------------------


class TestSupervision:
    # the first two tests kill the dispatcher on purpose; the escaping
    # synthetic exception is the mechanism, not a leak
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_watchdog_restarts_dead_dispatcher(self, graph):
        with _service(graph, batch_window=0.0) as svc:
            real_take = svc.coalescer.take
            tripped = threading.Event()

            def bomb(timeout=None):
                if not tripped.is_set():
                    tripped.set()
                    raise RuntimeError("synthetic dispatcher death")
                return real_take(timeout)

            svc.coalescer.take = bomb
            deadline = time.monotonic() + 10.0
            while not tripped.is_set() and time.monotonic() < deadline:
                time.sleep(0.01)
            while (
                svc.stats()["dispatcher_restarts"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert svc.stats()["dispatcher_restarts"] >= 1
            # the revived dispatcher still serves correct answers
            out = svc.result(svc.submit("bc_source", source=3), timeout=60.0)
            assert svc.health()["dispatcher_alive"]
        assert np.array_equal(out, _reference_row(graph, 3))

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_dispatcher_reports_dead_without_watchdog(self, graph):
        # a stopped watchdog means no revival: health must say so
        svc = _service(graph, batch_window=0.0)
        svc._stop.set()
        svc._watchdog.join(10.0)
        assert not svc._watchdog.is_alive()
        try:
            def bomb(timeout=None):
                raise RuntimeError("synthetic dispatcher death")

            svc.coalescer.take = bomb
            deadline = time.monotonic() + 10.0
            while svc._dispatcher.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            health = svc.health()
            assert health["state"] == "dead"
            assert health["live"] is False
        finally:
            del svc.coalescer.take  # restore for a clean close
            svc.close(drain_timeout=1.0)

    def test_drain_finishes_queued_work(self, graph):
        with _service(graph, batch_window=0.0) as svc:
            ids = [svc.submit("bc_source", source=i) for i in range(4)]
            svc.close(drain_timeout=30.0)
            for qid in ids:
                assert svc.poll(qid)["state"] == "done"

    def test_drain_timeout_abandons_leftovers(self, graph):
        # a long linger window parks the batch in the coalescer, so a short
        # drain timeout must abandon it with a structured cancel
        svc = _service(graph, batch_window=30.0)
        qid = svc.submit("bc_source", source=1)
        t0 = time.monotonic()
        svc.close(drain_timeout=0.3)
        assert time.monotonic() - t0 < 10.0
        status = svc.poll(qid)
        assert status["state"] == "cancelled"
        assert "drain" in status["error"]
        assert svc.admission.snapshot()["queued_count"] == 0

    def test_submit_while_draining_is_shed(self, graph):
        svc = _service(graph, batch_window=0.0)
        svc._draining = True
        try:
            with pytest.raises(AdmissionError) as exc:
                svc.submit("bc_source", source=1)
            assert exc.value.reason == "draining"
            assert svc.health()["state"] == "draining"
        finally:
            svc._draining = False
            svc.close()

    def test_healthz_503_when_not_live_and_shed_503_with_retry_after(self, graph):
        from repro.serve.http import serve_http

        cfg = OverloadConfig(max_queued=1)
        svc = _service(graph, overload=cfg, batch_window=0.0)
        server = serve_http(svc, port=0)
        server.start_background()
        base = server.address
        try:
            with urllib.request.urlopen(base + "/v1/healthz", timeout=10) as resp:
                assert resp.status == 200
            with svc._exec_lock:
                park(svc, source=1)
                svc.submit("bc_source", source=3)  # queue full → shedding
                req = urllib.request.Request(
                    base + "/v1/query",
                    data=b'{"algorithm": "bc_source", "source": 2}',
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(req, timeout=10)
                assert exc.value.code == 503
                assert float(exc.value.headers["Retry-After"]) > 0
                with pytest.raises(urllib.error.HTTPError) as hexc:
                    urllib.request.urlopen(base + "/v1/healthz", timeout=10)
                assert hexc.value.code == 503
        finally:
            server.shutdown()
            svc.close()


# ---------------------------------------------------------------------------
# satellite: update_graph racing in-flight queries; cancel mid-batch
# ---------------------------------------------------------------------------


class TestRaces:
    def test_update_graph_racing_inflight_queries(self, graph):
        """Every answer matches the reference for the version it reports."""
        other = uniform_random_graph_nm(36, 4.0, seed=9)
        graphs = {0: graph, 1: other}
        with _service(graph, batch_window=0.01, max_batch=4) as svc:
            ids = []
            swapped = threading.Event()

            def swap():
                time.sleep(0.05)  # mid-stream
                svc.update_graph(other)
                swapped.set()

            t = threading.Thread(target=swap)
            t.start()
            for i in range(18):
                ids.append(svc.submit("bc_source", source=i % graph.n))
                time.sleep(0.01)
            t.join()
            assert swapped.is_set()
            seen_versions = set()
            for qid in ids:
                svc.result(qid, timeout=60.0)
                status = svc.poll(qid)
                v = status["graph_version"]
                seen_versions.add(v)
                expected = _reference_row(graphs[v], status["params"]["source"])
                assert np.array_equal(status["result"], expected)
        # the stream actually straddled the swap
        assert seen_versions == {0, 1}

    def test_cancel_mid_batch_releases_admission_once(self, graph):
        with _service(graph, batch_window=0.0) as svc:
            with svc._exec_lock:
                qid = park(svc, source=1)
                # cancel lands after take() but before execution
                assert svc.cancel(qid) is True
            with pytest.raises(QueryError, match="cancelled"):
                svc.result(qid, timeout=30.0)
            deadline = time.monotonic() + 10.0
            while svc._inflight and time.monotonic() < deadline:
                time.sleep(0.005)
            snap = svc.admission.snapshot()
        assert snap["queued_count"] == 0  # left the queue once, at take()
        assert snap["queued_seconds"] == pytest.approx(0.0)

    def test_cancel_racing_batch_never_double_releases(self, graph):
        # hammer submit/cancel against a live dispatcher: the queue the
        # snapshot reads must end empty
        with _service(graph, batch_window=0.005) as svc:
            ids = [svc.submit("bc_source", source=i % graph.n) for i in range(12)]
            for qid in ids[::2]:
                svc.cancel(qid)
            for qid in ids:
                q = svc._get(qid)
                q.done.wait(60.0)
            deadline = time.monotonic() + 10.0
            while (
                len(svc.coalescer) or svc._inflight
            ) and time.monotonic() < deadline:
                time.sleep(0.01)
            snap = svc.admission.snapshot()
            stats = svc.stats()
        assert snap["queued_count"] == 0
        assert snap["queued_seconds"] == pytest.approx(0.0, abs=1e-12)
        assert stats["completed"] + stats["cancelled"] == 12


# ---------------------------------------------------------------------------
# the overload report, from a service's registry
# ---------------------------------------------------------------------------


class TestOverloadReport:
    def test_overload_events_render_in_report(self, graph):
        from repro.analysis.report import (
            format_report,
            overload_attribution,
        )

        cfg = OverloadConfig(max_queued=1)
        with _service(graph, overload=cfg, batch_window=0.0) as svc:
            with svc._exec_lock:
                qid = park(svc, source=0)
                svc.submit("bc_source", source=2)  # queue full → shedding
                with pytest.raises(AdmissionError):
                    svc.submit("bc_source", source=1)
            svc.result(qid, timeout=60.0)
            svc.admission.brownout_active = True
            svc.result(svc.submit("bc"), timeout=60.0)
            svc.admission.brownout_active = False
        rows = overload_attribution(svc.metrics)
        events = {r["event"] for r in rows}
        assert "shed" in events and "degraded" in events
        text = format_report("overload", svc.metrics)
        assert "serve.overload" in text and "shed" in text

    def test_empty_metrics_render_empty(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        assert format_report("overload", Metrics()) == ""


# ---------------------------------------------------------------------------
# satellite: decorrelated jitter in the mfbc retry backoff
# ---------------------------------------------------------------------------


class TestRetryJitter:
    def _flaky_machine_run(self, graph, monkeypatch, fail_times, **kw):
        import sys

        from repro.dist.engine import DistributedEngine
        from repro.machine.machine import Machine

        mfbc_mod = sys.modules["repro.core.mfbc"]
        real_mfbf = mfbc_mod.mfbf
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                from repro.faults.plan import RankFailure

                raise RankFailure(0, 0, "mfbf")
            return real_mfbf(*args, **kwargs)

        monkeypatch.setattr(mfbc_mod, "mfbf", flaky)
        m = Machine(4, faults="off", elastic="off")
        mfbc_mod.mfbc(
            graph,
            batch_size=graph.n,
            engine=DistributedEngine(m),
            max_batches=1,
            **kw,
        )
        return m.ledger.critical_time()

    def test_jittered_backoff_is_deterministic(self, graph, monkeypatch):
        a = self._flaky_machine_run(graph, monkeypatch, 2, retries=3)
        b = self._flaky_machine_run(graph, monkeypatch, 2, retries=3)
        assert a == b

    def test_jitter_stays_within_ladder_bounds(self, graph, monkeypatch):
        charged = self._flaky_machine_run(graph, monkeypatch, 2, retries=3)
        baseline = self._flaky_machine_run(graph, monkeypatch, 0, retries=3)
        extra = charged - baseline
        # each of the two sleeps is in [base, base·2^(retries-1)] at the
        # drivers' 0.05 s base: [0.05, 0.2]
        assert 2 * 0.05 <= extra <= 2 * 0.2
