"""The serving layer: coalescer, versioned cache, BCService, HTTP, loadgen.

The load-bearing claims (ISSUE 6 acceptance):

* k concurrent single-source BC queries on a pinned graph execute as at
  most ``ceil(k / max_batch)`` MFBC sweeps, and every response is
  bit-identical to a per-query run;
* repeat queries at an unchanged graph version are served from the score
  cache without touching the machine's ledger;
* a mid-batch rank failure takes the elastic-recovery path and the batch
  transparently retries — no query ever observes the fault.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core import mfbc
from repro.core.mfbc import mfbc_per_source
from repro.dist import DistributedEngine
from repro.graphs import Graph, rmat_graph, uniform_random_graph_nm
from repro.machine import CostParams, Machine
from repro.serve import service as service_mod
from repro.serve import (
    AdmissionController,
    BCService,
    Coalescer,
    OverloadConfig,
    Query,
    QueryError,
    QueryState,
    ScoreCache,
    cache_key,
    serve_http,
)

from conftest import assert_fired


@pytest.fixture
def graph():
    return uniform_random_graph_nm(36, 4.0, seed=7)


def _service(graph, **kw):
    """A service on ``Machine(p=4, <the machine keywords among kw>)``."""
    kw.setdefault("batch_window", 0.05)
    if "machine" not in kw:
        names = ("faults", "check", "elastic", "memory_words")
        kw["machine"] = Machine(4, **{k: kw.pop(k) for k in names if k in kw})
    return BCService(graph, **kw)


class _StalledCoalescer(Coalescer):
    """A queue the dispatcher never takes from: what is queued stays queued."""

    def take(self, timeout=None):
        time.sleep(timeout or 0.0)
        return None


def _reference_row(graph, source, p=4):
    """A per-query single-source run on a fresh machine of the same shape."""
    engine = DistributedEngine(Machine(p))
    return mfbc(graph, engine=engine, sources=np.array([source])).scores


# ---------------------------------------------------------------------------
# coalescer
# ---------------------------------------------------------------------------


class TestCoalescer:
    def _q(self, source, algorithm="bc_source", **kw):
        return Query(algorithm=algorithm, params={"source": source}, **kw)

    def test_take_batches_compatible_queries(self):
        c = Coalescer(max_batch=8)
        qs = [self._q(i) for i in range(5)]
        for q in qs:
            c.put(q)
        assert c.take(timeout=0.5) == qs
        assert len(c) == 0

    def test_incompatible_algorithms_split(self):
        c = Coalescer(max_batch=8)
        a, b, a2 = self._q(0), self._q(1, algorithm="bfs"), self._q(2)
        for q in (a, b, a2):
            c.put(q)
        assert c.take(timeout=0.5) == [a, a2]
        assert c.take(timeout=0.5) == [b]

    def test_max_batch_bounds_width(self):
        c = Coalescer(max_batch=3)
        qs = [self._q(i) for i in range(7)]
        for q in qs:
            c.put(q)
        widths = [len(c.take(timeout=0.5)) for _ in range(3)]
        assert widths == [3, 3, 1]

    def test_cancelled_queries_dropped(self):
        c = Coalescer(max_batch=8)
        keep, gone = self._q(0), self._q(1)
        c.put(keep)
        c.put(gone)
        gone.state = QueryState.CANCELLED
        assert c.take(timeout=0.5) == [keep]

    def test_requeue_goes_to_front(self):
        c = Coalescer(max_batch=1)
        ctl = AdmissionController(OverloadConfig(), c, metrics=obs.Metrics())
        first, second = self._q(0), self._q(1)
        ctl.admit(first)
        ctl.admit(second)
        got = c.take(timeout=0.5)
        ctl.requeue(got)
        assert c.take(timeout=0.5) == [first]
        assert c.take(timeout=0.5) == [second]

    def test_take_timeout_and_close(self):
        c = Coalescer(max_batch=2)
        assert c.take(timeout=0.01) is None
        c.close()
        assert c.take(timeout=0.01) is None
        with pytest.raises(RuntimeError):
            c.put(self._q(0))

    def test_window_waits_for_concurrent_submitters(self):
        c = Coalescer(max_batch=4, window=0.5)
        c.put(self._q(0))
        t = threading.Timer(0.05, lambda: [c.put(self._q(i)) for i in (1, 2, 3)])
        t.start()
        try:
            batch = c.take(timeout=1.0)
        finally:
            t.join()
        assert len(batch) == 4

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Coalescer(max_batch=0)
        with pytest.raises(ValueError):
            Coalescer(window=-1.0)

    def test_coalesce_key_ignores_source_only(self):
        a = Query(algorithm="approx_bc", params={"samples": 4, "seed": 0})
        b = Query(algorithm="approx_bc", params={"samples": 4, "seed": 1})
        assert a.coalesce_key != b.coalesce_key
        s0 = self._q(0)
        s1 = self._q(1)
        assert s0.coalesce_key == s1.coalesce_key


# ---------------------------------------------------------------------------
# versioned score cache
# ---------------------------------------------------------------------------


class TestScoreCache:
    def test_hit_miss_counting(self):
        c = ScoreCache(capacity=4, metrics=obs.Metrics())
        k = cache_key(0, "bc_source", {"source": 3})
        assert c.get(k) is None
        c.put(k, np.ones(3))
        assert np.array_equal(c.get(k), np.ones(3))
        stats = c.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == 0.5

    def test_peek_counts_nothing(self):
        c = ScoreCache(capacity=4, metrics=obs.Metrics())
        k = cache_key(0, "bc", {})
        assert c.peek(k) is None
        c.put(k, 1.0)
        assert c.peek(k) == 1.0
        assert (c.stats()["hits"], c.stats()["misses"]) == (0, 0)

    def test_lru_eviction(self):
        c = ScoreCache(capacity=2, metrics=obs.Metrics())
        keys = [cache_key(0, "bc_source", {"source": i}) for i in range(3)]
        c.put(keys[0], "a")
        c.put(keys[1], "b")
        c.get(keys[0])  # refresh 0 so 1 is the LRU entry
        c.put(keys[2], "c")
        assert c.peek(keys[1]) is None
        assert c.peek(keys[0]) == "a"
        assert c.metrics.get_count("serve.cache.evict", algorithm="bc_source") == 1

    def test_invalidate_before_version(self):
        c = ScoreCache(capacity=8, metrics=obs.Metrics())
        old = cache_key(0, "bc", {})
        new = cache_key(1, "bc", {})
        c.put(old, "old")
        c.put(new, "new")
        assert c.invalidate(before_version=1) == 1
        assert c.peek(old) is None
        assert c.peek(new) == "new"
        assert c.invalidate() == 1  # drop everything

    def test_none_payload_rejected(self):
        c = ScoreCache(metrics=obs.Metrics())
        with pytest.raises(ValueError):
            c.put(cache_key(0, "bc", {}), None)

    def test_key_canonicalizes_param_order(self):
        a = cache_key(1, "approx_bc", {"samples": 4, "seed": 2})
        b = cache_key(1, "approx_bc", {"seed": 2, "samples": 4})
        assert a == b

    def test_obs_counters_emitted(self):
        # into the registry it is given, a service's
        m = obs.Metrics()
        c = ScoreCache(metrics=m)
        k = cache_key(0, "bc_source", {"source": 1})
        c.get(k)
        c.put(k, 1.0)
        c.get(k)
        c.invalidate()
        assert m.get_count("serve.cache.miss", algorithm="bc_source") == 1
        assert m.get_count("serve.cache.hit", algorithm="bc_source") == 1
        assert m.get_count("serve.cache.invalidate", algorithm="bc_source") == 1


# ---------------------------------------------------------------------------
# the service: coalescing, bit-identity, cache, lifecycle
# ---------------------------------------------------------------------------


class TestServiceCoalescing:
    def test_concurrent_bc_source_coalesces_and_is_bit_identical(self, graph):
        """The acceptance criterion, under REPRO_CHECK=cheap semantics."""
        k, max_batch = 10, 4
        sources = list(range(k))
        with _service(
            graph,
            check="cheap",
            max_batch=max_batch,
            batch_window=0.2,
        ) as svc:
            with ThreadPoolExecutor(max_workers=k) as pool:
                ids = list(
                    pool.map(
                        lambda s: svc.submit("bc_source", source=s), sources
                    )
                )
            results = [svc.result(qid, timeout=60.0) for qid in ids]
            stats = svc.stats()
        assert stats["batches"] <= -(-k // max_batch)  # ceil(k / max_batch)
        assert stats["swept_sources"] == k
        assert stats["completed"] == k
        for s, row in zip(sources, results):
            assert np.array_equal(row, _reference_row(graph, s)), s

    def test_duplicate_sources_in_one_batch_dedupe(self, graph):
        with _service(graph, batch_window=0.2) as svc:
            ids = [svc.submit("bc_source", source=5) for _ in range(4)]
            ids.append(svc.submit("bc_source", source=6))
            results = [svc.result(qid, timeout=60.0) for qid in ids]
            stats = svc.stats()
        assert stats["batches"] == 1
        for r in results[:4]:
            assert np.array_equal(r, results[0])
        assert not np.array_equal(results[0], results[4])

    def test_coalesced_matches_mfbc_per_source(self, graph):
        src = np.array([2, 9, 17])
        expected = mfbc_per_source(graph, src, engine=DistributedEngine(Machine(4)))
        with _service(graph, batch_window=0.2) as svc:
            ids = [svc.submit("bc_source", source=int(s)) for s in src]
            rows = [svc.result(qid, timeout=60.0) for qid in ids]
        for i in range(len(src)):
            assert np.array_equal(rows[i], expected[i])


class TestServiceCache:
    def test_repeat_query_served_from_cache_without_ledger_touch(self, graph):
        with _service(graph) as svc:
            first = svc.submit("bc_source", source=3)
            res1 = svc.result(first, timeout=60.0)
            before = svc.machine.ledger.snapshot()
            second = svc.submit("bc_source", source=3)
            res2 = svc.result(second, timeout=60.0)
            after = svc.machine.ledger.snapshot()
            status = svc.poll(second)
        assert np.array_equal(res1, res2)
        assert before == after
        assert status["cache_hit"] is True
        assert status["batch_size"] == 0

    def test_update_graph_bumps_version_and_invalidates(self, graph):
        other = uniform_random_graph_nm(36, 4.0, seed=8)
        with _service(graph) as svc:
            res_old = svc.result(svc.submit("bc_source", source=1), timeout=60.0)
            assert svc.graph_version == 0
            version = svc.update_graph(other)
            assert version == 1
            res_new = svc.result(svc.submit("bc_source", source=1), timeout=60.0)
            status = svc.poll(svc.submit("bc_source", source=1))
            # the service retains STALE_DEPTH = 1 older generation
            # for brownout stale serving; a second swap purges version 0
            assert svc.cache.stats()["invalidated"] == 0
            svc.update_graph(graph)
            assert svc.cache.stats()["invalidated"] >= 1
        assert not np.array_equal(res_old, res_new)
        assert np.array_equal(res_new, _reference_row(other, 1))
        assert status["cache_hit"] is True  # new version re-cached
        assert status["graph_version"] == 1

    def test_whole_graph_queries_cache_and_dedupe(self, graph):
        with _service(graph) as svc:
            a = svc.result(svc.submit("connected"), timeout=60.0)
            before = svc.machine.ledger.snapshot()
            b = svc.result(svc.submit("connected"), timeout=60.0)
            assert svc.machine.ledger.snapshot() == before
            assert np.array_equal(a, b)

    def test_approx_bc_params_key_the_cache(self, graph):
        with _service(graph) as svc:
            a = svc.result(svc.submit("approx_bc", samples=4, seed=0), timeout=60.0)
            b = svc.result(svc.submit("approx_bc", samples=4, seed=1), timeout=60.0)
            c = svc.result(svc.submit("approx_bc", samples=4, seed=0), timeout=60.0)
            stats = svc.stats()
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
        assert stats["cache"]["hits"] >= 1


class TestPinnedAdjacency:
    """Every query kind multiplies against the version's one adjacency."""

    def test_whole_graph_and_source_queries_share_one_copy(self):
        g = rmat_graph(7, 8, seed=0)

        def quiet():
            return Machine(4, faults="off", elastic="off", check="off")

        scatter = quiet()
        DistributedEngine(scatter).adjacency(g)
        adjacency_words = scatter.ledger.category_words["input"]
        queries = [("approx_bc", {"samples": 8, "seed": s}) for s in range(6)]
        queries += [("bc", {}), ("connected", {})]
        queries += [("bc_source", {"source": s}) for s in (1, 2, 3)]
        machine = quiet()
        used, inputs = [], []
        with _service(g, machine=machine) as svc:
            for algorithm, params in queries:
                svc.result(svc.submit(algorithm, **params), timeout=120.0)
                used.append(machine.memory_used())
                inputs.append(machine.ledger.category_words["input"])
            pinned = len(svc.engine._adjacency)
            svc.update_graph(rmat_graph(7, 8, seed=1))
            released = (len(svc.engine._adjacency), machine.memory_used())
        assert used == [used[0]] * len(queries)
        # each query scatters its frontier seeds as input, never the graph again
        assert max(np.diff(inputs)) < adjacency_words
        assert pinned == 1  # one graph: its adjacency (and memoized transpose)
        assert released == (0, 0)


class TestServiceAlgorithms:
    def test_all_algorithms_complete(self, graph):
        with _service(graph) as svc:
            specs = [
                ("bc", {}),
                ("bc_source", {"source": 0}),
                ("approx_bc", {"samples": 4}),
                ("adaptive_bc", {"epsilon": 0.4, "delta": 0.2}),
                ("bfs", {"source": 1}),
                ("sssp", {"source": 2}),
                ("widest", {"source": 3}),
                ("connected", {}),
                ("triangles", {}),
            ]
            ids = [svc.submit(alg, **kw) for alg, kw in specs]
            results = {
                alg: svc.result(qid, timeout=120.0)
                for (alg, _), qid in zip(specs, ids)
            }
        assert results["bc"].shape == (graph.n,)
        assert results["bc_source"].shape == (graph.n,)
        assert results["approx_bc"].shape == (graph.n,)
        assert results["adaptive_bc"].shape == (graph.n,)
        assert results["bfs"].shape == (graph.n,)
        assert results["sssp"].shape == (graph.n,)
        assert results["widest"].shape == (graph.n,)
        assert results["connected"].shape == (graph.n,)
        assert isinstance(results["triangles"], (int, np.integer))

    def test_bfs_row_matches_direct_run(self, graph):
        from repro.apps import bfs_levels

        expected = bfs_levels(graph, np.array([4]))
        with _service(graph) as svc:
            row = svc.result(svc.submit("bfs", source=4), timeout=60.0)
        assert np.array_equal(row, expected[0])

    def test_validation_errors(self, graph):
        with _service(graph) as svc:
            with pytest.raises(ValueError, match="unknown algorithm"):
                svc.submit("pagerank")
            with pytest.raises(ValueError, match="requires a source"):
                svc.submit("bc_source")
            with pytest.raises(ValueError, match="out of range"):
                svc.submit("bfs", source=graph.n)
            with pytest.raises(ValueError, match="does not take a source"):
                svc.submit("bc", source=0)
            with pytest.raises(ValueError, match="requires samples"):
                svc.submit("approx_bc")
            with pytest.raises(ValueError, match="samples"):
                svc.submit("approx_bc", samples=0)
            with pytest.raises(ValueError, match="deadline"):
                svc.submit("bc_source", source=0, deadline=-1.0)
            with pytest.raises(ValueError, match="epsilon must be positive"):
                svc.submit("adaptive_bc", epsilon=0.0)
            with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
                svc.submit("adaptive_bc", delta=2.0)


class TestServiceAdaptive:
    """adaptive_bc as a service algorithm: drop-in λ-scale payload,
    coalescing keyed on the (ε, δ, seed) accuracy target, cache reuse."""

    def test_result_matches_direct_run(self, graph):
        from repro.core.approx import adaptive_bc

        expected = adaptive_bc(
            graph,
            epsilon=0.3,
            delta=0.2,
            seed=5,
            engine=DistributedEngine(Machine(4)),
        ).scores
        with _service(graph) as svc:
            got = svc.result(
                svc.submit("adaptive_bc", epsilon=0.3, delta=0.2, seed=5),
                timeout=120.0,
            )
        assert np.array_equal(got, expected)

    def test_identical_targets_coalesce_and_cache(self, graph):
        with _service(graph) as svc:
            kw = dict(epsilon=0.4, delta=0.2, seed=1)
            with svc._exec_lock:  # park the dispatcher so both queue
                a = svc.submit("adaptive_bc", **kw)
                b = svc.submit("adaptive_bc", **kw)
            ra = svc.result(a, timeout=120.0)
            rb = svc.result(b, timeout=120.0)
            batches = svc.stats()["batches"]
            # same key → one sweep; a third submit is a submit-time hit
            c = svc.submit("adaptive_bc", **kw)
            rc = svc.result(c, timeout=120.0)
            assert svc.poll(c)["cache_hit"] is True
            assert svc.stats()["batches"] == batches
        assert np.array_equal(ra, rb) and np.array_equal(ra, rc)
        assert batches == 1

    def test_distinct_targets_do_not_share(self, graph):
        from repro.serve import Query

        q1 = Query(algorithm="adaptive_bc",
                   params={"epsilon": 0.3, "delta": 0.2, "seed": 0})
        q2 = Query(algorithm="adaptive_bc",
                   params={"epsilon": 0.3, "delta": 0.2, "seed": 1})
        q3 = Query(algorithm="adaptive_bc",
                   params={"epsilon": 0.2, "delta": 0.2, "seed": 0})
        assert q1.coalesce_key != q2.coalesce_key
        assert q1.coalesce_key != q3.coalesce_key

    def test_defaults_applied_when_unspecified(self, graph):
        with _service(graph) as svc:
            qid = svc.submit("adaptive_bc")
            svc.result(qid, timeout=120.0)
            params = svc._get(qid).params
        assert params == {"epsilon": 0.1, "delta": 0.1, "seed": 0}


#: ``stats()`` after ``TestStatsPin``'s scripted sequence, whole
STATS_AFTER_SCRIPT = {
    "graph_version": 2,
    "queued": 0,
    "p": 4,
    "health": "ok",
    "submitted": 6,
    "completed": 4,
    "failed": 0,
    "expired": 1,
    "cancelled": 1,
    "batches": 3,
    "swept_sources": 3,
    "recoveries": 0,
    "retries": 0,
    "shed": 1,
    "degraded": 1,
    "stale": 0,
    "infeasible": 1,
    "breaker_fastfail": 0,
    "dispatcher_restarts": 0,
    "coalescing_factor": 1.0,
    "admission": {
        "queued_count": 0,
        "queued_seconds": 0.0,
        "peak_queued": 1,
        "pressure": 0.0,
        "brownout": False,
        "shedding": False,
    },
    "breaker": "closed",
    "cache": {
        "entries": 0,
        "capacity": 4096,
        "hits": 1,
        "misses": 6,
        "invalidated": 3,
        "evicted": 0,
        "hit_rate": 1 / 7,
    },
}


def _types(d: dict) -> dict:
    return {
        k: _types(v) if isinstance(v, dict) else type(v).__name__
        for k, v in d.items()
    }


class TestStatsPin:
    def test_scripted_sequence_pins_every_key_type_and_value(self, graph):
        """A miss then a hit, a rate-limited shed, a brownout-degraded
        ``bc``, a cancel, an ``update_graph`` invalidation and a
        deadline-infeasible submit: the whole ``stats()`` dict after."""
        from repro.serve import AdmissionError, OverloadConfig

        other = uniform_random_graph_nm(36, 4.0, seed=8)
        # one token per client and no refill within the test
        cfg = OverloadConfig(client_rate=1e-3, client_burst=1)
        with _service(graph, batch_window=0.0, overload=cfg) as svc:
            svc.result(svc.submit("bc_source", source=0, client="a"), timeout=60.0)
            svc.result(svc.submit("bc_source", source=0, client="b"), timeout=60.0)
            svc.result(svc.submit("bc_source", source=1, client="c"), timeout=60.0)
            with pytest.raises(AdmissionError) as shed:
                svc.submit("bc_source", source=2, client="c")
            assert shed.value.reason == "rate_limited"
            svc.admission.brownout_active = True
            brownout = svc.submit("bc", client="d")
            svc.result(brownout, timeout=60.0)
            assert svc.poll(brownout)["degraded"]
            with svc._exec_lock:  # the dispatcher cannot start it
                assert svc.cancel(svc.submit("bc_source", source=3, client="e"))
            svc.update_graph(other)
            svc.update_graph(graph)  # purges version 0 (STALE_DEPTH = 1)
            late = svc.submit("bc_source", source=4, deadline=1e-30, client="f")
            assert svc.poll(late)["state"] == "expired"
            stats = svc.stats()
        assert stats == STATS_AFTER_SCRIPT
        assert _types(stats) == _types(STATS_AFTER_SCRIPT)


class TestOneQueueRecord:
    def test_zero_cost_queries_leave_the_admission_queue_empty(self):
        # an isolated source's sweep charges nothing on a free machine, so the
        # estimator learns a rate of 0 and every later estimate is 0.0: the
        # admission controller once counted those queries in but never out
        # (queued_count 5 against queued 0)
        free = CostParams(alpha=0, beta=0, product_overhead=0, compute_rate=1e30)
        machine = Machine(4, cost=free)
        with BCService(Graph(8, [0], [1]), machine=machine, batch_window=0) as svc:
            for source in range(2, 8):
                svc.result(svc.submit("bc_source", source=source), timeout=60.0)
            stats = svc.stats()
        assert stats["admission"]["queued_count"] == stats["queued"] == 0


class TestServiceLifecycle:
    def test_cancel_queued_query(self, graph):
        with _service(graph, batch_window=0.5) as svc:
            blocker = svc.submit("bc_source", source=0)
            victim = svc.submit("bc_source", source=1, deadline=None)
            cancelled = svc.cancel(victim)
            status = svc.poll(victim)
            svc.result(blocker, timeout=60.0)
        if cancelled:  # racy by design: dispatcher may have grabbed it first
            assert status["state"] == "cancelled"
            with pytest.raises(QueryError, match="cancelled"):
                svc.result(victim, timeout=5.0)
        assert svc.cancel(blocker) is False  # terminal: not cancellable

    def test_only_the_newest_finished_queries_stay_pollable(self, graph):
        # cache_capacity bounds the finished queries kept, oldest first out;
        # a queued query is never dropped
        with _service(graph, cache_capacity=2, batch_window=0.0) as svc:
            with svc._exec_lock:  # the dispatcher cannot start it
                queued = svc.submit("bc_source", source=0)
                late = [
                    svc.submit("bc_source", source=s, deadline=1e-30)
                    for s in range(1, 5)
                ]
                for qid in late[:2]:
                    with pytest.raises(KeyError, match="unknown query id"):
                        svc.poll(qid)
                assert [svc.poll(q)["state"] for q in late[2:]] == ["expired"] * 2
                assert svc.poll(queued)["state"] == "queued"
            svc.result(queued, timeout=60.0)
            with pytest.raises(KeyError):
                svc.result(late[2])
            assert svc.poll(late[3])["state"] == "expired"
            assert len(svc._queries) == 2
            assert svc.stats()["submitted"] == 5

    def test_first_terminal_state_wins(self, graph):
        # a batch that answers a query after a cancel landed must neither
        # revive it nor count it a second time
        with _service(graph) as svc:
            q = Query(algorithm="bc_source", params={"source": 0})
            svc._register(q)
            assert svc.cancel(q.id)
            svc._finish(q, QueryState.DONE, result=np.zeros(graph.n))
            stats = svc.stats()
        assert q.state is QueryState.CANCELLED and q.result is None
        assert (stats["submitted"], stats["cancelled"], stats["completed"]) == (1, 1, 0)
        assert svc.metrics.total("serve.queries") == 1

    def test_cancels_and_drain_abandons_are_noted(self, graph, monkeypatch):
        monkeypatch.setattr(service_mod, "Coalescer", _StalledCoalescer)
        svc = _service(graph)
        cancelled = svc.submit("bc_source", source=0)
        abandoned = svc.submit("bc_source", source=1)
        assert svc.cancel(cancelled)
        svc.close(drain_timeout=0.0)
        assert svc.poll(abandoned)["state"] == "cancelled"
        assert svc.stats()["cancelled"] == 2
        assert svc.metrics.get_count(
            "serve.queries", algorithm="bc_source", outcome="cancelled"
        ) == 2

    def test_cancels_racing_the_dispatcher_count_each_query_once(self, graph):
        # more clients than cores, each cancelling what it submitted a few
        # milliseconds earlier, against a dispatcher moving the same queries
        # to RUNNING: some cancels land, some find the query running
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service(graph, batch_window=0.0, max_batch=4) as svc:

                def client(i):
                    qid = svc.submit("bc_source", source=i % graph.n)
                    time.sleep((i % 8) * 2e-3)
                    svc.cancel(qid)
                    return qid

                with ThreadPoolExecutor(8) as pool:
                    ids = list(pool.map(client, range(64), timeout=60.0))
                for qid in ids:
                    try:
                        svc.result(qid, timeout=60.0)
                    except QueryError:
                        pass  # cancelled
                stats = svc.stats()
                states = [svc.poll(qid)["state"] for qid in ids]
        finally:
            sys.setswitchinterval(interval)
        assert stats["submitted"] == 64
        assert stats["cancelled"] == states.count("cancelled")
        assert stats["completed"] == states.count("done")
        assert stats["cancelled"] + stats["completed"] == 64

    def test_unknown_query_id(self, graph):
        with _service(graph) as svc:
            with pytest.raises(KeyError):
                svc.poll("q999999")
            with pytest.raises(KeyError):
                svc.result("nope")

    def test_result_timeout(self, graph):
        with _service(graph, batch_window=1.0) as svc:
            qid = svc.submit("bc_source", source=0)
            with pytest.raises(TimeoutError):
                svc.result(qid, timeout=0.01)
            svc.result(qid, timeout=60.0)

    def test_closed_service_rejects_submissions(self, graph):
        svc = _service(graph)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit("bc_source", source=0)
        svc.close()  # idempotent

    def test_per_product_logs_do_not_grow_with_service_lifetime(self):
        """``engine.plan_log`` gains an entry per product; a batch that has
        finished must not leave them behind (13 / 26 / 39 after three waves
        before the service cleared it)."""
        rmat = rmat_graph(scale=7, avg_degree=8, seed=1)
        lengths = []
        with _service(rmat, batch_window=0.2) as svc:
            for wave in range(3):
                ids = [
                    svc.submit("bc_source", source=16 * wave + s) for s in range(16)
                ]
                for qid in ids:
                    svc.result(qid, timeout=60.0)
                lengths.append(len(svc.engine.plan_log))
            assert svc.stats()["swept_sources"] == 48
        assert lengths[2] <= lengths[0], lengths

    def test_stats_shape(self, graph):
        with _service(graph) as svc:
            svc.result(svc.submit("bc_source", source=0), timeout=60.0)
            stats = svc.stats()
        for key in (
            "graph_version",
            "queued",
            "p",
            "submitted",
            "completed",
            "batches",
            "coalescing_factor",
            "cache",
        ):
            assert key in stats, key
        assert stats["submitted"] == stats["completed"] == 1


# ---------------------------------------------------------------------------
# deadlines and faults mid-batch
# ---------------------------------------------------------------------------


class TestServiceDeadlines:
    def test_tiny_deadline_expires(self, graph):
        with _service(graph) as svc:
            qid = svc.submit("bc_source", source=0, deadline=1e-12)
            with pytest.raises(QueryError, match="expired"):
                svc.result(qid, timeout=60.0)
            assert svc.poll(qid)["state"] == "expired"
            assert svc.stats()["expired"] == 1

    def test_mixed_budgets_expire_only_the_blown_query(self, graph):
        with _service(graph, batch_window=0.3) as svc:
            with ThreadPoolExecutor(max_workers=2) as pool:
                tight = pool.submit(
                    svc.submit, "bc_source", source=0, deadline=1e-12
                ).result()
                loose = pool.submit(
                    svc.submit, "bc_source", source=1, deadline=1e6
                ).result()
            with pytest.raises(QueryError, match="expired"):
                svc.result(tight, timeout=60.0)
            row = svc.result(loose, timeout=60.0)
        assert np.array_equal(row, _reference_row(graph, 1))

    def test_deadline_restores_machine_global_deadline(self, graph):
        machine = Machine(4, deadline=1e9)
        with _service(graph, machine=machine) as svc:
            svc.result(svc.submit("bc_source", source=0, deadline=1e6), timeout=60.0)
            assert machine.deadline == 1e9


class TestServiceFaults:
    def test_rank_failure_mid_batch_recovers_elastically(self, graph):
        # the three queries coalesce into one sweep; step 5 is its first
        # product's re-blocking
        with _service(
            graph, faults="seed:3,crash@5:1", elastic="on"
        ) as svc:
            ids = [svc.submit("bc_source", source=s) for s in range(3)]
            rows = [svc.result(qid, timeout=120.0) for qid in ids]
            stats = svc.stats()
            assert svc.machine.faults.injected >= 1
            assert_fired(svc.machine)
            assert len(svc.machine.recoveries) >= 1
            assert stats["recoveries"] >= 1
            assert stats["failed"] == 0
        # answers survive the grid shrink bit-identically
        for s, row in zip(range(3), rows):
            assert np.array_equal(row, _reference_row(graph, s)), s

    def test_fault_without_elastic_takes_retry_ladder(self, graph):
        # a rank crash with elastic recovery off falls back to plain retries
        # (step 4: the sweep's first product)
        with _service(graph, faults="seed:5,crash@4", retries=3) as svc:
            row = svc.result(svc.submit("bc_source", source=2), timeout=120.0)
            stats = svc.stats()
            assert svc.machine.faults.injected >= 1
            assert_fired(svc.machine)
        assert stats["retries"] >= 1
        assert stats["failed"] == 0
        assert np.array_equal(row, _reference_row(graph, 2))

    def test_exhausted_retries_fail_the_batch(self, graph):
        # an unconditional crash storm: every batch attempt faults
        with _service(graph, faults="seed:1,crash:1.0", retries=1) as svc:
            qid = svc.submit("bc_source", source=0)
            with pytest.raises(QueryError, match="failed"):
                svc.result(qid, timeout=120.0)
            assert svc.stats()["failed"] == 1

    @pytest.mark.parametrize("algorithm", ["bc", "adaptive_bc", "approx_bc"])
    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_service_retry_budget_is_the_only_one(
        self, graph, monkeypatch, algorithm, retries
    ):
        # every collective of every sweep is corrupted and caught, so each
        # sweep dies in its first MFBF: the whole-graph drivers must not
        # multiply the service's budget by a nested one of their own
        import sys

        mfbc_mod = sys.modules["repro.core.mfbc"]
        real_mfbf = mfbc_mod.mfbf
        sweeps = []

        def counting(*args, **kwargs):
            sweeps.append(1)
            return real_mfbf(*args, **kwargs)

        monkeypatch.setattr(mfbc_mod, "mfbf", counting)
        with _service(
            graph,
            faults="seed:1,corrupt:1.0,checksum:1",
            elastic="off",
            retries=retries,
        ) as svc:
            params = {"samples": 8} if algorithm == "approx_bc" else {}
            qid = svc.submit(algorithm, **params)
            with pytest.raises(QueryError, match=f"after {retries + 1} attempts"):
                svc.result(qid, timeout=120.0)
            assert svc.stats()["retries"] == retries
        assert len(sweeps) == retries + 1

    def test_approx_bc_crash_takes_the_service_ladder(self):
        # a fixed-pivot query's crash is retried by the service (site
        # "serve", counted, backoff-free), not inside its mfbc driver; step 4
        # is the sweep's first product
        g = rmat_graph(7, 8, seed=0)
        machine = Machine(4, faults="seed:0,crash@4", elastic="off")
        with BCService(g, machine=machine, batch_window=0.02) as svc:
            scores = svc.result(
                svc.submit("approx_bc", samples=16, seed=0), timeout=120.0
            )
            stats = svc.stats()
        assert stats["retries"] == 1 and stats["failed"] == 0
        assert_fired(machine)
        recovered = [
            e.site
            for e in machine.faults.events
            if (e.kind, e.action) == ("batch", "recovered")
        ]
        assert recovered == ["serve"]
        from repro.core.approx import approximate_bc

        ref = approximate_bc(
            g, 16, seed=0, engine=DistributedEngine(Machine(4, faults="off"))
        )
        assert np.array_equal(scores, ref)

    def test_recovery_inside_a_served_driver_is_counted(self, graph):
        # the crash lands inside mfbc's own batch loop (retries=0, elastic
        # rung): the service still reports the recovery
        with _service(
            graph, faults="seed:3,crash@10:1", elastic="on"
        ) as svc:
            scores = svc.result(svc.submit("bc"), timeout=120.0)
            stats = svc.stats()
            assert len(svc.machine.recoveries) == 1
            assert_fired(svc.machine)
        assert stats["recoveries"] == 1 and stats["failed"] == 0
        ref = mfbc(graph, engine=DistributedEngine(Machine(4))).scores
        assert np.array_equal(scores, ref)


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


@pytest.fixture
def http_service(graph):
    svc = BCService(graph, p=4, batch_window=0.02)
    server = serve_http(svc, port=0)
    server.start_background()
    try:
        yield svc, server.address
    finally:
        server.shutdown()
        svc.close()


def _http(method, url, body=None, timeout=60.0):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestHTTP:
    def test_healthz_and_stats(self, http_service):
        _, base = http_service
        code, body = _http("GET", f"{base}/v1/healthz")
        assert code == 200 and body["ok"] is True
        code, body = _http("GET", f"{base}/v1/stats")
        assert code == 200 and "cache" in body

    def test_submit_wait_roundtrip(self, graph, http_service):
        _, base = http_service
        code, body = _http(
            "POST",
            f"{base}/v1/query",
            {"algorithm": "bc_source", "source": 3, "wait": True},
        )
        assert code == 200
        assert body["state"] == "done"
        assert np.array_equal(
            np.asarray(body["result"]), _reference_row(graph, 3)
        )

    def test_submit_poll_roundtrip(self, http_service):
        _, base = http_service
        code, body = _http(
            "POST", f"{base}/v1/query", {"algorithm": "bfs", "source": 0}
        )
        assert code in (200, 202)
        qid = body["id"]
        for _ in range(600):
            code, status = _http("GET", f"{base}/v1/query/{qid}")
            if status["state"] in ("done", "failed", "expired"):
                break
            import time

            time.sleep(0.05)
        assert status["state"] == "done"

    def test_adaptive_epsilon_delta_pass_through(self, http_service):
        svc, base = http_service
        code, body = _http(
            "POST",
            f"{base}/v1/query",
            {"algorithm": "adaptive_bc", "epsilon": 0.4, "delta": 0.2,
             "seed": 2, "wait": True},
        )
        assert code == 200 and body["state"] == "done"
        assert svc._get(body["id"]).params == {
            "epsilon": 0.4, "delta": 0.2, "seed": 2,
        }

    def test_cached_resubmit_returns_200_with_result(self, http_service):
        _, base = http_service
        _http(
            "POST",
            f"{base}/v1/query",
            {"algorithm": "bc_source", "source": 5, "wait": True},
        )
        code, body = _http(
            "POST", f"{base}/v1/query", {"algorithm": "bc_source", "source": 5}
        )
        assert code == 200  # submit-time cache hit carries the answer
        assert body["cache_hit"] is True and "result" in body

    def test_graph_update_over_http(self, http_service):
        svc, base = http_service
        code, body = _http(
            "POST",
            f"{base}/v1/graph",
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "directed": False},
        )
        assert code == 200
        assert body["graph_version"] == 1
        assert svc.graph.n == 4
        code, body = _http(
            "POST",
            f"{base}/v1/query",
            {"algorithm": "bc_source", "source": 1, "wait": True},
        )
        assert code == 200 and body["graph_version"] == 1

    def test_errors(self, http_service):
        _, base = http_service
        code, body = _http("POST", f"{base}/v1/query", {"source": 1})
        assert code == 400 and "algorithm" in body["error"]
        code, body = _http(
            "POST", f"{base}/v1/query", {"algorithm": "nope", "source": 1}
        )
        assert code == 400
        code, _ = _http("GET", f"{base}/v1/query/q999999")
        assert code == 404
        code, _ = _http("GET", f"{base}/v1/nothing")
        assert code == 404

    def test_infinite_floats_survive_json(self, graph, http_service):
        # a disconnected vertex's SSSP distance is modeled +inf
        _, base = http_service
        code, body = _http(
            "POST",
            f"{base}/v1/query",
            {"algorithm": "sssp", "source": 0, "wait": True},
        )
        assert code == 200  # json.dumps would have raised on bare Infinity


# ---------------------------------------------------------------------------
# load generator (the CI smoke's engine) + CLI wiring
# ---------------------------------------------------------------------------


class TestLoadgen:
    def test_generate_queries_is_deterministic_and_valid(self):
        from repro.serve.loadgen import generate_queries

        a = generate_queries(50, 100, seed=3)
        b = generate_queries(50, 100, seed=3)
        assert a == b
        for spec in a:
            if spec["algorithm"] in ("bc_source", "bfs", "sssp", "widest"):
                assert 0 <= spec["source"] < 100
            elif spec["algorithm"] == "approx_bc":
                assert spec["samples"] >= 1

    def test_direct_smoke_exits_zero(self, capsys):
        from repro.serve.loadgen import main

        rc = main(
            [
                "--queries",
                "30",
                "--concurrency",
                "4",
                "--scale",
                "5",
                "--p",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS: zero failed queries" in out

    def test_run_load_reports(self, graph):
        from repro.serve.loadgen import DirectClient, generate_queries, run_load

        with _service(graph) as svc:
            specs = generate_queries(20, graph.n, seed=1)
            report = run_load(DirectClient(svc), specs, concurrency=4)
        assert report.queries == 20
        assert report.failed == 0
        assert report.completed == 20
        assert report.percentile(99) >= report.percentile(50) >= 0
        assert "queries" in report.summary()


class TestCLI:
    def test_serve_subcommand_registered(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0


# ---------------------------------------------------------------------------
# the cache report, from a service's registry
# ---------------------------------------------------------------------------


class TestCacheReport:
    def test_cache_events_render_in_report(self, graph):
        from repro.analysis.report import cache_attribution, format_report

        with _service(graph) as svc:
            svc.result(svc.submit("bc_source", source=0), timeout=60.0)
            svc.result(svc.submit("bc_source", source=0), timeout=60.0)
        rows = cache_attribution(svc.metrics)
        assert any(r["algorithm"] == "bc_source" and r["hits"] >= 1 for r in rows)
        text = format_report("cache", svc.metrics)
        assert "serve.cache" in text and "bc_source" in text

    def test_empty_metrics_render_empty(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        assert format_report("cache", Metrics()) == ""
