"""The observability subsystem: tracer, metrics, hooks, export, reconciliation."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.core.mfbc import mfbc
from repro.dist.engine import DistributedEngine
from repro.spgemm.selector import PinnedPolicy
from repro.graphs import uniform_random_graph_nm
from repro.machine.machine import Machine
from repro.obs.tracer import PID_MODELED, PID_WALL


@pytest.fixture(autouse=True)
def _no_leaked_sessions():
    """Every test must leave the global session stack empty."""
    yield
    while obs.disable() is not None:
        pass


@pytest.fixture
def traced_run():
    """One traced simulated MFBC run: (tracer, metrics, machine, engine,
    result)."""
    g = uniform_random_graph_nm(100, 4.0, seed=3)
    machine = Machine(16)
    session = obs.enable()
    obs.set_modeled_clock(machine.ledger.critical_time)
    try:
        engine = DistributedEngine(machine)
        result = mfbc(g, batch_size=32, engine=engine, max_batches=2)
    finally:
        obs.disable()
    return session.tracer, session.metrics, machine, engine, result


class TestSpanNesting:
    def test_parents_depths_and_attributes(self):
        tr = obs.Tracer()
        with tr.span("outer", cat="run", a=1) as outer:
            with tr.span("inner", cat="phase") as inner:
                inner.set(found=7)
            tr.complete("leaf", cat="collective", modeled_ts=0.0, modeled_dur=1.0)
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == outer.index and inner.depth == 1
        leaf = tr.find("leaf")[0]
        assert leaf.parent == outer.index
        assert outer.args == {"a": 1}
        assert inner.args == {"found": 7}
        assert tr.roots() == [outer]
        assert tr.children(outer) == [inner, leaf]
        assert outer.closed and outer.wall_dur >= inner.wall_dur >= 0.0

    def test_mismatched_end_raises(self):
        tr = obs.Tracer()
        a = tr.begin("a")
        tr.begin("b")
        with pytest.raises(RuntimeError, match="stack corrupted"):
            tr.end(a)

    def test_each_thread_nests_on_its_own_stack(self):
        # a client's span closes while another thread (the service's
        # dispatcher) still has a sweep open: neither is the other's parent
        import threading

        tr = obs.Tracer()
        opened, closed = threading.Event(), threading.Event()
        inside = {}

        def sweep():
            with tr.span("serve.batch") as batch:
                with tr.span("adjacency") as phase:
                    inside["batch"], inside["phase"] = batch, phase
                    opened.set()
                    closed.wait(10.0)

        worker = threading.Thread(target=sweep)
        with tr.span("client") as client:
            worker.start()
            assert opened.wait(10.0)
            leaf = tr.complete("note")
        closed.set()
        worker.join(10.0)
        assert not worker.is_alive()
        assert client.closed and inside["batch"].closed
        assert client.parent is None and inside["batch"].parent is None
        assert inside["phase"].parent == inside["batch"].index
        assert leaf.parent == client.index
        assert [sp.index for sp in tr.spans] == list(range(len(tr.spans)))

    def test_modeled_clock_records_modeled_durations(self):
        clock = [0.0]
        tr = obs.Tracer(modeled_clock=lambda: clock[0])
        with tr.span("work") as sp:
            clock[0] += 2.5
        assert sp.modeled_ts == 0.0
        assert sp.modeled_dur == pytest.approx(2.5)


class TestChromeExport:
    def test_schema_valid_and_loadable(self, traced_run):
        tracer, *_ = traced_run
        trace = obs.chrome_trace(tracer)
        obs.validate_chrome_trace(trace)  # must not raise
        # round-trips through JSON
        loaded = json.loads(json.dumps(trace))
        events = loaded["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        assert x_events, "expected complete events"
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in x_events)
        pids = {e["pid"] for e in x_events}
        assert pids == {PID_WALL, PID_MODELED}
        # the interesting span categories all made it into the trace
        cats = {e["cat"] for e in x_events}
        assert {"run", "batch", "phase", "spgemm", "collective", "selector"} <= cats

    def test_spgemm_events_carry_variant_attrs(self, traced_run):
        tracer, *_ = traced_run
        spg = tracer.find(cat="spgemm")
        assert spg
        for sp in spg:
            assert "variant" in sp.args and "product_nnz" in sp.args

    def test_collective_events_carry_traffic_attrs(self, traced_run):
        tracer, *_ = traced_run
        colls = tracer.find(cat="collective")
        assert colls
        for sp in colls:
            assert sp.args["ranks"] >= 2
            assert sp.args["words"] >= 0 and sp.args["msgs"] >= 0
            assert sp.modeled_dur is not None and sp.modeled_dur >= 0

    def test_monotonic_consistency_rejects_bad_trace(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": -5.0, "dur": 1.0}
            ]
        }
        with pytest.raises(ValueError, match="invalid ts"):
            obs.validate_chrome_trace(bad)
        overlap = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 10.0},
                {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 10.0},
            ]
        }
        with pytest.raises(ValueError, match="overlaps"):
            obs.validate_chrome_trace(overlap)

    def test_ca_policy_overlapping_collectives_get_lanes(self):
        # Under the 3D CA policy, collectives over disjoint fiber groups
        # overlap in modeled time; chrome_trace must spread them over
        # extra thread rows so each row stays properly nested.
        g = uniform_random_graph_nm(100, 4.0, seed=3)
        machine = Machine(16)
        session = obs.enable()
        obs.set_modeled_clock(machine.ledger.critical_time)
        try:
            engine = DistributedEngine(machine, policy=PinnedPolicy.ca_mfbc(p=16, c=4))
            mfbc(g, batch_size=32, engine=engine, max_batches=1)
        finally:
            obs.disable()
        trace = obs.chrome_trace(session.tracer)
        obs.validate_chrome_trace(trace)  # must not raise
        coll_tids = {
            e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == PID_MODELED and e["cat"] == "collective"
        }
        assert min(coll_tids) == 1
        assert len(coll_tids) > 1, "expected overlapping collectives on extra lanes"
        lane_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == PID_MODELED
        }
        assert len(lane_names) == len(coll_tids)

    def test_write_files(self, traced_run, tmp_path):
        tracer, metrics, *_ = traced_run
        trace = obs.write_chrome_trace(tracer, tmp_path / "trace.json")
        with open(tmp_path / "trace.json") as fh:
            assert json.load(fh) == json.loads(json.dumps(trace))
        n = obs.write_jsonl(tracer, tmp_path / "trace.jsonl", metrics=metrics)
        lines = (tmp_path / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == n
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"span", "metric"}


class TestReconciliation:
    def test_span_totals_match_ledger_within_1pct(self, traced_run):
        tracer, _, machine, *_ = traced_run
        rec = obs.reconcile(tracer, machine.ledger)
        assert rec["ledger_seconds"] > 0
        assert rec["relative_error"] <= 0.01

    def test_traced_run_records_agree(self, traced_run):
        """Each run fact is recorded once; the records that describe the
        same run agree: collective spans with the ledger, product spans
        with the plan log and the run's stats."""
        tracer, _, machine, engine, result = traced_run
        colls = tracer.find(cat="collective")
        words: dict[str, float] = {}
        for sp in colls:
            words[sp.name] = words.get(sp.name, 0.0) + sp.args["volume_words"]
        assert words == pytest.approx(machine.ledger.category_words)
        assert sum(words.values()) > 0
        msgs = sum(sp.args["msgs"] * sp.args["ranks"] for sp in colls)
        assert msgs == pytest.approx(machine.ledger.total_msgs)
        products = tracer.find("spgemm", cat="spgemm")
        assert products and len(products) == len(engine.plan_log)
        assert sum(sp.args["ops"] for sp in products) == result.stats.total_ops

    def test_trace_attribution_covers_comm_time(self, traced_run):
        from repro.analysis.report import format_trace_report, trace_attribution

        tracer, _, machine, *_ = traced_run
        rows = trace_attribution(tracer, machine.ledger)
        assert rows
        cats = {r["category"] for r in rows}
        assert "redistribute" in cats
        comm = sum(r["seconds"] for r in rows)
        # collective spans account for the ledger's comm critical path
        # (they are the only source of comm time charges)
        assert comm > 0
        assert comm <= machine.ledger.critical_time() + 1e-12
        text = format_trace_report(tracer, machine.ledger)
        assert "redistribute" in text and "% of critical" in text


class TestDisabledMode:
    def test_hooks_are_noops(self):
        assert not obs.enabled()
        sp = obs.span("x", cat="y", huge=1)
        assert sp is obs.NULL_SPAN
        with sp as inner:
            inner.set(anything=1)  # must not raise
        assert obs.complete("x", modeled_ts=0.0, modeled_dur=1.0) is None
        obs.count("c")
        obs.set_attr(a=1)
        assert obs.tracer() is None and obs.metrics() is None
        with obs.timed("bench.op", tag="t") as t:
            time.sleep(0.001)
        assert t.seconds >= 0.001

    def test_null_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_set_modeled_clock_requires_session(self):
        with pytest.raises(RuntimeError, match="no active"):
            obs.set_modeled_clock(lambda: 0.0)

    def test_no_measurable_overhead(self):
        """The disabled fast path must stay within noise of a bare loop."""

        def bare(n):
            acc = 0
            for i in range(n):
                acc += i
            return acc

        def instrumented(n):
            acc = 0
            for i in range(n):
                if obs.enabled():
                    obs.count("hot.iteration", 1.0, i=i)
                acc += i
            return acc

        n = 50_000
        bare(n), instrumented(n)  # warm up

        def best(fn):  # best-of-5 for stability
            best_t = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                fn(n)
                best_t = min(best_t, time.perf_counter() - t0)
            return best_t

        t_bare, t_inst = best(bare), best(instrumented)
        # loose bound: guarded hook adds one truthiness check per iteration
        assert t_inst < t_bare * 3 + 0.05

    def test_sequential_spgemm_identical_disabled(self):
        from repro.core.engine import SequentialEngine

        g = uniform_random_graph_nm(60, 4.0, seed=5)
        ref = mfbc(g, batch_size=30, engine=SequentialEngine()).scores
        session = obs.enable()
        try:
            traced = mfbc(g, batch_size=30, engine=SequentialEngine()).scores
        finally:
            obs.disable()
        assert np.allclose(ref, traced)
        assert session.tracer.find(cat="spgemm")


class TestMetrics:
    def test_counter_label_aggregation(self):
        m = obs.Metrics()
        m.count("words", 10.0, category="bcast", phase="fwd")
        m.count("words", 5.0, category="bcast", phase="bwd")
        m.count("words", 2.0, category="reduce", phase="fwd")
        assert m.get_count("words", category="bcast", phase="fwd") == 10.0
        assert m.total("words", category="bcast") == 15.0
        assert m.total("words", phase="fwd") == 12.0
        assert m.total("words") == 17.0
        # label order at the call site does not matter
        m.count("words", 1.0, phase="fwd", category="bcast")
        assert m.get_count("words", category="bcast", phase="fwd") == 11.0

    def test_threads_sharing_a_registry_lose_no_count(self):
        # a service's client threads, dispatcher and watchdog share one
        import sys
        import threading

        m, tr = obs.Metrics(), obs.Tracer()

        def work():
            for _ in range(2000):
                m.count("serve.queries", outcome="done")
                with tr.span("q"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert m.total("serve.queries") == 8 * 2000
        assert [sp.index for sp in tr.spans] == list(range(8 * 2000))

    def test_snapshot_rows(self):
        m = obs.Metrics()
        m.count("c", 1.0, k="v")
        m.count("c", 2.0, k="v")
        m.count("b")
        rows = m.snapshot()
        assert rows == [
            {"metric": "b", "type": "counter", "labels": {}, "value": 1.0},
            {"metric": "c", "type": "counter", "labels": {"k": "v"}, "value": 3.0},
        ]
        assert m.names() == ["b", "c"]
        json.dumps(rows)  # exportable


class TestSessionStack:
    def test_use_is_private_capture(self):
        outer = obs.enable()
        with obs.use() as inner_session:
            obs.count("x")
            with obs.span("inner-only"):
                pass
        obs.count("y")
        obs.disable()
        assert inner_session.metrics.get_count("x") == 1.0
        assert outer.metrics.get_count("x") == 0.0
        assert outer.metrics.get_count("y") == 1.0
        assert [s.name for s in inner_session.tracer.spans] == ["inner-only"]
        assert not outer.tracer.find("inner-only")

    def test_combblas_trace_lands_in_the_outer_session(self):
        from repro.analysis.scaling import trace_combblas

        g = uniform_random_graph_nm(60, 4.0, seed=11)
        outer = obs.enable()
        stats, srcs = trace_combblas(g, batch_size=30, max_batches=1)
        obs.disable()
        assert srcs == 30
        its = stats.batches[0].iterations
        assert its
        for it in its:
            assert it.phase == "real"
            assert it.ops >= 0 and it.product_nnz >= 0
        # nothing is captured privately: the driver span and one spgemm
        # span per recorded product reach the caller's session
        assert outer.tracer.find("combblas")
        assert len(outer.tracer.find(cat="spgemm")) == len(its)


class TestTimer:
    def test_timed_lands_in_active_session(self):
        session = obs.enable()
        with obs.timed("bench.op2", tag="t") as t:
            pass
        obs.disable()
        spans = session.tracer.find("bench.op2", cat="timer")
        assert len(spans) == 1 and spans[0].wall_dur == t.seconds >= 0
        assert spans[0].args == {"tag": "t"}
        assert not session.metrics.names()


def test_run_events_are_counted_once_in_the_machine_registry():
    """A run event is counted once, in ``machine.metrics``, whether or not
    tracing is on: the session counts only ``kernel.dispatch`` (a kernel has
    no machine), the owning objects keep no second tally, and a service
    counts into its machine's registry.  A collective's traffic is on its
    span and in the ledger, a product's on its span and the engine's plan
    log (the ``serve.*`` spans stay on the tracer); and the registry holds
    counters only."""
    import re
    from pathlib import Path

    import repro
    from repro.memory import MemoryManager, SpillStore
    from repro.serve import BCService, service

    root = Path(repro.__file__).parent
    found = {
        (str(path.relative_to(root)), m.group(1))
        for path in root.rglob("*.py")
        for m in re.finditer(r"\bobs\.(count|gauge|observe)\(", path.read_text())
    }
    assert found == {("sparse/dispatch.py", "count")}
    assert not hasattr(obs, "gauge") and not hasattr(obs, "observe")
    store = SpillStore(machine=Machine(1))
    for name in ("spilled_blocks", "restored_blocks", "spilled_words",
                 "restored_words", "torn_writes"):
        assert not hasattr(store, name)
    assert not hasattr(MemoryManager(Machine(1)), "reliefs")
    m = Machine(2)
    with BCService(uniform_random_graph_nm(16, 4.0, seed=0), machine=m) as svc:
        assert svc.metrics is m.metrics
    spans = Path(service.__file__).read_text()
    assert '"serve.batch"' in spans and '"serve.query"' in spans
