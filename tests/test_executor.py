"""The rank-parallel local-execution backends and the keyword-only API audit.

Covers executor resolution (instances, ``name[:N]`` strings, the
``REPRO_EXECUTOR`` environment fallback), the cost-aware dispatch gate,
result ordering, the per-rank skew report, the deprecation shims for the
pre-audit positional constructors, and the runtime-checkable
:class:`Engine` protocol.  Cross-backend *equivalence* over randomized
inputs lives in ``test_cross_engine_fuzz.py``.
"""

import numpy as np
import pytest

from repro.core.engine import Engine, SequentialEngine
from repro.dist import DistMat, DistributedEngine
from repro.machine import CostParams, Machine
from repro.machine.executor import (
    LocalExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_backends,
    executor_skew_report,
    resolve_executor,
)
from repro.obs import api as obs
from repro.sparse.spgemm import spgemm
from repro.spgemm.selector import PinnedPolicy

from conftest import random_weight_spmat

from repro.algebra import TROPICAL

SPEC = TROPICAL.matmul_spec()


def pairs_for(rng, n_pairs, m=18, density=0.3):
    return [
        (
            random_weight_spmat(rng, m, m, density),
            random_weight_spmat(rng, m, m, density),
        )
        for _ in range(n_pairs)
    ]


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        ex = resolve_executor(None)
        assert isinstance(ex, SerialExecutor)
        assert ex.name == "serial"

    def test_name_with_workers(self):
        ex = resolve_executor("thread:3")
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 3
        ex.close()

    def test_name_without_workers_uses_host_default(self):
        ex = resolve_executor("thread")
        assert ex.workers >= 1
        ex.close()

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread:2")
        ex = resolve_executor(None)
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 2
        ex.close()

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_nonpositive_workers_raises(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_executor("thread:0")

    def test_non_string_raises(self):
        with pytest.raises(TypeError):
            resolve_executor(42)

    def test_available_backends(self):
        assert available_backends() == ("serial", "thread")

    def test_machine_threads_executor_through(self):
        m = Machine(4, executor="thread:2")
        assert m.executor.name == "thread"
        assert m.executor.workers == 2
        assert "executor=thread" in repr(m)
        m.executor.close()

    def test_machine_env_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread:2")
        m = Machine(2)
        assert m.executor.name == "thread"
        m.executor.close()


# ---------------------------------------------------------------------------
# dispatch gate
# ---------------------------------------------------------------------------


class TestDispatchGate:
    def test_serial_never_fans_out(self):
        assert not SerialExecutor().should_fanout(64, 1e12)

    def test_small_work_runs_inline(self):
        ex = ThreadExecutor(2)
        assert not ex.should_fanout(8, ex.fanout_min_work - 1)
        assert ex.should_fanout(8, ex.fanout_min_work)
        ex.close()

    def test_single_task_runs_inline(self):
        ex = ThreadExecutor(2, fanout_min_work=0)
        assert not ex.should_fanout(1, 1e12)
        ex.close()

    def test_inline_and_fanout_counters(self, rng):
        with ThreadExecutor(2, fanout_min_work=0) as ex, obs.use() as session:
            ex.run_tasks([lambda: 1, lambda: 2], site="t", est_work=10.0)
            big = ThreadExecutor(2)  # default floor: same batch stays inline
            big.run_tasks([lambda: 1, lambda: 2], site="t", est_work=10.0)
            big.close()
        m = session.metrics
        assert m.get_count("executor.batches", backend="thread", site="t", mode="fanout") == 1
        assert m.get_count("executor.batches", backend="thread", site="t", mode="inline") == 1
        assert m.get_count("executor.tasks", backend="thread", site="t", mode="fanout") == 2

    def test_fanout_records_rank_histograms_and_utilization(self, rng):
        pairs = pairs_for(rng, 3)
        with ThreadExecutor(2, fanout_min_work=0) as ex, obs.use() as session:
            ex.run_spgemm(pairs, SPEC, site="spgemm", ranks=[5, 9, 13])
        hists = session.metrics.series("executor.rank_wall_seconds")
        ranks = {int(dict(k)["rank"]) for k in hists}
        assert ranks == {5, 9, 13}
        util = session.metrics.get_gauge(
            "executor.utilization", backend="thread", site="spgemm"
        )
        assert util is not None and util > 0


# ---------------------------------------------------------------------------
# execution semantics
# ---------------------------------------------------------------------------


class TestThreadExecutor:
    def test_run_tasks_preserves_submission_order(self):
        with ThreadExecutor(4, fanout_min_work=0) as ex:
            out = ex.run_tasks(
                [lambda i=i: i * i for i in range(16)],
                site="t",
                est_work=1e9,
            )
        assert out == [i * i for i in range(16)]

    def test_run_spgemm_matches_serial_kernel(self, rng):
        pairs = pairs_for(rng, 5)
        ref = [spgemm(x, y, SPEC) for x, y in pairs]
        with ThreadExecutor(2, fanout_min_work=0) as ex:
            out = ex.run_spgemm(pairs, SPEC)
        for got, want in zip(out, ref):
            assert got.matrix.equals(want.matrix)
            assert got.ops == want.ops

    def test_close_is_idempotent(self):
        ex = ThreadExecutor(2, fanout_min_work=0)
        ex.run_tasks([lambda: 1, lambda: 2], site="t", est_work=1e9)
        ex.close()
        ex.close()
        # pool is lazily recreated after close
        assert ex.run_tasks([lambda: 3, lambda: 4], site="t", est_work=1e9) == [3, 4]
        ex.close()


# ---------------------------------------------------------------------------
# skew report
# ---------------------------------------------------------------------------


class TestSkewReport:
    def test_empty_metrics(self):
        from repro.obs.metrics import Metrics

        out = executor_skew_report(Metrics(), Machine(2))
        assert "no fanned-out batches" in out

    def test_renders_per_rank_rows(self, rng):
        machine = Machine(4, executor=ThreadExecutor(2, fanout_min_work=0))
        pairs = pairs_for(rng, 4)
        with obs.use() as session:
            res = machine.executor.run_spgemm(pairs, SPEC, ranks=[0, 1, 2, 3])
            for rank, r in enumerate(res):
                machine.charge_compute([rank], float(max(r.ops, 1)))
        report = executor_skew_report(session.metrics, machine)
        assert "rank" in report and "skew" in report
        # one title + one header + one rule + one row per rank
        assert len(report.splitlines()) == 3 + 4
        machine.executor.close()


# ---------------------------------------------------------------------------
# keyword-only audit: signatures + Engine protocol
# ---------------------------------------------------------------------------


class TestKeywordOnlySignatures:
    """The PR-2 deprecation period is over: positional extras now raise."""

    def test_machine_rejects_positional_cost(self):
        with pytest.raises(TypeError):
            Machine(4, CostParams())

    def test_engine_rejects_positional_policy(self):
        with pytest.raises(TypeError):
            DistributedEngine(Machine(4), PinnedPolicy.ca_mfbc(4, 1))

    def test_distribute_rejects_positional_splits(self, rng):
        machine = Machine(4)
        mat = random_weight_spmat(rng, 10, 10, 0.3)
        ranks2d = np.arange(4).reshape(2, 2)
        with pytest.raises(TypeError):
            DistMat.distribute(
                mat, machine, ranks2d, np.array([0, 5, 10]), np.array([0, 5, 10])
            )

    def test_keyword_calls_work(self, rng):
        machine = Machine(4, cost=CostParams(), memory_words=None)
        eng = DistributedEngine(machine, policy=None)
        assert eng.machine is machine
        DistMat.distribute(
            random_weight_spmat(rng, 8, 8, 0.3),
            machine,
            np.arange(4).reshape(2, 2),
        )


class TestEngineProtocol:
    def test_runtime_checks(self):
        assert isinstance(SequentialEngine(), Engine)
        assert isinstance(DistributedEngine(Machine(2)), Engine)

    def test_sequential_register_invariant_is_noop(self, rng):
        eng = SequentialEngine()
        mat = random_weight_spmat(rng, 5, 5, 0.5)
        assert eng.register_invariant(mat) is None

    def test_exported_from_top_level(self):
        import repro

        for name in (
            "Engine",
            "LocalExecutor",
            "SerialExecutor",
            "ThreadExecutor",
            "resolve_executor",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestExecutorIsALocalExecutor:
    def test_all_backends_instantiate(self):
        for name in available_backends():
            ex = resolve_executor(f"{name}:1")
            assert isinstance(ex, LocalExecutor)
            ex.close()
