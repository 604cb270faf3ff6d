"""Report rendering and the TEPS metric helpers."""

import numpy as np
import pytest

from repro.analysis import format_table, mteps, mteps_per_node, traversed_edges
from repro.graphs import Graph


@pytest.fixture
def tiny():
    return Graph(4, np.array([0, 1, 2]), np.array([1, 2, 3]))


class TestTeps:
    def test_traversals_all_sources(self, tiny):
        # undirected: nnz(A) = 2m, traversals = n · 2m
        assert traversed_edges(tiny) == 4 * 6

    def test_traversals_subset(self, tiny):
        assert traversed_edges(tiny, 2) == 2 * 6

    def test_mteps(self, tiny):
        assert mteps(tiny, seconds=1.0) == pytest.approx(24 / 1e6)
        assert mteps(tiny, seconds=0.0) == 0.0

    def test_mteps_per_node(self, tiny):
        assert mteps_per_node(tiny, 1.0, 4) == pytest.approx(24 / 4e6)
        with pytest.raises(ValueError):
            mteps_per_node(tiny, 1.0, 0)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2.5], [100, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        widths = {len(l) for l in lines}
        assert len(widths) == 1  # all lines equal width

    def test_float_formats(self):
        out = format_table(["x"], [[1e-9], [0.5], [123456.0], [0]])
        assert "1.000e-09" in out and "1.235e+05" in out and "0.5" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out


class TestLiteralReports:
    """Exact text of every report, from a hand-filled registry: the layout
    is what ``repro serve`` and ``repro trace`` print, so a renderer change
    must show here."""

    def test_cache(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        m = Metrics()
        m.count("serve.cache.hit", 3, algorithm="bc_source")
        m.count("serve.cache.miss", 1, algorithm="bc_source")
        m.count("serve.cache.miss", 2, algorithm="top_k")
        m.count("serve.cache.invalidate", 5, algorithm="top_k")
        assert format_report("cache", m) == (
            "cache events (serve.cache.*):\n"
            "algorithm  hits  misses  invalidated  hit rate\n"
            "---------  ----  ------  -----------  --------\n"
            "bc_source     3       1            0     75.0%\n"
            "    top_k     0       2            5      0.0%"
        )

    def test_overload(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        m = Metrics()
        m.count("serve.overload.shed", 4, reason="queue_seconds")
        m.count("serve.overload.degraded", 2, algorithm="bc_all")
        m.count("serve.overload.state", 1, transition="normal->brownout")
        m.count("serve.overload.dispatcher_restart", 1)
        m.count("serve.overload.stale", 0, algorithm="bc_all")  # zero: no row
        assert format_report("overload", m) == (
            "overload events (serve.overload.*):\n"
            "             event             label  count\n"
            "------------------  ----------------  -----\n"
            "              shed     queue_seconds      4\n"
            "          degraded            bc_all      2\n"
            "             state  normal->brownout      1\n"
            "dispatcher_restart                        1"
        )

    def test_memory(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        m = Metrics()
        m.count("memory.spill.events", 3, op="spill", site="distmat")
        m.count("memory.spill.words", 1200, op="spill", site="distmat")
        m.count("memory.spill.events", 2, op="unspill", site="distmat")
        m.count("memory.spill.words", 800, op="unspill", site="distmat")
        m.count("faults.detected", 1, kind="tear", site="distmat")
        m.count("faults.evicted", 4, kind="spill", site="spgemm")
        m.count("faults.degraded", 2, kind="mem", rung="shrink_batch", site="mfbc.batch")
        m.count("faults.detected", 3, kind="mem", site="spgemm")  # an OOM: no row
        assert format_report("memory", m) == (
            "memory pressure (memory.*):\n"
            "              event        site  count  words\n"
            "-------------------  ----------  -----  -----\n"
            "        spill.spill     distmat      3   1200\n"
            "      spill.unspill     distmat      2    800\n"
            "         spill.torn     distmat      1      0\n"
            "             relief      spgemm      4      0\n"
            "ladder.shrink_batch  mfbc.batch      2      0"
        )

    def test_faults(self):
        from repro.faults import FaultEvent, FaultPlan, format_fault_report

        plan = FaultPlan.from_spec("seed:3,crash:0.02,limit:2")
        plan.events.extend(
            [
                FaultEvent("crash", "injected", 12, "bcast", rank=1),
                FaultEvent("crash", "recovered", 12, "bcast", rank=1, detail={"p": 3}),
                FaultEvent("batch", "recovered", 40, "mfbc.batch"),
                FaultEvent("mem", "squeezed", 41, "spgemm", rank=0),
            ]
        )
        assert format_fault_report(plan) == (
            "fault injection summary (plan seed:3,crash:0.02,limit:2):\n"
            "   kind        site  injected  recovered  squeezed\n"
            "  -----  ----------  --------  ---------  --------\n"
            "  batch  mfbc.batch         -          1         -\n"
            "  crash       bcast         1          1         -\n"
            "    mem      spgemm         -          -         1\n"
            "  events:\n"
            "    step    12  crash    injected  rank   1  bcast\n"
            "    step    12  crash    recovered rank   1  bcast p=3\n"
            "    step    40  batch    recovered rank   -  mfbc.batch\n"
            "    step    41  mem      squeezed  rank   0  spgemm"
        )
