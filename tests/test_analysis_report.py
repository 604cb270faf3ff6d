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
        m.count("memory.spill.events", 3, op="spill")
        m.count("memory.spill.words", 1200, op="spill")
        m.count("memory.spill.events", 2, op="unspill")
        m.count("memory.spill.words", 800, op="unspill")
        m.count("faults.evicted", 4, kind="spill", site="spgemm")  # a run event: no row
        assert format_report("memory", m) == (
            "memory pressure (memory.*):\n"
            "        event  count  words\n"
            "-------------  -----  -----\n"
            "  spill.spill      3   1200\n"
            "spill.unspill      2    800"
        )

    def test_faults(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        m = Metrics()
        m.count("faults.injected", 1, kind="crash", site="bcast")
        m.count("faults.recovered", 1, kind="crash", site="bcast")
        m.count("faults.recovered", 1, kind="batch", site="mfbc.batch")
        m.count("faults.evicted", 4, kind="spill", site="spgemm")
        m.count("faults.detected", 3, kind="mem", site="spgemm")
        m.count("faults.degraded", 2, kind="mem", rung="shrink_batch", site="mfbc.batch")
        m.count("memory.spill.events", 3, op="spill")  # spill traffic: no row
        assert format_report("faults", m) == (
            "run events (faults.*):\n"
            " kind        site          rung  injected  detected  recovered  degraded  evicted\n"
            "-----  ----------  ------------  --------  --------  ---------  --------  -------\n"
            "batch  mfbc.batch                       -         -          1         -        -\n"
            "crash       bcast                       1         -          1         -        -\n"
            "  mem  mfbc.batch  shrink_batch         -         -          -         2        -\n"
            "  mem      spgemm                       -         3          -         -        -\n"
            "spill      spgemm                       -         -          -         -        4"
        )

    def test_faults_without_a_rung_has_no_rung_column(self):
        from repro.analysis.report import format_report
        from repro.obs.metrics import Metrics

        m = Metrics()
        m.count("faults.injected", 2, kind="straggle", site="gather")
        assert format_report("faults", m) == (
            "run events (faults.*):\n"
            "    kind    site  injected\n"
            "--------  ------  --------\n"
            "straggle  gather         2"
        )


class TestOneReportPerSeries:
    """Every run-event and spill series of a machine's registry is rendered
    by exactly one row of exactly one report: bumping the series moves one
    row of one :data:`REPORTS` table and nothing else."""

    def test_budgeted_run_with_a_crash_torn_writes_and_the_shrink_rung(self):
        from repro.analysis.report import REPORTS
        from repro.core import mfbc
        from repro.dist import DistributedEngine
        from repro.graphs import rmat_graph
        from repro.machine import Machine
        from repro.obs.metrics import Metrics

        from conftest import assert_fired

        machine = Machine(
            4, memory_words=6000, faults="seed:1,crash@20:1,tear:0.3,limit:4",
            elastic="on", check="off",
        )
        mfbc(rmat_graph(7, 8, seed=1), batch_size=32, engine=DistributedEngine(machine))
        assert_fired(machine)
        metrics = machine.metrics
        series = [
            (name, dict(labels))
            for name in metrics.names()
            if name.startswith(("faults.", "memory."))
            for labels in metrics.series(name)
        ]
        kinds = {(name, labels.get("kind")) for name, labels in series}
        assert {
            ("faults.injected", "crash"),
            ("faults.recovered", "crash"),
            ("faults.injected", "tear"),
            ("faults.detected", "tear"),
            ("faults.detected", "mem"),
            ("faults.degraded", "mem"),
            ("faults.evicted", "spill"),
            ("memory.spill.events", None),
            ("memory.spill.words", None),
        } <= kinds
        assert any("rung" in labels for _, labels in series)

        def tables(m):
            return {name: entry[1](m) for name, entry in REPORTS.items()}

        before = tables(metrics)
        for name, labels in series:
            bumped = Metrics()
            for row in metrics.snapshot():
                bumped.count(row["metric"], row["value"], **row["labels"])
            bumped.count(name, 1000.0, **labels)
            moved = [
                (report, i)
                for report, rows in tables(bumped).items()
                for i, (old, new) in enumerate(zip(before[report], rows))
                if old != new
            ]
            assert len(moved) == 1, (name, labels, moved)
