"""The command-line interface."""

import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import uniform_random_graph_nm, write_edgelist


@pytest.fixture
def graph_file(tmp_path):
    g = uniform_random_graph_nm(40, 4.0, seed=81)
    p = tmp_path / "g.txt"
    write_edgelist(g, p)
    # read_edgelist compacts ids, dropping isolated vertices
    from repro.graphs import read_edgelist

    return str(p), read_edgelist(p).n


class TestBC:
    def test_exact(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bc", path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "exact BC" in out
        assert len(out.strip().splitlines()) >= 4

    def test_sampled_with_output(self, graph_file, tmp_path, capsys):
        path, n = graph_file
        out_file = tmp_path / "scores.txt"
        assert (
            main(
                [
                    "bc",
                    path,
                    "--samples",
                    "8",
                    "--seed",
                    "1",
                    "-o",
                    str(out_file),
                ]
            )
            == 0
        )
        scores = np.loadtxt(out_file)
        assert len(scores) == n

    def test_normalized(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bc", path, "--normalized", "--top", "1"]) == 0

    def test_adaptive(self, graph_file, tmp_path, capsys):
        path, n = graph_file
        out_file = tmp_path / "scores.txt"
        assert (
            main(
                ["bc", path, "--epsilon", "0.3", "--delta", "0.2",
                 "--seed", "1", "-o", str(out_file)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive BC (ε=0.3, δ=0.2)" in out
        assert "converged" in out
        assert len(np.loadtxt(out_file)) == n

    def test_adaptive_checkpoint_resume(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        ck = str(tmp_path / "ad.ckpt.json")
        args = ["bc", path, "--epsilon", "0.3", "--delta", "0.2", "--seed",
                "1", "--checkpoint", ck]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # resumes from the converged checkpoint
        second = capsys.readouterr().out
        assert first.splitlines()[-3:] == second.splitlines()[-3:]

    def test_adaptive_excludes_samples(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bc", path, "--epsilon", "0.3", "--samples", "5"]) == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_samples_excludes_checkpoint(self, graph_file, tmp_path, capsys):
        # a sampled run writes no checkpoint: refused before anything runs
        path, _ = graph_file
        ck = tmp_path / "c.json"
        assert main(["bc", path, "--samples", "8", "--checkpoint", str(ck)]) == 2
        out = capsys.readouterr().out
        assert "--samples" in out and "--checkpoint" in out
        assert "approximate BC" not in out and not ck.exists()


class TestGenerate:
    @pytest.mark.parametrize("family", ["rmat", "uniform"])
    def test_families(self, family, tmp_path, capsys):
        out = tmp_path / "g.txt"
        args = ["generate", family, "-o", str(out), "--seed", "3"]
        if family == "rmat":
            args += ["--scale", "7", "--degree", "4"]
        else:
            args += ["--n", "100", "--degree", "4"]
        assert main(args) == 0
        assert out.exists()

    def test_standin(self, tmp_path):
        out = tmp_path / "g.txt"
        # smallest stand-in at full recipe size is big; cit at default
        # is manageable for a generation-only test
        assert main(["generate", "cit", "-o", str(out)]) == 0
        assert out.stat().st_size > 0

    def test_weighted(self, tmp_path):
        out = tmp_path / "g.txt"
        assert (
            main(
                [
                    "generate",
                    "uniform",
                    "--n",
                    "50",
                    "--degree",
                    "4",
                    "--weights",
                    "1",
                    "10",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        # third column present
        line = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ][0]
        assert len(line.split()) == 3


class TestSimulateAndInfo:
    @pytest.mark.parametrize("policy", ["auto", "ca", "square2d"])
    def test_simulate_policies(self, graph_file, capsys, policy):
        path, _ = graph_file
        args = [
            "simulate",
            path,
            "--p",
            "4",
            "--batch",
            "10",
            "--policy",
            policy,
        ]
        if policy == "ca":
            args += ["--c", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "critical words" in out

    def test_simulate_corruption_detected_and_recovered(self, graph_file, capsys):
        """A scripted in-product corruption under the checksum guard: one
        injection, one detection, one recovered batch, fault-free scores."""
        path, _ = graph_file
        base = ["simulate", path, "--p", "16", "--elastic", "off"]

        def crc(out):
            return [l for l in out.splitlines() if l.startswith("scores crc32")]

        assert main(base + ["--faults", "off"]) == 0
        clean = capsys.readouterr().out
        assert main(base + ["--faults", "corrupt@5,checksum:1"]) == 0
        out = capsys.readouterr().out
        assert (
            "run events (faults.*):\n"
            "   kind      site  injected  detected  recovered\n"
            "-------  --------  --------  --------  ---------\n"
            "  batch      mfbc         -         -          1\n"
            "corrupt  alltoall         1         1          -\n"
        ) in out
        assert crc(out) and crc(out) == crc(clean)

    @pytest.mark.parametrize(
        "command, fault",
        [("simulate", "corrupt@100000"), ("trace", "crash@100000:1")],
    )
    def test_a_scripted_fault_that_never_fires_fails_the_run(
        self, graph_file, tmp_path, capsys, command, fault
    ):
        """A one-shot scripted past the run's last collective leaves the run
        fault-free; the command says so and exits non-zero, after its
        summary."""
        path, _ = graph_file
        args = [command, path, "--p", "4", "--faults", f"seed:1,{fault}"]
        if command == "trace":
            args += ["-o", str(tmp_path / "trace.json")]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "sources processed" in captured.out
        assert "FAIL: scripted faults never fired" in captured.err
        assert "100000" in captured.err

    def test_checkpoint_resumes_under_memory_budget(self, tmp_path, capsys):
        """Re-running a budgeted command resumes its checkpoint: the shrink
        rung narrows the sweep, not the batch, so the checkpoint records the
        batch size asked for, and the scores are the unbudgeted run's."""
        g7 = str(tmp_path / "g7.txt")
        assert main(["generate", "rmat", "--scale", "7", "--degree", "8",
                     "--seed", "1", "-o", g7]) == 0
        base = ["simulate", g7, "--p", "3", "--batch", "32"]
        budgeted = base + ["--batches", "1", "--memory-words", "6000",
                           "--checkpoint", str(tmp_path / "ck.json")]
        capsys.readouterr()
        assert main(budgeted) == 0
        first = capsys.readouterr().out
        assert "sources processed : 32" in first
        assert main(budgeted) == 0
        second = capsys.readouterr().out
        assert "resuming from checkpoint" in second
        assert "sources processed : 64" in second
        assert main(base + ["--batches", "2"]) == 0
        unbudgeted = capsys.readouterr().out

        def crc(out):
            return [l for l in out.splitlines() if l.startswith("scores crc32")]

        assert crc(second) and crc(second) == crc(unbudgeted)

    def test_simulate_prints_the_memory_table_trace_prints(self, tmp_path, capsys):
        """The memory section is counted in the machine's registry, so a
        budgeted run prints the same table with tracing on or off; the torn
        writes and the shrink rung are run events, not memory rows."""
        g7 = str(tmp_path / "g7.txt")
        assert main(["generate", "rmat", "--scale", "7", "--degree", "8",
                     "--seed", "1", "-o", g7]) == 0
        run = [g7, "--p", "4", "--memory-words", "6000",
               "--faults", "seed:1,tear:0.3,limit:4"]
        capsys.readouterr()
        assert main(["simulate", *run]) == 0
        simulated = capsys.readouterr().out
        assert main(["trace", *run, "-o", str(tmp_path / "trace.json")]) == 0
        traced = capsys.readouterr().out

        def memory(out):
            return out.split("\nmemory            : peak ")[1].split("\n\n")[0].rstrip()

        table = memory(simulated)
        assert "\nmemory pressure (memory.*):\n" in table
        assert "spill.spill" in table and "tear" not in table and "shrink" not in table
        assert table == memory(traced)

    def test_simulate_and_trace_print_the_same_run_sections(self, tmp_path, capsys):
        """Both commands print the fault plan, the ``faults`` report and the
        memory section through one function from the machine's registry, so
        a run with crashes, elastic recoveries, stragglers and the shrink
        rung prints the same sections with tracing on or off."""
        g7 = str(tmp_path / "g7.txt")
        assert main(["generate", "rmat", "--scale", "7", "--degree", "8",
                     "--seed", "1", "-o", g7]) == 0
        run = [g7, "--p", "4", "--memory-words", "3000", "--elastic", "on",
               "--faults", "seed:1,crash:0.05,straggle:0.1,limit:3"]
        capsys.readouterr()
        assert main(["simulate", *run]) == 0
        simulated = capsys.readouterr().out
        assert main(["trace", *run, "-o", str(tmp_path / "trace.json")]) == 0
        traced = capsys.readouterr().out

        def sections(out):
            return out.split("\nfaults            : ", 1)[1].split("\n\nreconciliation")[0].rstrip()

        text = sections(simulated)
        assert text.startswith("seed:1,crash:0.05,straggle:0.1,limit:3\n")
        assert "\nrun events (faults.*):\n" in text and "shrink_batch" in text
        assert "\nmemory            : peak " in text and "spill.spill" in text
        assert text == sections(traced)

    def test_info(self, graph_file, capsys):
        path, n = graph_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert f"vertices  : {n}" in out


class TestTrace:
    def test_trace_writes_valid_chrome_trace(self, graph_file, tmp_path, capsys):
        import json

        from repro import obs

        path, _ = graph_file
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    path,
                    "--p",
                    "4",
                    "--batch",
                    "10",
                    "-o",
                    str(out),
                    "--jsonl",
                    str(jsonl),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "reconciliation" in printed
        assert "mfbc" in printed and "mfbf" in printed and "mfbr" in printed
        trace = json.loads(out.read_text())
        obs.validate_chrome_trace(trace)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"mfbc", "batch", "spgemm"} <= names
        assert jsonl.exists()
        # tracing must be fully torn down after the command
        assert not obs.enabled()


class TestServe:
    def test_shutdown_prints_the_cache_and_overload_tables(
        self, graph_file, capsys, monkeypatch
    ):
        import threading

        import repro.serve
        from repro.serve import AdmissionError

        from conftest import park

        path, _ = graph_file
        real = repro.serve.serve_http

        def drive(service):
            # a miss, a hit, one query parked in the dispatcher, one
            # filling the queue (it holds one query) and a shed, then the
            # shutdown an interrupt or SIGTERM would ask for
            service.result(service.submit("bc_source", source=0), timeout=60.0)
            service.result(service.submit("bc_source", source=0), timeout=60.0)
            with service._exec_lock:
                park(service, source=1)
                service.submit("bc_source", source=3)
                with pytest.raises(AdmissionError):
                    service.submit("bc_source", source=2)

        def serve_http(service, *args, **kwargs):
            server = real(service, *args, **kwargs)
            threading.Thread(
                target=lambda: (drive(service), server.shutdown()), daemon=True
            ).start()
            return server

        monkeypatch.setattr(repro.serve, "serve_http", serve_http)
        assert main(["serve", path, "--p", "2", "--port", "0", "--max-queued", "1"]) == 0
        out = capsys.readouterr().out
        assert "served 4 queries" in out and "1 shed" in out
        cache = out.split("\ncache events (serve.cache.*):\n")[1].splitlines()
        assert cache[2].split() == ["bc_source", "1", "4", "0", "20.0%"]
        overload = out.split("\noverload events (serve.overload.*):\n")[1].splitlines()
        assert overload[2].split() == ["shed", "overloaded", "1"]


class TestVerify:
    def test_verify_passes(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["verify", path, "--samples", "5", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert out.count("PASS") >= 3

    def test_verify_weighted_skips_combblas(self, tmp_path, capsys):
        from repro.graphs import uniform_random_graph_nm, with_random_weights

        g = with_random_weights(
            uniform_random_graph_nm(30, 4.0, seed=7), 1, 5, seed=7
        )
        p = tmp_path / "gw.txt"
        write_edgelist(g, p)
        assert main(["verify", str(p), "--samples", "4", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "CombBLAS" not in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro_help_exits_zero(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "usage" in done.stdout
