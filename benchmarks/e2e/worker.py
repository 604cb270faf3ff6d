"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts this file in a fresh subprocess per workload (hermetic
environment, own peak RSS).  Three modes:

* untraced (``--trace 0``): nothing is wrapped; gives the end-to-end metrics;
* traced (``--trace 1``): a few untraced units first (the overhead base),
  then the boundaries in ``tracing.py`` are wrapped for the rest of the run;
  gives the per-layer metrics, and every patched attribute is restored;
* ``--setup-only``: stops after the warm-up and reports ``setup_s`` alone, so
  ``run.py`` can take the median of several cold set-ups.

A *unit of work* is one ``mfbc`` call (batch workloads) or one lockstep wave
of 16 queries (serve workloads).  Oracle checks run after the timed region.

Host times are reported at *reference speed*: the shared sandbox runs 20-30 %
faster or slower for minutes at a time, so a fixed calibration slice runs
between units and every time is divided by how much slower than its reference
the slice ran around that unit (:class:`Calibrator`).  Raw times are kept
beside the normalised ones in the output.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # process start, before the heavy imports

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"benchmark needs the program under test at {SRC}/repro")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import metrics as M  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import UPDATE_EVERY, WAVE, WORKLOADS, Batch  # noqa: E402

_perf = time.perf_counter

#: units every timed region runs at least, however slow the machine
MIN_UNITS = 3
#: share of ``--seconds`` a traced run spends untraced (the overhead base)
UNTRACED_SHARE = 1 / 3
#: fixed units per region in ``--quick`` mode, so that counts repeat exactly
QUICK_UNITS = 2
#: serve streams are generated this many waves long (the run is time-bound)
MAX_WAVES = 256
#: first and second half of the calibration slices differing by more than this
#: flag the run noisy
NOISY_REL = 0.15
_TERMINAL = ("done", "failed", "expired", "cancelled")
#: serve queries with an oracle: Brandes for bc_source, BFS levels for the
#: hop / unit-weight distances
_VERIFIABLE = ("bc_source", "bfs", "sssp")
_REL_TOL = 1e-9

#: span name -> the per-layer metric counting its calls
_CALL_METRICS = {
    "sparse.spgemm": "sparse.spgemm_calls",
    "sparse.spmat_build": "sparse.spmat_builds",
    "sparse.elementwise": "sparse.elementwise_calls",
    "dist.redistribute": "dist.redistribute_calls",
    "machine.collectives": "machine.collective_calls",
    "machine.ledger": "machine.ledger_calls",
}


class Budget:
    """When a timed region stops: after ``seconds``, or fixed units if quick."""

    def __init__(self, seconds: float, quick: bool) -> None:
        self.seconds, self.quick = seconds, quick

    def more(self, done: int, started: float) -> bool:
        if self.quick:
            return done < QUICK_UNITS
        return done < MIN_UNITS or _perf() - started < self.seconds

    def share(self, fraction: float) -> "Budget":
        return Budget(self.seconds * fraction, self.quick)


class Calibrator:
    """How much slower than the reference machine this one is right now.

    A slice is a fixed mix of numpy kernels and interpreter work that takes
    ``SLICE_REF_S`` on the reference machine (this sandbox in its fast phase).
    Slices run in the gaps between units of work, for ``DUTY`` of the time the
    unit took, and a unit's slowdown is the mean of the gaps either side.
    """

    SLICE_REF_S = 0.020
    DUTY = 0.10

    def __init__(self) -> None:
        self._x = np.random.default_rng(0).random(100_000)
        self.slowdowns: list[float] = []  # one per gap

    def _slice(self) -> float:
        t0 = _perf()
        for _ in range(18):
            np.sort(self._x)
            float((self._x * self._x).sum())
        acc: dict[int, int] = {}
        for i in range(60_000):
            acc[i & 255] = acc.get(i & 255, 0) + i
        return _perf() - t0

    def gap(self, covered_s: float, min_slices: int = 2) -> float:
        """Calibrate after ``covered_s`` seconds of work; the gap's slowdown."""
        times = [self._slice() for _ in range(min_slices)]
        while sum(times) < self.DUTY * covered_s:
            times.append(self._slice())
        self.slowdowns.append(statistics.fmean(times) / self.SLICE_REF_S)
        return self.slowdowns[-1]

    def timed(self, fn):
        """``(raw seconds, slowdown around the call, fn())``."""
        before = self.slowdowns[-1]
        t0 = _perf()
        result = fn()
        wall = _perf() - t0
        return wall, (before + self.gap(wall)) / 2, result

    def noise(self) -> dict:
        """The noise sentinel: reference slice seconds, early vs late."""
        half = max(len(self.slowdowns) // 2, 1)
        early = statistics.fmean(self.slowdowns[:half]) * self.SLICE_REF_S
        late = statistics.fmean(self.slowdowns[-half:]) * self.SLICE_REF_S
        return {
            "calib_s": [early, late],
            "noisy": abs(late - early) / min(early, late) > NOISY_REL,
        }


def summary(samples: list[float], raw: list[float]) -> dict:
    """Median, quartiles and sample count of a timing, raw median beside it."""
    out = {
        "value": statistics.median(samples),
        "n": len(samples),
        "raw": statistics.median(raw),
    }
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def ledger_view(machine) -> dict[str, float]:
    """The machine's public ledger totals under their per-layer metric names."""
    snap = machine.ledger.snapshot()
    view = {
        "machine.modeled_s": snap["time"],
        "machine.modeled_comm_s": snap["comm_time"],
        "machine.crit_words": snap["words"],
        "machine.crit_msgs": snap["msgs"],
        "machine.total_words": snap["total_words"],
        "machine.total_msgs": snap["total_msgs"],
        "machine.compute_ops": snap["compute_ops"],
        "machine.words.other": 0.0,
    }
    for category in M.TRAFFIC_CATEGORIES:
        view[f"machine.words.{category}"] = 0.0
    for category, words in machine.ledger.traffic_breakdown().items():
        key = category if category in M.TRAFFIC_CATEGORIES else "other"
        view[f"machine.words.{key}"] += words
    return view


def flatten(tracer: Tracer) -> dict[str, float]:
    """Tracer totals so far as ``{per-layer metric name: number}`` (raw times)."""
    self_s, calls, counts = tracer.totals()
    flat = {f"{name}_s": seconds for name, seconds in self_s.items()}
    flat["trace.self_s"] = sum(self_s.values())
    for name, metric in _CALL_METRICS.items():
        flat[metric] = calls.get(name, 0)
    flat.update(counts)
    return flat


def at_reference(flat: dict[str, float], slowdown: float) -> dict[str, float]:
    """``flat`` with its times (the ``*_s`` keys) at reference speed."""
    return {k: v / slowdown if k.endswith("_s") else v for k, v in flat.items()}


def per_layer(units: list[dict[str, float]], walls: list[float], extra: dict) -> dict:
    """Per-layer metrics: the median over traced units, plus derived ratios."""
    out = {}
    for name in M.PER_LAYER:
        samples = [unit.get(name, 0.0) for unit in units]
        out[name] = {"value": statistics.median(samples), "n": len(samples)}
    wall = statistics.median(walls)
    kernel_s = out["sparse.spgemm_s"]["value"]
    derived = {
        "sparse.kernel_mops": (
            out["sparse.spgemm_ops"]["value"] / kernel_s / 1e6 if kernel_s else 0.0
        ),
        "machine.sim_tax": (wall - kernel_s) / kernel_s if kernel_s else 0.0,
        "trace.accounted_frac": statistics.median(u["trace.self_s"] for u in units)
        / wall,
        **extra,
    }
    for name, value in derived.items():
        out[name] = {"value": value, "n": len(units)}
    return out


def setup_done(cal: Calibrator) -> dict:
    """Close the set-up phase: its wall, raw and at reference speed."""
    raw = _perf() - _T_START
    # set-up is one sample per process, so calibrate it longer than a unit
    return {"setup_s": raw / cal.gap(raw, min_slices=6), "setup_raw_s": raw}


# -- batch workloads -------------------------------------------------------------


def run_batch(w: Batch, args, budget: Budget) -> dict:
    from repro.baselines import brandes_bc
    from repro.core import mfbc

    cal = Calibrator()
    rng = np.random.default_rng(args.seed)
    t0 = _perf()
    graph = w.graph(rng, args.quick)
    generate_s = _perf() - t0
    shrink = 8 if args.quick else 1
    batch = max(w.batch // shrink, 2)
    sources = rng.choice(graph.n, max(w.sources // shrink, 2), replace=False)

    def rep(call=mfbc):
        engine, machine = w.engine()  # fresh ledger: modeled metrics are per rep
        wall, slowdown, result = cal.timed(
            lambda: call(graph, batch, engine=engine, sources=sources)
        )
        return wall, slowdown, result, engine, machine

    mfbc(graph, batch, engine=w.engine()[0], sources=sources)  # warm-up
    out = setup_done(cal)
    if args.setup_only:
        return out
    generate_s /= cal.slowdowns[0]

    attempted = failed = 0
    first = None  # (result, engine, ledger view, peak words) of the first good rep

    def timed_reps(region: Budget, call=mfbc, each=lambda slowdown: None):
        """Reps until ``region`` ends -> (walls at reference speed, raw walls).
        A rep fails if it raises or differs bitwise (scores, ledger) from the
        first one."""
        nonlocal attempted, failed, first
        walls, raws, started, before = [], [], _perf(), attempted
        while region.more(attempted - before, started):
            attempted += 1
            try:
                raw, slowdown, result, engine, machine = rep(call)
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            each(slowdown)
            walls.append(raw / slowdown)
            raws.append(raw)
            ledger = ledger_view(machine) if machine else {}
            peak = machine.memory_peak() if machine else 0
            if first is None:
                first = (result, engine, ledger, peak)
            elif not (
                np.array_equal(result.scores, first[0].scores)
                and ledger == first[2]
                and peak == first[3]
            ):
                failed += 1
        return walls, raws

    if not args.trace:
        walls, raws = timed_reps(budget)
    else:
        base_walls, _ = timed_reps(budget.share(UNTRACED_SHARE))
        tracer = Tracer()
        units: list[dict[str, float]] = []
        seen: dict[str, float] = {}  # tracer totals when the previous unit ended

        def end_unit(slowdown):
            nonlocal seen
            now = flatten(tracer)
            unit = {k: v - seen.get(k, 0) for k, v in now.items()}
            units.append(at_reference(unit, slowdown))
            seen = now
            tracer.unit += 1

        tracer.install()
        try:
            walls, raws = timed_reps(
                budget.share(1 - UNTRACED_SHARE),
                call=tracer.wrap(mfbc, "core.driver"),  # the benchmark's own call
                each=end_unit,
            )
        finally:
            tracer.uninstall()
        out["restored"] = tracer.restored()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- correctness: outside every timed region
    t0 = _perf()
    reference = brandes_bc(graph, sources)
    oracle_s = (_perf() - t0) / cal.slowdowns[-1]
    result, engine, ledger, peak_words = first
    scale = max(float(np.abs(reference).max()), np.finfo(float).tiny)
    if float(np.abs(result.scores - reference).max()) > _REL_TOL * scale:
        failed = attempted  # every rep returned these same wrong scores

    stats = result.stats.summary()
    plans = getattr(engine, "plan_log", [])
    counts = {
        "core.batches": stats["batches"],
        "core.mfbf_iterations": sum(b.mfbf_iterations for b in result.stats.batches),
        "core.mfbr_iterations": sum(b.mfbr_iterations for b in result.stats.batches),
        "core.frontier_nnz": stats["frontier_nnz"],
        "core.product_nnz": stats["product_nnz"],
        "sparse.spgemm_ops": stats["ops"],
        "spgemm.products": len(plans),
        **{
            f"spgemm.plans_{kind}": sum(p.kind == kind for p in plans)
            for kind in ("1d", "2d", "3d")
        },
        **ledger,
    }
    if ledger:
        counts["machine.peak_rank_words"] = peak_words
        counts["machine.load_imbalance"] = engine.machine.ledger.load_imbalance()
    out.update(
        ops_attempted=attempted,
        ops_failed=failed,
        scores_sha=hashlib.sha256(result.scores.tobytes()).hexdigest(),
        counts=counts,
        graph={"n": graph.n, "nnz": graph.nnz_adjacency, "sources": len(sources)},
        oracle_s=oracle_s,
        **cal.noise(),
    )
    if args.trace:
        # the program's own counts fill in what no wrapper counts
        units = [{**counts, "graphs.generate_s": generate_s, **u} for u in units]
        out["per_layer"] = per_layer(
            units,
            walls,
            {
                "trace.overhead_frac": statistics.median(walls)
                / statistics.median(base_walls)
                - 1,
                "verify.oracle_s": oracle_s,
            },
        )
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file)
        return out
    wall = summary(walls, raws)
    traversals = len(sources) * graph.nnz_adjacency / 1e6
    e2e = {
        "wall_s": wall,
        "mteps": {
            "value": traversals / wall["value"], "n": wall["n"],
            "raw": traversals / wall["raw"],
        },
        "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
    }
    if ledger:
        for name in ("modeled_s", "modeled_comm_s", "crit_words", "crit_msgs",
                     "peak_rank_words"):
            e2e[name] = {"value": counts[f"machine.{name}"], "n": wall["n"]}
    out["end_to_end"] = e2e
    return out


# -- serve workloads -------------------------------------------------------------


def run_wave(service, specs: list[dict]) -> list[dict]:
    """Submit one wave, then poll its ids every <= 1 ms until all are terminal.

    Each query is stamped at the first terminal state the client sees.
    """
    from repro.serve.overload import AdmissionError

    records, pending = [], {}
    for spec in specs:
        rec = {"spec": spec, "submitted": _perf()}
        try:
            pending[service.submit(**spec)] = rec
        except AdmissionError:
            rec.update(done=_perf(), status={"state": "shed"})
        records.append(rec)
    while pending:
        for qid in list(pending):
            status = service.poll(qid)
            if status["state"] in _TERMINAL:
                pending.pop(qid).update(done=_perf(), status=status)
        if pending:
            time.sleep(0.001)
    return records


def run_serve(w, args, budget: Budget) -> dict:
    from repro.baselines.brandes import brandes_single_source
    from repro.baselines.sssp import bfs_sssp
    from repro.graphs import rmat_graph
    from repro.serve import BCService
    from repro.serve.loadgen import generate_queries

    cal = Calibrator()
    rng = np.random.default_rng(args.seed)
    scale = 7 if args.quick else w.scale
    update_every = 1 if args.quick else UPDATE_EVERY
    t0 = _perf()
    graphs = [rmat_graph(scale, 8, seed=rng) for _ in range(2 if w.mixed else 1)]
    generate_s = _perf() - t0
    n = graphs[0].n
    if w.mixed:
        order = rng.choice(n, 4, replace=False)
        specs = generate_queries(MAX_WAVES * WAVE, n, seed=rng)
    else:
        # distinct sources, warm-up ones excluded: the cache never hits
        order = rng.permutation(n)
        specs = [{"algorithm": "bc_source", "source": int(s)} for s in order[4:]]
    warm = [{"algorithm": "bc_source", "source": int(s)} for s in order[:4]]
    waves = [specs[i : i + WAVE] for i in range(0, len(specs) - WAVE + 1, WAVE)]
    sample_rng = np.random.default_rng([args.seed, 1])  # which query to verify

    service = BCService(graphs[0], p=4)
    try:
        run_wave(service, warm)
        out = setup_done(cal)
        if args.setup_only:
            return out
        generate_s /= cal.slowdowns[0]

        records: list[dict] = []
        cursor = 0  # next wave of the stream

        def wave():
            if w.mixed and cursor and cursor % update_every == 0:
                service.update_graph(graphs[(cursor // update_every) % 2])
            return run_wave(service, waves[cursor])

        def stream(region: Budget, tracer=None) -> tuple[list[float], list[float]]:
            """Waves until ``region`` ends -> (wave walls at reference speed,
            raw wave walls)."""
            nonlocal cursor
            walls, raws, started = [], [], _perf()
            while cursor < len(waves) and region.more(len(walls), started):
                raw, slowdown, recs = cal.timed(wave)
                walls.append(raw / slowdown)
                raws.append(raw)
                keep = [
                    i for i, r in enumerate(recs)
                    if r["spec"]["algorithm"] in _VERIFIABLE
                    and r["status"]["state"] == "done"
                ]
                keep = int(sample_rng.choice(keep)) if keep else -1
                for i, rec in enumerate(recs):
                    rec["slowdown"] = slowdown
                    if i != keep:  # hold one answer per wave for the oracle
                        rec["status"].pop("result", None)
                records.extend(recs)
                cursor += 1
                if tracer is not None:
                    tracer.unit = cursor
            return walls, raws

        if not args.trace:
            before = service.stats()
            walls, raws = stream(budget)
        else:
            base_walls, _ = stream(budget.share(UNTRACED_SHARE))
            del records[:]  # per-layer numbers describe the traced waves only
            tracer = Tracer()
            before = service.stats()
            ledger_before = ledger_view(service.machine)
            gaps_before = len(cal.slowdowns)
            tracer.install()
            try:
                walls, raws = stream(budget.share(1 - UNTRACED_SHARE), tracer)
            finally:
                tracer.uninstall()
            out["restored"] = tracer.restored()
            ledger_after = ledger_view(service.machine)
            traced_slowdown = statistics.fmean(cal.slowdowns[gaps_before - 1 :])
        after = service.stats()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak_words = service.machine.memory_peak()
        imbalance = service.machine.ledger.load_imbalance()
    finally:
        service.close()

    # -- correctness: outside every timed region
    t0 = _perf()
    sampled, digest = 0, hashlib.sha256()
    for rec in records:
        status = rec["status"]
        rec["ok"] = status["state"] == "done" and not status.get("degraded")
        row = status.get("result")
        if row is None or not rec["ok"]:
            continue
        sampled += 1
        digest.update(np.ascontiguousarray(row).tobytes())
        graph = graphs[status["graph_version"] % 2] if w.mixed else graphs[0]
        source = rec["spec"]["source"]
        if rec["spec"]["algorithm"] == "bc_source":
            reference = brandes_single_source(graph, source)
            scale_ = max(float(reference.max()), np.finfo(float).tiny)
            rec["ok"] = bool(np.abs(row - reference).max() <= _REL_TOL * scale_)
        else:
            rec["ok"] = bool(np.array_equal(row, bfs_sssp(graph.unweighted(), source)[0]))
    oracle_s = (_perf() - t0) / cal.slowdowns[-1]

    ok = [r for r in records if r["ok"]]
    live = [r for r in ok if r["status"]["batch_size"] > 0]
    sweeps = after["batches"] - before["batches"]
    swept = after["swept_sources"] - before["swept_sources"]
    nwaves = len(walls)
    counts = {
        "serve.sweeps": sweeps / nwaves,
        "serve.coalescing_factor": swept / sweeps if sweeps else 0.0,
        "serve.cache_hit_rate": sum(r["status"].get("cache_hit", False) for r in records)
        / len(records),
        **{
            f"serve.{metric}_ms_p50": (
                statistics.median(r["status"][field] / r["slowdown"] for r in live) * 1e3
                if live else 0.0
            )
            for metric, field in (
                ("queue_wait", "queue_seconds"), ("compute", "compute_seconds")
            )
        },
        **{
            f"serve.{key}": (after[key] - before[key]) / nwaves
            for key in ("shed", "degraded", "retries")
        },
    }
    out.update(
        ops_attempted=len(records),
        ops_failed=len(records) - len(ok),
        scores_sha=digest.hexdigest(),
        counts=counts,
        graph={"n": n, "nnz": graphs[0].nnz_adjacency, "waves": nwaves,
               "verified": sampled},
        oracle_s=oracle_s,
        **cal.noise(),
    )
    if args.trace:
        unit = {
            **at_reference(
                {k: v / nwaves for k, v in flatten(tracer).items()}, traced_slowdown
            ),
            **{k: (ledger_after[k] - ledger_before[k]) / nwaves for k in ledger_after},
            **counts,
            "machine.peak_rank_words": peak_words,
            "machine.load_imbalance": imbalance,
            "graphs.generate_s": generate_s,
        }
        wave_wall = statistics.fmean(walls)
        out["per_layer"] = per_layer(
            [unit],
            [wave_wall],
            {
                "trace.overhead_frac": wave_wall / statistics.fmean(base_walls) - 1,
                "verify.oracle_s": oracle_s,
            },
        )
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file)
        return out
    latencies = [(r["done"] - r["submitted"]) / r["slowdown"] * 1e3 for r in ok]
    raw_latencies = [(r["done"] - r["submitted"]) * 1e3 for r in ok]
    out["end_to_end"] = {
        # per unit of work: the stream is time-bound, so its whole wall is not
        # comparable; the mean (not the median) wave keeps update_graph in
        "wall_s": {
            **summary(walls, raws),
            "value": statistics.fmean(walls), "raw": statistics.fmean(raws),
        },
        "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
        "query_p50_ms": {
            "value": statistics.median(latencies), "n": len(latencies),
            "raw": statistics.median(raw_latencies),
        },
        "query_p95_ms": {
            "value": float(np.percentile(latencies, 95)), "n": len(latencies),
            "raw": float(np.percentile(raw_latencies, 95)),
        },
        "goodput_qps": {
            "value": len(ok) / sum(walls), "n": len(ok), "raw": len(ok) / sum(raws),
        },
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="where a traced run writes its Chrome trace")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = run_batch if isinstance(workload, Batch) else run_serve
    out = run(workload, args, Budget(args.seconds, args.quick))
    out.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
