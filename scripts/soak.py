#!/usr/bin/env python
"""Chaos-soak harness: overload × armed faults against the serving layer.

Drives the seeded loadgen at a multiple of the service's *measured*
capacity (calibrated closed-loop on a clean warm-up service), open-loop so
arrivals do not self-limit, with a fault plan armed and elastic recovery
on — then asserts the liveness invariants the overload design promises:

1. **no hang** — the soak finishes inside its wall budget and every
   submission reached a terminal outcome;
2. **bounded queue** — the coalescer's queue depth (what the admission
   snapshot reads) never exceeds the configured admission bound (sampled
   concurrently throughout the run);
3. **zero non-shed failures** — every query is answered, degraded,
   expired-by-its-own-deadline, or shed with a structured 503; nothing
   fails for any other reason;
4. **goodput floor** — completed queries per second stay at or above
   ``--goodput-floor`` × calibrated capacity despite the overload;
5. **bounded p99** — admitted queries' p99 wall latency stays under
   ``--p99-budget`` seconds (sheds return immediately and are excluded);
6. **truthful health** — every sampled ``healthz`` state is consistent
   with the admission snapshot at that instant, and the service ends the
   run admitting again (``ok``/``degraded``);
7. **bit-exact answers after the storm** — once pressure subsides,
   admitted non-degraded exact queries return bit-identical rows to a
   solo fault-free run (run under ``REPRO_CHECK=cheap`` to also arm the
   differential-replay validator underneath);
8. **corruption caught** — when the plan arms ``corrupt`` with
   ``checksum:1``, at least one in-flight payload of a real product was
   corrupted, detected by the collective's CRC guard and retried (the
   hard-failure count above stays zero).  The CI spec scripts its two
   corruptions (``corrupt@STEP``): a sweep issues dozens of collectives,
   so a per-delivery *rate* high enough to fire reliably inside a 60 s
   run also corrupts most attempts of the first batches until ``limit``
   is spent — three in a row exhaust the service's retry ladder.
9. **scripted faults fired** — every one-shot the spec scripts
   (``crash@STEP``, ``corrupt@STEP``, ``tear@STEP``) landed.  A step past
   the run's last collective would leave the soak quietly fault-free, so a
   change to how many collectives a sweep issues fails here, not silently.
10. **memory pressure exercised** — under a per-rank budget, the storm
    relieved (``faults.evicted{kind="spill"}``) or spilled
    (``memory.spill.events``) at least once: a budget above the service's
    peak defends nothing;
11. **sweep width remembered** — the widest sweep width known to fit is
    recorded beside each pinned adjacency, so the shrink rung
    (``faults.degraded{kind="mem", rung="shrink_batch"}``) fires at most
    ``⌈log₂ W⌉`` times per pin, ``W = max(max_batch,
    default_batch_size(graph))``; a pin is the first one plus one per
    elastic recovery and per graph update.  A driver that sweeps wide
    again after every shrink fails here.

Run the CI smoke configuration::

    python scripts/soak.py --duration 60 --factor 4 \
        --faults "seed:3,crash@25:1,corrupt@60,corrupt@400,tear@1,checksum:1,limit:6" \
        --elastic on --check cheap --memory-words 20000

``--memory-words`` arms memory pressure under the storm: the soak service
runs inside a per-rank budget (``tear@1`` tears the first spill-segment
write, and invariant 9 fails a run that never spilled to tear), so
admission control, relief eviction to the spill store and every rung of
the recovery ladder (shrink, elastic, retry) defend the same run — still
with zero non-shed failures and bit-identical post-storm answers.  The CI
budget sits below the service's unpressured peak (26 326 words/rank on
this graph), which invariant 10 checks.

Exit code 0 when every invariant held.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import add_run_flags, build_machine, print_reports, print_run_reports  # noqa: E402
from repro.core.mfbc import default_batch_size  # noqa: E402
from repro.graphs import rmat_graph  # noqa: E402
from repro.machine import Machine  # noqa: E402
from repro.serve import BCService, OverloadConfig  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    DEFAULT_MIX,
    DirectClient,
    generate_queries,
    run_load,
)
from repro.serve.overload import (  # noqa: E402
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    BROWNOUT_HIGH,
    BROWNOUT_LOW,
    SHED_HIGH,
    SHED_LOW,
)

#: soak mix adds whole-graph exact ``bc`` so brownout has something to
#: downgrade (the default mix is all per-source / already-approximate)
SOAK_MIX: dict[str, float] = {**DEFAULT_MIX, "bc": 0.05}


def calibrate(graph, args) -> float:
    """Closed-loop queries/second of a clean service (no faults, no bounds)."""
    service = BCService(
        graph,
        machine=Machine(args.p, check=args.check),
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        cache_capacity=args.cache_capacity,
    )
    try:
        specs = generate_queries(args.calibrate_queries, graph.n, seed=args.seed + 1)
        report = run_load(
            DirectClient(service), specs, concurrency=args.concurrency
        )
    finally:
        service.close()
    if report.failed:
        raise SystemExit(f"calibration run failed {report.failed} queries")
    return report.throughput_qps


def soak(graph, capacity_qps: float, args) -> tuple[dict, int]:
    """One soak leg at ``args.factor`` × capacity; returns (record, rc)."""
    cfg = OverloadConfig(
        max_queued=args.max_queued,
        max_queued_seconds=args.max_queued_seconds,
    )
    service = BCService(
        graph,
        machine=build_machine(args),
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        cache_capacity=args.cache_capacity,
        overload=cfg,
    )
    offered = args.factor * capacity_qps
    n_queries = max(int(offered * args.duration), args.concurrency)
    specs = generate_queries(n_queries, graph.n, seed=args.seed, mix=SOAK_MIX)
    # open-loop needs enough client threads that arrivals are not
    # self-limited below the admission bound: the whole point is to fill
    # the queue past its watermarks and watch the service defend itself
    drive_concurrency = max(args.concurrency, 2 * args.max_queued + 32)

    # concurrent sampler: queue bound + health truthfulness, the whole run
    samples: list[dict] = []
    violations: list[str] = []
    stop = threading.Event()

    def sample_loop() -> None:
        while not stop.wait(args.sample_interval):
            health = service.health()
            snap = service.admission.snapshot()
            samples.append({"health": health["state"], **snap})
            if snap["queued_count"] > args.max_queued:
                violations.append(
                    f"queue depth {snap['queued_count']} exceeded the "
                    f"{args.max_queued} admission bound"
                )
            if snap["shedding"] and health["state"] not in (
                "overloaded",
                "draining",
            ):
                violations.append(
                    f"shedding active but healthz said {health['state']!r}"
                )

    sampler = threading.Thread(target=sample_loop, daemon=True)
    sampler.start()
    hang_budget = args.duration * 4 + 120
    result: dict = {}

    def drive() -> None:
        result["report"] = run_load(
            DirectClient(service),
            specs,
            concurrency=drive_concurrency,
            offered_qps=offered,
        )

    driver = threading.Thread(target=drive, daemon=True)
    t0 = time.monotonic()
    driver.start()
    driver.join(hang_budget)
    wall = time.monotonic() - t0
    stop.set()
    sampler.join(5.0)

    rc = 0
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal rc
        checks.append((name, ok, detail))
        if not ok:
            rc = 1

    if driver.is_alive():
        check("no-hang", False, f"loadgen still running after {hang_budget:.0f}s")
        service.close(drain_timeout=5.0)
        record = {"factor": args.factor, "hung": True}
        _print_checks(checks)
        return record, 1
    report = result["report"]
    check("no-hang", True, f"finished in {wall:.1f}s (budget {hang_budget:.0f}s)")
    check(
        "terminal-outcomes",
        report.completed + report.shed + report.expired + report.failed
        == report.queries,
        f"{report.queries} submissions all reached terminal outcomes",
    )
    check(
        "bounded-queue",
        not violations,
        violations[0] if violations else (
            f"max sampled depth "
            f"{max((s['queued_count'] for s in samples), default=0)} "
            f"<= bound {args.max_queued} over {len(samples)} samples"
        ),
    )
    check(
        "zero-nonshed-failures",
        report.failed == 0,
        f"{report.failed} hard failures "
        f"({report.shed} shed, {report.degraded} degraded, "
        f"{report.expired} expired are allowed)",
    )
    floor = args.goodput_floor * capacity_qps
    check(
        "goodput-floor",
        report.goodput_qps >= floor,
        f"goodput {report.goodput_qps:.1f} q/s >= floor {floor:.1f} q/s "
        f"({args.goodput_floor:.0%} of {capacity_qps:.1f} q/s capacity)",
    )
    p99 = report.percentile(99)
    check(
        "bounded-p99",
        p99 <= args.p99_budget,
        f"admitted p99 {p99 * 1e3:.0f} ms <= budget {args.p99_budget * 1e3:.0f} ms",
    )

    # post-storm: pressure subsides, service must recover to a live state
    # and answer exact queries bit-identically to a solo fault-free run
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if service.health()["state"] in ("ok", "degraded") and not (
            service.admission.brownout_active
        ):
            break
        time.sleep(0.1)
    health = service.health()
    check(
        "recovers-after-storm",
        health["state"] in ("ok", "degraded"),
        f"post-storm healthz: {health['state']}",
    )
    exact_ok = True
    detail = ""
    rng = np.random.default_rng(args.seed)
    probe_sources = rng.choice(
        graph.n, size=min(args.verify_queries, graph.n), replace=False
    )
    reference = _reference_rows(graph, probe_sources, args)
    for i, src in enumerate(probe_sources):
        try:
            status = service.ask("bc_source", source=int(src), timeout=120.0)
        except Exception as exc:
            exact_ok, detail = False, f"verification query failed: {exc}"
            break
        if status["state"] != "done":
            exact_ok, detail = False, f"verification query {status['state']}"
            break
        if status["degraded"]:
            exact_ok, detail = False, "verification query answered degraded"
            break
        if not np.array_equal(status["result"], reference[i]):
            exact_ok, detail = False, f"source {src} diverged from solo run"
            break
    check(
        "bit-identical-exact",
        exact_ok,
        detail or f"{len(probe_sources)} admitted exact queries match solo runs",
    )

    service.close(drain_timeout=10.0)
    stats = service.stats()
    machine = service.machine
    metrics = machine.metrics
    plan = machine.faults
    if (
        plan is not None
        and plan.checksum
        and (plan.corrupt or any(sc.kind == "corrupt" for sc in plan.script))
    ):
        # the products' collectives run through the guard, so armed
        # corruption that never trips it means the path went dead again
        caught = int(metrics.total("faults.detected", kind="corrupt"))
        check(
            "corruption-caught",
            caught > 0,
            f"{caught} corrupted payloads caught by the checksum guard",
        )
    if machine.memory_words is not None:
        # a budget the service never reaches defends nothing: the storm must
        # relieve or spill at least once
        relieved = int(metrics.total("faults.evicted", kind="spill"))
        spilled = int(metrics.total("memory.spill.events", op="spill"))
        check(
            "memory-pressure-exercised",
            relieved + spilled > 0,
            f"{relieved} reliefs, {spilled} blocks spilled under the "
            f"{machine.memory_words}-word budget "
            f"(peak {machine.memory_peak():.0f} words/rank)",
        )
        shrinks = int(
            metrics.total("faults.degraded", kind="mem", rung="shrink_batch")
        )
        pins = 1 + stats["recoveries"] + int(metrics.total("serve.graph_updates"))
        widest = max(args.max_batch, default_batch_size(graph))
        per_pin = math.ceil(math.log2(widest))
        check(
            "sweep-width-remembered",
            shrinks <= per_pin * pins,
            f"{shrinks} shrink_batch rungs <= {per_pin * pins} "
            f"(ceil(log2 {widest})={per_pin} per pin x {pins} pins)",
        )
    if plan is not None and plan.script:
        unfired = plan.unfired()
        check(
            "scripted-faults-fired",
            not unfired,
            f"never fired: {unfired}" if unfired
            else f"all {len(plan.script)} scripted faults fired",
        )
    _print_checks(checks)
    print(f"  {report.summary()}")
    print(
        f"  service: {stats['recoveries']} elastic recoveries, "
        f"{stats['retries']} retries, breaker opened "
        f"{metrics.get_count('serve.overload.breaker', state='open'):.0f}x, "
        f"{stats['dispatcher_restarts']} dispatcher restarts, "
        f"peak queue {stats['admission']['peak_queued']}"
    )
    print_reports(("cache", "overload"), metrics)
    print_run_reports(machine)
    record = {
        "factor": args.factor,
        "offered_qps": offered,
        "goodput_qps": report.goodput_qps,
        "p99_ms": p99 * 1e3,
        "shed": report.shed,
        "degraded": report.degraded,
        "expired": report.expired,
        "failed": report.failed,
        "peak_queued": stats["admission"]["peak_queued"],
        "recoveries": stats["recoveries"],
        "checks": {name: ok for name, ok, _ in checks},
    }
    return record, rc


def _reference_rows(graph, sources, args):
    from repro.core.mfbc import mfbc_per_source
    from repro.dist.engine import DistributedEngine

    engine = DistributedEngine(Machine(args.p, check=args.check))
    return mfbc_per_source(
        graph, np.asarray(sources, dtype=np.int64), engine=engine
    )


def _print_checks(checks) -> None:
    for name, ok, detail in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="soak.py", description="chaos soak for repro.serve overload"
    )
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="offered load as a multiple of calibrated capacity",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=int, default=7, help="log2 vertices (R-MAT)")
    parser.add_argument("--degree", type=int, default=8)
    parser.add_argument("--p", type=int, default=4)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--batch-window", type=float, default=0.005)
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=8,
        help="score-cache entries; small by default so the soak load "
        "actually reaches the machine instead of the cache",
    )
    parser.add_argument("--max-queued", type=int, default=64)
    parser.add_argument("--max-queued-seconds", type=float, default=None)
    # --memory-words budgets the soak service only: it arms the spill/shrink
    # ladder under the storm while calibration stays clean
    add_run_flags(parser, "faults", "memory_words", "spill_dir", "elastic", "check")
    parser.add_argument("--calibrate-queries", type=int, default=150)
    parser.add_argument("--goodput-floor", type=float, default=0.5)
    parser.add_argument("--p99-budget", type=float, default=30.0)
    parser.add_argument("--sample-interval", type=float, default=0.25)
    parser.add_argument("--verify-queries", type=int, default=4)
    parser.add_argument("--json", default=None, help="write the record here")
    args = parser.parse_args(argv)

    graph = rmat_graph(args.scale, args.degree, seed=args.seed)
    print(f"graph: {graph}")
    capacity = calibrate(graph, args)
    print(f"calibrated capacity: {capacity:.1f} q/s (closed-loop, clean)")
    print(
        f"soak: {args.factor}x overload for {args.duration:.0f}s, "
        f"faults={args.faults!r}, elastic={args.elastic!r}, "
        f"max_queued={args.max_queued}, "
        f"brownout={BROWNOUT_HIGH}/{BROWNOUT_LOW}, shed={SHED_HIGH}/{SHED_LOW}, "
        f"breaker={BREAKER_THRESHOLD}@{BREAKER_RESET}s"
    )
    record, rc = soak(graph, capacity, args)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.json}")
    print("SOAK PASS" if rc == 0 else "SOAK FAIL", flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
