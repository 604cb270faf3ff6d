"""Overload bench: goodput and tail latency vs offered load, shed on/off.

Pushes a pinned :class:`~repro.serve.BCService` past saturation with the
open-loop arrival model from :mod:`repro.serve.loadgen` (query *i* released
at ``t0 + i/offered_qps`` regardless of completions) and compares two
services at each overload factor:

* **shedding on** — a tight admission bound (``max_queued``) plus the
  watermark governor: excess arrivals get a structured reject in
  microseconds, brownout downgrades whole-graph exact ``bc`` to
  fixed-pivot ``approx_bc``, and the queue never grows past its bound;
* **shedding off** — the same service with an effectively unbounded
  queue (the pre-overload behaviour): every arrival is admitted and
  waits.

The table written to ``benchmarks/results/overload.txt`` is the classic
load-shedding picture: without admission control the backlog — and with
it every admitted query's p50/p99 — grows with the overload factor,
while with shedding the queue and the admitted tail stay flat no matter
how hard the stream pushes.  The price is explicit 503s: shed requests
subtract from goodput, which is exactly the trade a deadline-bound
client wants (a fast structured reject beats an answer that arrives
after it stopped mattering).

Contracts asserted: zero non-shed failures everywhere; the shedding
service's queue stays within its bound while the unbounded service's
backlog exceeds it at high overload; at the highest factor the shedding
service's admitted p99 beats the unbounded service's.
"""

from repro.graphs import rmat_graph
from repro.serve import BCService, OverloadConfig
from repro.serve.loadgen import (
    DEFAULT_MIX,
    DirectClient,
    generate_queries,
    run_load,
)

SCALE = 6
DEGREE = 8
P = 4
SEED = 0
DURATION = 6.0  # seconds of offered arrivals per cell
FACTORS = [1, 2, 4, 8]
MAX_QUEUED = 48
CACHE_CAPACITY = 8  # small so load reaches the machine, not the cache
MIX = {**DEFAULT_MIX, "bc": 0.05}  # give brownout something to downgrade


def _calibrate(graph) -> float:
    service = BCService(
        graph, p=P, batch_window=0.005, cache_capacity=CACHE_CAPACITY
    )
    try:
        specs = generate_queries(150, graph.n, seed=SEED + 1, mix=MIX)
        report = run_load(DirectClient(service), specs, concurrency=16)
    finally:
        service.close()
    assert report.failed == 0
    return report.throughput_qps


def _drive(graph, offered_qps: float, shedding: bool):
    cfg = OverloadConfig(max_queued=MAX_QUEUED if shedding else 1_000_000)
    service = BCService(
        graph,
        p=P,
        batch_window=0.005,
        cache_capacity=CACHE_CAPACITY,
        overload=cfg,
    )
    n_queries = max(int(offered_qps * DURATION), 32)
    specs = generate_queries(n_queries, graph.n, seed=SEED, mix=MIX)
    try:
        report = run_load(
            DirectClient(service),
            specs,
            concurrency=2 * MAX_QUEUED + 32,
            offered_qps=offered_qps,
        )
        peak = service.stats()["admission"]["peak_queued"]
    finally:
        service.close()
    return report, peak


def test_overload(save_table):
    graph = rmat_graph(scale=SCALE, avg_degree=DEGREE, seed=SEED)
    capacity = _calibrate(graph)

    rows = []
    cells = {}
    for factor in FACTORS:
        offered = factor * capacity
        for shedding in (True, False):
            report, peak = _drive(graph, offered, shedding)
            assert report.failed == 0, (factor, shedding)
            cells[(factor, shedding)] = (report, peak)
            rows.append(
                [
                    f"{factor}x",
                    "on" if shedding else "off",
                    f"{offered:.0f}",
                    f"{report.goodput_qps:.1f}",
                    f"{report.percentile(50) * 1e3:.0f}",
                    f"{report.percentile(99) * 1e3:.0f}",
                    f"{report.shed / report.queries:.1%}",
                    f"{report.degraded / max(report.queries, 1):.1%}",
                    peak,
                ]
            )

    save_table(
        "overload",
        f"Overload: goodput/p99 vs offered load, shedding on "
        f"(max_queued={MAX_QUEUED}) vs off, scale-{SCALE} R-MAT, p={P}, "
        f"calibrated capacity {capacity:.0f} q/s",
        [
            "load",
            "shed",
            "offered q/s",
            "goodput q/s",
            "p50 ms",
            "p99 ms",
            "shed %",
            "degraded %",
            "peak queue",
        ],
        rows,
    )

    top = FACTORS[-1]
    # admission control keeps the queue within its configured bound
    for factor in FACTORS:
        _, peak = cells[(factor, True)]
        assert peak <= MAX_QUEUED, (factor, peak)
    # without it the backlog blows through that bound at high overload
    _, peak_unbounded = cells[(top, False)]
    assert peak_unbounded > MAX_QUEUED, peak_unbounded
    # and queueing delay shows up in the admitted tail: shedding's p99 wins
    shed_p99 = cells[(top, True)][0].percentile(99)
    unbounded_p99 = cells[(top, False)][0].percentile(99)
    assert shed_p99 < unbounded_p99, (shed_p99, unbounded_p99)
