"""Elastic-recovery overhead: free while armed, and the cost of a failure.

Two contracts of `repro.elastic` (see docs/robustness.md):

* **Armed and fault-free, it is free.** `Machine(p, elastic="on")` keeps
  nothing beside the pinned adjacency — a recovery rebuilds it from its
  graph — so a fault-free run charges exactly the ledger of an unarmed
  one: equal modeled critical-path time, bit-identical scores, and a
  wall-clock overhead under 2%.

* **A failure is survivable and honestly priced.**  For context the bench
  also runs one injected mid-batch rank failure and reports the
  recovery's modeled cost (the "recovery" scatter of the rebuilt
  adjacency) and the recovered run's wall-clock — recorded, not asserted,
  since absolute recovery cost scales with the graph.
"""

import time

import numpy as np

from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.graphs import rmat_graph
from repro.machine import Machine

SCALE = 12
DEGREE = 8
P = 4
BATCH = 32
REPS = 5
OVERHEAD_CEILING = 0.02  # armed, fault-free: <2% wall-clock overhead

CRASH_SPEC = "seed:3,crash@5:2"  # one scripted mid-batch rank failure
# (the first batch of this configuration spans 7 fault steps: the adjacency
# and frontier scatters, then the products' replications and re-blockings;
# step 5 is the second re-blocking, mid-batch)


def run_config(graph, elastic, faults="off"):
    """Best-of-REPS wall-clock for one MFBC batch with elastic on or off."""
    best = float("inf")
    scores = snap = machine = None
    for _ in range(REPS):
        machine = Machine(P, faults=faults, elastic=elastic)
        engine = DistributedEngine(machine)
        t0 = time.perf_counter()
        res = mfbc(graph, batch_size=BATCH, max_batches=1, engine=engine)
        best = min(best, time.perf_counter() - t0)
        scores, snap = res.scores, machine.ledger.snapshot()
    return scores, snap, best, machine


def test_recovery_overhead(save_table):
    graph = rmat_graph(scale=SCALE, avg_degree=DEGREE, seed=0)
    run_config(graph, "off")  # warm-up: page in code paths and allocator

    off_scores, off_snap, off_wall, _ = run_config(graph, "off")
    on_scores, on_snap, on_wall, _ = run_config(graph, "on")
    rows = [
        [
            label,
            f"{wall:.3f}",
            f"{(wall / off_wall - 1.0) * 100:+.2f}%",
            f"{(snap['time'] / off_snap['time'] - 1.0) * 100:+.2f}%",
            "yes" if np.array_equal(scores, off_scores) else "NO",
        ]
        for label, scores, snap, wall in [
            ("off", off_scores, off_snap, off_wall),
            ("on", on_scores, on_snap, on_wall),
        ]
    ]

    # failure run: one injected crash, recovered in-flight
    _, _, crash_wall, machine = run_config(graph, "on", faults=CRASH_SPEC)
    assert len(machine.recoveries) == 1
    assert not machine.faults.unfired()
    rep = machine.recoveries[0]
    fail_rows = [
        [
            "on",
            f"{rep.p_before}->{rep.p_after}",
            f"{machine.ledger.category_words.get('recovery', 0.0):.3g}",
            f"{crash_wall:.3f}",
        ]
    ]

    save_table(
        "recovery_overhead",
        f"Elastic recovery armed, fault-free: MFBC scale-{SCALE} R-MAT, "
        f"p={P}, batch={BATCH}, best of {REPS}",
        ["elastic", "wall s", "vs off", "modeled vs off", "bit-identical"],
        rows,
    )
    save_table(
        "recovery_cost",
        f"One injected rank failure, recovered in-flight (spec {CRASH_SPEC})",
        ["elastic", "grid", "recovery words", "wall s"],
        fail_rows,
    )

    # arming must never perturb the computed scores or the modeled ledger
    assert np.array_equal(on_scores, off_scores)
    assert on_snap == off_snap
    overhead = on_wall / off_wall - 1.0
    assert overhead < OVERHEAD_CEILING, (
        f"armed elastic recovery added {overhead * 100:.2f}% "
        f"wall-clock (ceiling {OVERHEAD_CEILING * 100:.0f}%)"
    )
