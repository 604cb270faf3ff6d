"""Fault-injection overhead: an inert FaultPlan must cost (almost) nothing.

The robustness subsystem's hot-path contract: `Machine(p, faults=...)`
with a plan that can never fire — every rate zero, no script, no checksum,
no memory factor — leaves `machine._fault_hook` unset, so the charge paths
and payload deliveries pay nothing beyond a `None` check.  This bench
holds that line end-to-end: a full MFBC batch with an inert plan attached
must stay within 2% of the plain-machine wall-clock.

For context it also times an *armed but silent* plan (vanishingly small
rates that deterministically never fire under the seeded rng): that is
the true cost of running the hooks — one rng draw per charge — and is
recorded but not asserted, since it is a different contract.

All three configurations must produce bit-identical scores and ledger
snapshots: a plan that injects nothing must change nothing.
"""

import time

import numpy as np

from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.faults import resolve_fault_plan
from repro.graphs import rmat_graph
from repro.machine import Machine

SCALE = 12
DEGREE = 8
P = 4
BATCH = 32
REPS = 5
OVERHEAD_CEILING = 0.02  # inert plan: <2% wall-clock overhead

#: every rate zero -> resolve_fault_plan() yields an unarmed plan and the
#: machine skips the hooks entirely
INERT_SPEC = "seed:0,crash:0,corrupt:0,straggle:0,tear:0"
#: armed (nonzero rates) but vanishingly unlikely to fire -> hooks run on
#: every charge, nothing injects (deterministic under the seeded rng)
SILENT_SPEC = "seed:0,crash:1e-9,straggle:1e-9,limit:1"


def run_config(graph, faults):
    """Best-of-REPS wall-clock for one MFBC batch under a fault config."""
    best = float("inf")
    scores = snap = None
    for _ in range(REPS):
        machine = Machine(P, faults=faults)
        engine = DistributedEngine(machine)
        t0 = time.perf_counter()
        res = mfbc(graph, batch_size=BATCH, max_batches=1, engine=engine)
        best = min(best, time.perf_counter() - t0)
        scores, snap = res.scores, machine.ledger.snapshot()
    return scores, snap, best


def test_fault_overhead(save_table):
    graph = rmat_graph(scale=SCALE, avg_degree=DEGREE, seed=0)
    run_config(graph, None)  # warm-up: page in code paths and allocator

    ref_scores, ref_snap, base_wall = run_config(graph, None)
    configs = [
        ("no plan", None),
        ("inert plan", INERT_SPEC),
        ("armed, silent", SILENT_SPEC),
    ]
    rows = []
    walls = {}
    for label, spec in configs:
        if spec is None:
            scores, snap, wall = ref_scores, ref_snap, base_wall
        else:
            scores, snap, wall = run_config(graph, spec)
        walls[label] = wall
        identical = bool(np.array_equal(scores, ref_scores)) and snap == ref_snap
        rows.append(
            [
                label,
                f"{wall:.3f}",
                f"{(wall / base_wall - 1.0) * 100:+.2f}%",
                "yes" if identical else "NO",
            ]
        )
        # a plan that injects nothing must change nothing
        assert np.array_equal(scores, ref_scores), label
        assert snap == ref_snap, label

    # the inert plan really is unarmed, so the machine never installed hooks
    assert not resolve_fault_plan(INERT_SPEC).armed

    save_table(
        "fault_overhead",
        f"Fault-plan overhead: MFBC scale-{SCALE} R-MAT, p={P}, "
        f"batch={BATCH}, best of {REPS}",
        ["configuration", "wall s", "vs no plan", "bit-identical"],
        rows,
    )

    overhead = walls["inert plan"] / base_wall - 1.0
    assert overhead < OVERHEAD_CEILING, (
        f"inert fault plan added {overhead * 100:.2f}% wall-clock "
        f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
    )
