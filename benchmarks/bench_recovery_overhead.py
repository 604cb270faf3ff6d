"""Elastic-recovery overhead: redundancy upkeep and the cost of a failure.

Two contracts of `repro.elastic` (see docs/robustness.md):

* **Inert upkeep is cheap.** Arming `Machine(p, elastic="replica")` on a
  fault-free run adds exactly one extra collective per `distribute` (the
  buddy-replica installation, ledger category "redundancy") and nothing on
  the batch hot path.  Both the wall-clock and the modeled critical-path
  overhead of an armed-but-unused policy must stay under 2%, and the
  scores must be bit-identical to an unarmed run.  The zero-upkeep
  `"source"` policy must be modeled-free entirely.

* **A failure is survivable and honestly priced.**  For context the bench
  also runs one injected mid-batch rank failure per redundancy policy and
  reports the recovery's modeled cost (the "recovery" + "redundancy"
  re-arming traffic) and the recovered run's wall-clock — recorded, not
  asserted, since absolute recovery cost scales with the graph.
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
OVERHEAD_CEILING = 0.02  # inert redundancy: <2% overhead

CRASH_SPEC = "seed:3,crash@5:2"  # one scripted mid-batch rank failure
# (a single batch of this configuration spans 8 fault steps; step 5 is the
# first product's re-blocking of the frontier)


def run_config(graph, elastic, faults="off"):
    """Best-of-REPS wall-clock for one MFBC batch under a redundancy config."""
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
    run_config(graph, None)  # warm-up: page in code paths and allocator

    ref_scores, ref_snap, base_wall, _ = run_config(graph, None)
    rows = []
    walls = {}
    modeled = {}
    for label, elastic in [
        ("off", None),
        ("replica", "replica"),
        ("source", "source"),
    ]:
        if elastic is None:
            scores, snap, wall = ref_scores, ref_snap, base_wall
        else:
            scores, snap, wall, _ = run_config(graph, elastic)
        walls[label] = wall
        modeled[label] = snap["time"]
        identical = bool(np.array_equal(scores, ref_scores))
        rows.append(
            [
                label,
                f"{wall:.3f}",
                f"{(wall / base_wall - 1.0) * 100:+.2f}%",
                f"{(snap['time'] / ref_snap['time'] - 1.0) * 100:+.2f}%",
                "yes" if identical else "NO",
            ]
        )
        # redundancy upkeep must never perturb the computed scores
        assert np.array_equal(scores, ref_scores), label

    # failure runs: one injected crash per policy, recovered in-flight
    fail_rows = []
    for policy in ("replica", "source"):
        scores, snap, wall, machine = run_config(
            graph, policy, faults=CRASH_SPEC
        )
        assert len(machine.recoveries) == 1, policy
        assert not machine.faults.unfired(), policy
        rep = machine.recoveries[0]
        cats = machine.ledger.category_words
        fail_rows.append(
            [
                policy,
                f"{rep.p_before}->{rep.p_after}",
                f"{rep.blocks_replica}/{rep.blocks_source}",
                f"{cats.get('recovery', 0.0):.3g}",
                f"{cats.get('redundancy', 0.0):.3g}",
                f"{wall:.3f}",
            ]
        )

    save_table(
        "recovery_overhead",
        f"Elastic redundancy upkeep (fault-free): MFBC scale-{SCALE} R-MAT, "
        f"p={P}, batch={BATCH}, best of {REPS}",
        ["elastic", "wall s", "vs off", "modeled vs off", "bit-identical"],
        rows,
    )
    save_table(
        "recovery_cost",
        f"One injected rank failure, recovered in-flight (spec {CRASH_SPEC})",
        [
            "elastic",
            "grid",
            "blocks replica/source",
            "recovery words",
            "redundancy words",
            "wall s",
        ],
        fail_rows,
    )

    for label in ("replica", "source"):
        overhead = walls[label] / base_wall - 1.0
        assert overhead < OVERHEAD_CEILING, (
            f"inert {label} redundancy added {overhead * 100:.2f}% "
            f"wall-clock (ceiling {OVERHEAD_CEILING * 100:.0f}%)"
        )
        m_overhead = modeled[label] / modeled["off"] - 1.0
        assert m_overhead < OVERHEAD_CEILING, (
            f"inert {label} redundancy added {m_overhead * 100:.2f}% "
            f"modeled time (ceiling {OVERHEAD_CEILING * 100:.0f}%)"
        )
    # "source" retains a handle instead of shipping copies: modeled-free
    assert modeled["source"] == modeled["off"]
