"""Peak-memory ratchet: the seed workload's footprint must not creep up.

The machine tracks every block allocation in modeled words (deterministic —
no RSS sampling), so the per-rank high-water mark of the seed MFBC workload
is an exact, reproducible number.  This bench ratchets it against the
committed ceiling in ``benchmarks/results/memory_footprint.json``: a change
that inflates the resting or transient footprint past the ceiling fails CI.
Lower the recorded peak when an optimization lands; never raise the ceiling
without understanding what grew.

The second half proves the pressured-run bar end-to-end: the same
workload under a budget well below the unpressured peak completes
**bit-identically** through relief eviction to the spill store (and, past
that, the ladder's narrower sweep), with its tracked peak under the budget
and spill traffic visible on the ledger.
"""

import json
from pathlib import Path

import numpy as np

from repro.core import mfbc
from repro.dist import DistributedEngine
from repro.graphs import rmat_graph
from repro.machine import Machine

RATCHET = Path(__file__).parent / "results" / "memory_footprint.json"

SCALE = 7
DEGREE = 8
SEED = 1
P = 4
BATCH = 64
#: fraction of the unpressured peak the pressured leg must fit inside
PRESSURE = 0.6


def _run(budget, spill_dir=None):
    g = rmat_graph(scale=SCALE, avg_degree=DEGREE, seed=SEED)
    machine = Machine(
        P, faults="off", elastic="off",
        memory_words=budget, spill_dir=spill_dir,
    )
    scores = mfbc(g, batch_size=BATCH, engine=DistributedEngine(machine)).scores
    return scores, machine


def test_memory_footprint(tmp_path, save_table):
    ratchet = json.loads(RATCHET.read_text())
    ceiling = int(ratchet["ceiling_words"])

    # -- unpressured: the tracked peak must stay under the committed ceiling
    ref, unpressured = _run(budget=1 << 40)
    peak = unpressured.memory_peak()
    assert peak <= ceiling, (
        f"per-rank peak grew to {peak} words (ceiling {ceiling}); "
        f"committed baseline was {ratchet['peak_words']}"
    )

    # -- pressured: well under the peak, bit-identical via relief eviction
    budget = int(peak * PRESSURE)
    scores, pressured = _run(budget=budget, spill_dir=str(tmp_path))
    np.testing.assert_array_equal(scores, ref)
    assert pressured.memory_peak() <= budget
    snap = pressured.memory.snapshot()
    assert snap["reliefs"] > 0, "budget under peak but no relief fired"
    spill_words = pressured.ledger.category_words.get("spill", 0.0)
    assert spill_words > 0, "relief fired but no spill traffic on the ledger"

    save_table(
        "memory_footprint",
        f"Peak tracked memory, R-MAT scale {SCALE} deg {DEGREE}, "
        f"p={P}, batch {BATCH} (words/rank)",
        ["run", "budget", "peak", "reliefs", "spilled blocks", "spill words"],
        [
            ["unpressured", "-", peak, 0, 0, 0],
            [
                "pressured",
                budget,
                pressured.memory_peak(),
                snap["reliefs"],
                snap.get("spilled_blocks", 0),
                int(spill_words),
            ],
        ],
    )
