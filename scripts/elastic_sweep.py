#!/usr/bin/env python
"""Elastic recovery under memory budgets: the sweep behind
``benchmarks/results/elastic_sweep.txt``.

Runs ``mfbc`` on ``rmat_graph(7, 8, seed=np.random.default_rng(3))`` with
sources 0..31 in batches of 16 at p = 4, elastic recovery on, for every
combination of

* policy: ``AutoPolicy`` or ``PinnedPolicy(Plan(4, 1, 1, X, "AB"))``, X in A/B/C;
* per-rank budget: off, 3000 or 6000 words;
* the five fault specs of :data:`FAULTS`;

and prints one row per run: the scores' crc32 (or the exception's name
when the run fails), final p, recoveries, the ledger's critical time and
words, the memory peak, reliefs, relieved words, and how many tiles of the
pinned adjacency and its transpose sat in the spill store when a recovery
began (summed over recovery attempts).  Every other knob is pinned off, so
a stray ``REPRO_*`` variable changes nothing.

Regenerate the committed file::

    PYTHONPATH=src python scripts/elastic_sweep.py > benchmarks/results/elastic_sweep.txt
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import DistributedEngine, Machine, mfbc, rmat_graph
from repro.spgemm.plan import Plan
from repro.spgemm.selector import AutoPolicy, PinnedPolicy

P = 4
SOURCES = np.arange(32)
BATCH = 16
BUDGETS = ("off", 3000, 6000)
FAULTS = (
    "seed:0,crash@10:1",
    "seed:0,crash@20:2",
    "seed:5,crash:0.02,limit:3",
    "seed:2,crash:0.01,limit:2",
    "seed:1,crash@30:3",
)
POLICIES = (("auto", AutoPolicy),) + tuple(
    (f"1D-{x}", lambda x=x: PinnedPolicy(Plan(P, 1, 1, x, "AB"))) for x in "ABC"
)
COLUMNS = (
    ("policy", 6), ("budget", 6), ("faults", 25), ("scores", 19), ("p", 1),
    ("recov", 5), ("time", 10), ("words", 6), ("peak", 5), ("reliefs", 7),
    ("relieved", 8), ("spilled", 7),
)


class SweepEngine(DistributedEngine):
    """A distributed engine that counts the pinned tiles spilled when each
    recovery begins."""

    spilled = 0

    def recover_from(self, failure):
        self.spilled += sum(
            len(m._spilled)
            for _, adj, _ in self._adjacency.values()
            for m in (adj, adj.transpose())
        )
        return super().recover_from(failure)


def run(graph, policy, budget, faults) -> tuple:
    machine = Machine(P, memory_words=budget, faults=faults, elastic="on", check="off")
    engine = SweepEngine(machine, policy=policy())
    try:
        scores = mfbc(graph, BATCH, engine=engine, sources=SOURCES).scores
        outcome = f"{zlib.crc32(scores.tobytes()):08x}"
    except Exception as exc:  # noqa: BLE001 - the failure is the row's outcome
        outcome = type(exc).__name__
    memory = machine.memory.snapshot()
    return (
        outcome,
        machine.p,
        len(machine.recoveries),
        f"{machine.ledger.critical_time():.6g}",
        int(machine.ledger.critical_words()),
        machine.memory_peak(),
        memory["reliefs"],
        memory["relieved_words"],
        engine.spilled,
    )


def main() -> None:
    graph = rmat_graph(7, 8, seed=np.random.default_rng(3))
    print(
        f"Elastic sweep at p = {P}: rmat_graph(7, 8, seed=np.random.default_rng(3)), "
        f"sources=np.arange({len(SOURCES)}), batch_size={BATCH}, check=\"off\";\n"
        f"policy: AutoPolicy or PinnedPolicy(Plan({P}, 1, 1, X, \"AB\")); "
        "memory_words off / 3000 / 6000.  Generated by scripts/elastic_sweep.py.\n"
        "\"spilled\" counts pinned-adjacency tiles in the spill store when a recovery "
        "began\n(summed over attempts; a pinned 1D plan has no feasible grid below "
        f"p = {P}, so its attempts fall to the retry rung).\n"
    )
    print("  ".join(name.rjust(width) for name, width in COLUMNS))
    print("  ".join("-" * width for _, width in COLUMNS))
    for label, policy in POLICIES:
        for budget in BUDGETS:
            for faults in FAULTS:
                row = (label, budget, faults) + run(graph, policy, budget, faults)
                print("  ".join(str(v).rjust(w) for v, (_, w) in zip(row, COLUMNS)))


if __name__ == "__main__":
    main()
