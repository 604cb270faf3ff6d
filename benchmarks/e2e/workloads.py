"""The six named workloads: what each runs and why it exists.

Every input is generated from the seed; the program under test receives only
the generated inputs.  All workloads use the serial executor, the default
kernel mode, and no faults / elastic / check / memory budget.  ``quick``
shrinks every graph to R-MAT scale 6-7 for ``selftest.py``.

``repro`` is imported inside the factories so that ``run.py`` can list the
workloads without importing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: queries per lockstep wave (= closed-loop clients) of the serve workloads
WAVE = 16
#: serve-mixed swaps the served graph every this many waves
UPDATE_EVERY = 16


@dataclass(frozen=True)
class Batch:
    """``mfbc(graph, batch, engine=engine(), sources=rng.choice(n, sources))``."""

    name: str
    why: str
    graph: Callable  # (rng, quick) -> Graph
    engine: Callable  # () -> (engine, machine or None); fresh ledger per rep
    sources: int
    batch: int


@dataclass(frozen=True)
class Serve:
    """A closed loop of 16 lockstep clients against ``BCService(graph, p=4)``."""

    name: str
    why: str
    scale: int  # R-MAT scale of the served graph
    mixed: bool  # DEFAULT_MIX + update_graph, else distinct bc_source queries


def _ork(rng, quick):
    from repro.graphs import snap_standin

    return snap_standin("ork", scale_offset=-6 if quick else 0, seed=rng)


def _rmat10(rng, quick):
    from repro.graphs import rmat_graph

    return rmat_graph(7 if quick else 10, 8, seed=rng)


def _wuniform11(rng, quick):
    from repro.graphs import uniform_random_graph_nm, with_random_weights

    graph = uniform_random_graph_nm(128 if quick else 2048, 8, seed=rng)
    return with_random_weights(graph, 1, 100, seed=rng)


def _sequential():
    from repro.core import SequentialEngine

    return SequentialEngine(), None


def _distributed(p: int, ca: bool = False):
    def make():
        from repro.dist import DistributedEngine
        from repro.machine import Machine
        from repro.spgemm.selector import PinnedPolicy

        machine = Machine(p)
        policy = PinnedPolicy.ca_mfbc(p=p, c=4) if ca else None  # None: AutoPolicy
        return DistributedEngine(machine, policy=policy), machine

    return make


WORKLOADS: dict[str, Batch | Serve] = {
    w.name: w
    for w in (
        Batch(
            "seq-ork",
            "README quickstart path on the dense ork stand-in: the node-local "
            "spgemm kernel does ~80% of the work and dist/machine/spgemm none; "
            "a kernel PR must show here, a DistMat PR must not",
            _ork, _sequential, sources=2, batch=2,
        ),
        Batch(
            "dist16-rmat10",
            "p=16 AutoPolicy (1D plans) on R-MAT scale 10: thousands of tiny "
            "SpMat blocks, so the simulator/Python tax dominates and the "
            "kernel is <= a fifth",
            _rmat10, _distributed(16), sources=128, batch=64,
        ),
        Batch(
            "ca16-rmat10",
            "same graph, sources and p as dist16-rmat10 with "
            "PinnedPolicy.ca_mfbc(c=4): the only workload running 3D plans, "
            "so modeled W/S compare CA-MFBC with the auto choice directly",
            _rmat10, _distributed(16, ca=True), sources=128, batch=64,
        ),
        Batch(
            "dist4-wuniform11",
            "weighted uniform graph at p=4: Bellman-Ford with ~18 relaxations "
            "per batch over few large blocks; a gain for unweighted frontiers "
            "that costs weighted relaxation shows here",
            _wuniform11, _distributed(4), sources=16, batch=16,
        ),
        Serve(
            "serve-waves",
            "BCService with the cache bypassed: lockstep waves of 16 distinct "
            "bc_source queries, latency = batch_window + one 16-wide sweep; "
            "engine gains reach it, cache gains must not",
            scale=11, mixed=False,
        ),
        Serve(
            "serve-mixed",
            "reads beside writes: DEFAULT_MIX with hot-set skew in waves of 16 "
            "plus update_graph every 16 waves; cache hits, narrow sweeps and "
            "invalidation; a cache/coalescer gain shows here only",
            scale=10, mixed=True,
        ),
    )
}
