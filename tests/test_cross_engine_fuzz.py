"""Cross-engine fuzzing: random operation pipelines, both engines, equality.

Hypothesis drives a random sequence of matrix operations — elementwise
combines, filters, maps, and generalized products over random monoids — and
executes it on the sequential engine and on simulated machines of various
rank counts.  Every intermediate result must agree exactly.  This is the
broadest equivalence net over the distribution logic: any divergence in
redistribution, piece extraction, reduction order, or identity pruning
shows up here.

The cross-*kernel* tests at the bottom re-run the same programs on the
distributed engine under both routes a local multiply can take (the
dispatch tier, and the generic kernel it falls back to — forced through the
``conftest.kernel`` seam) and require bit-identical gathered matrices *and*
bit-identical ``ledger.snapshot()`` — the determinism guarantee the kernel
tier promises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNELS, kernel
from repro.algebra import MULTPATH, TROPICAL, MatMulSpec, bellman_ford_action
from repro.baselines import brandes_bc
from repro.check.strategies import WEIGHT_MONOID as W
from repro.check.strategies import graphs, pipelines
from repro.core import mfbc
from repro.core.engine import SequentialEngine
from repro.dist import DistributedEngine
from repro.graphs import Graph
from repro.machine import Machine
from repro.spgemm import Plan
from repro.spgemm.selector import PinnedPolicy

TROP = TROPICAL.matmul_spec()
BF = MatMulSpec(MULTPATH, bellman_ford_action, "bf")


def _rand_mat(engine, rng, n):
    mask = rng.random((n, n)) < 0.25
    r, c = mask.nonzero()
    vals = rng.integers(1, 9, len(r)).astype(float)
    return engine.matrix(n, n, r.astype(np.int64), c.astype(np.int64), {"w": vals}, W)


def _run(engine, n, seed, ops):
    rng = np.random.default_rng(seed)
    x = _rand_mat(engine, rng, n)
    aux = _rand_mat(engine, rng, n)
    for op in ops:
        if op == "mul":
            x, _ = engine.spgemm(x, aux, TROP)
        elif op == "combine":
            x = x.combine(aux)
        elif op == "filter":
            x = x.filter(lambda v: v["w"] > 3)
        elif op == "map":
            x = x.map(lambda v: {"w": v["w"] + 1.0})
        elif op == "transpose":
            x = x.transpose()
            aux = aux.transpose()
    return engine.gather(x)


@given(pipelines())
def test_random_pipelines_agree(pipeline):
    n, seed, p, ops = pipeline
    ref = _run(SequentialEngine(), n, seed, ops)
    got = _run(DistributedEngine(Machine(p)), n, seed, ops)
    assert got.equals(ref), (n, seed, p, ops)


@given(st.integers(0, 5000), st.sampled_from([2, 4, 9]))
@settings(max_examples=20)
def test_multpath_product_chain_agrees(seed, p):
    """Chains of Bellman-Ford products (the MFBC inner loop shape)."""
    n = 14
    rng = np.random.default_rng(seed)

    def run(engine):
        mask = rng_local.random((n, n)) < 0.3
        r, c = mask.nonzero()
        adj = engine.matrix(
            n, n, r.astype(np.int64), c.astype(np.int64),
            {"w": np.ones(len(r))}, W,
        )
        f = engine.matrix(
            2,
            n,
            np.array([0, 1], dtype=np.int64),
            np.array([0, n - 1], dtype=np.int64),
            MULTPATH.make([0.0, 0.0], [1.0, 1.0]),
            MULTPATH,
        )
        for _ in range(3):
            f, _ = engine.spgemm(f, adj, BF)
        return engine.gather(f)

    rng_local = np.random.default_rng(seed)
    ref = run(SequentialEngine())
    rng_local = np.random.default_rng(seed)
    got = run(DistributedEngine(Machine(p)))
    assert got.equals(ref)


# ---------------------------------------------------------------------------
# cross-route determinism: generic vs auto
# ---------------------------------------------------------------------------


@given(pipelines())
@settings(max_examples=10)
def test_pipelines_agree_across_kernels(pipeline):
    n, seed, p, ops = pipeline
    ref = _run(SequentialEngine(), n, seed, ops)
    snaps = []
    for mode in KERNELS:
        machine = Machine(p)
        with kernel(mode):
            got = _run(DistributedEngine(machine), n, seed, ops)
        assert got.equals(ref), (n, seed, p, ops, mode)
        snaps.append(machine.ledger.snapshot())
    assert snaps.count(snaps[0]) == len(snaps), (n, seed, p, ops, "ledger diverged")


#: pinned p=4 plans covering every variant class: pure 1D (A/B/C), pure 2D
#: (AB/AC/BC), and genuinely 3D nestings (1D splits × 2D grids).
PLANS_P4 = [
    Plan(4, 1, 1, "A", "AB"),
    Plan(4, 1, 1, "B", "AB"),
    Plan(4, 1, 1, "C", "AB"),
    Plan(1, 2, 2, "A", "AB"),
    Plan(1, 2, 2, "A", "AC"),
    Plan(1, 2, 2, "A", "BC"),
    Plan(2, 2, 1, "A", "AB"),
    Plan(2, 1, 2, "B", "AC"),
    Plan(2, 2, 1, "C", "BC"),
]


@given(st.integers(0, 5000), st.sampled_from(PLANS_P4))
@settings(max_examples=18)
def test_variant_classes_agree_across_kernels(seed, plan):
    """Every §5.2 variant class, both kernel modes (the products here take
    the compiled path kernel under ``auto``): same matrix, same ledger."""
    n = 16
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.3
    ar, ac = (idx.astype(np.int64) for idx in mask.nonzero())
    aw = rng.integers(1, 9, len(ar)).astype(float)
    srcs = rng.choice(n, size=3, replace=False).astype(np.int64)

    def run(mode):
        machine = Machine(4)
        engine = DistributedEngine(machine, policy=PinnedPolicy(plan))
        # pinned, so the amortized replication path stays exercised
        adj = engine.adjacency(Graph(n, ar, ac, aw, directed=True))
        f = engine.matrix(
            len(srcs),
            n,
            np.arange(len(srcs), dtype=np.int64),
            srcs,
            MULTPATH.make(np.zeros(len(srcs)), np.ones(len(srcs))),
            MULTPATH,
        )
        with kernel(mode):
            for _ in range(2):
                f, _ = engine.spgemm(f, adj, BF)
        return engine.gather(f), machine.ledger.snapshot()

    ref_mat, ref_snap = run("generic")
    got, snap = run("auto")
    assert got.equals(ref_mat), (seed, plan.describe())
    assert snap == ref_snap, (seed, plan.describe())


# ---------------------------------------------------------------------------
# weighted-graph and degenerate-graph edge cases, cross-kernel × variants
# ---------------------------------------------------------------------------


@given(graphs(weighted=True, max_n=12))
@settings(max_examples=15)
def test_weighted_mfbc_agrees_across_engines(g):
    """Weighted BC: sequential vs distributed, any auto-selected plan."""
    ref = mfbc(g).scores
    got = mfbc(g, engine=DistributedEngine(Machine(4, check="full"))).scores
    assert np.allclose(got, ref, atol=1e-8)
    assert np.allclose(ref, brandes_bc(g), atol=1e-8)


def _edge_case_graphs():
    """Degenerate shapes the uniform fuzzers rarely hit."""
    empty = Graph(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    singleton = Graph(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    self_loops = Graph(
        4,
        np.array([0, 1, 1, 2], dtype=np.int64),
        np.array([0, 1, 2, 3], dtype=np.int64),
    )
    disconnected = Graph(
        6,
        np.array([0, 1, 3, 4], dtype=np.int64),
        np.array([1, 2, 4, 5], dtype=np.int64),
        np.array([2.0, 1.0, 1.0, 3.0]),
    )
    return {
        "empty": empty,
        "singleton": singleton,
        "self_loops": self_loops,
        "disconnected_weighted": disconnected,
    }


@pytest.mark.parametrize("case", sorted(_edge_case_graphs()))
def test_edge_case_graphs_agree_across_kernels(case):
    """Empty / singleton / self-loop / disconnected graphs: both kernel
    modes produce the sequential scores, under full checking."""
    g = _edge_case_graphs()[case]
    ref = mfbc(g).scores
    assert np.allclose(ref, brandes_bc(g), atol=1e-12)
    for mode in KERNELS:
        engine = DistributedEngine(Machine(4, check="full"))
        with kernel(mode):
            got = mfbc(g, engine=engine).scores
        assert np.allclose(got, ref, atol=1e-12), (case, mode)


@pytest.mark.parametrize("plan", PLANS_P4, ids=lambda p: p.describe())
def test_edge_cases_under_every_variant(plan):
    """Degenerate frontier shapes through every §5.2 variant class."""
    cases = _edge_case_graphs()
    for name, g in cases.items():
        engine = DistributedEngine(Machine(4, check="full"), policy=PinnedPolicy(plan))
        got = mfbc(g, engine=engine).scores
        ref = mfbc(g).scores
        assert np.allclose(got, ref, atol=1e-12), (name, plan.describe())
