"""Ablation: the SpGEMM algorithm space at a fixed product (§5.2, §6.2).

DESIGN.md calls out the algorithm-variant choice as the central design
decision of the mini-CTF layer.  This ablation takes one representative
MFBC product (a frontier times the adjacency matrix) on a 16-rank simulated
machine and executes *every* §5.2 plan, reporting measured critical-path
words and messages — making visible why the model-driven selector matters:
the spread between the best and worst plan is large, and no single variant
wins for both operand-imbalance directions.
"""

import numpy as np

from repro.algebra import MULTPATH, MatMulSpec, bellman_ford_action
from repro.dist import DistMat
from repro.machine.grid import near_square_shape
from repro.graphs import uniform_random_graph_nm
from repro.machine import Machine
from repro.sparse import SpMat
from repro.spgemm import AutoPolicy, execute_plan
from repro.spgemm.selector import enumerate_plans

P = 16
BF = MatMulSpec(MULTPATH, bellman_ford_action, "bf")


def make_product(n=512, nb=64, frontier_fill=0.05, seed=3):
    rng = np.random.default_rng(seed)
    g = uniform_random_graph_nm(n, 16.0, seed=seed)
    adj = g.adjacency()
    k = max(int(frontier_fill * n * nb), nb)
    rows = rng.integers(0, nb, k)
    cols = rng.integers(0, n, k)
    f = SpMat(nb, n, rows, cols, MULTPATH.make(rng.integers(1, 5, k), np.ones(k)), MULTPATH)
    return f, adj


def build_rows():
    f, adj = make_product()
    pr, pc = near_square_shape(P)
    rows = []
    ref = None
    for plan in enumerate_plans(P):
        machine = Machine(P)
        home = np.arange(P).reshape(pr, pc)
        df = DistMat.distribute(f, machine, home, charge=False)
        da = DistMat.distribute(adj, machine, home, charge=False)
        c, ops = execute_plan(plan, df, da, BF)
        got = c.gather(charge=False)
        if ref is None:
            ref = got
        assert got.equals(ref), plan.describe()
        led = machine.ledger.snapshot()
        rows.append(
            (
                plan.describe(),
                round(led["words"]),
                round(led["msgs"]),
                f"{led['time'] * 1e3:.3f}",
            )
        )
    rows.sort(key=lambda r: float(r[3]))
    return rows


def test_ablation_variant_space(benchmark, save_table):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    save_table(
        "ablation_variants",
        f"Ablation: every §5.2 plan on one frontier×adjacency product "
        f"(p={P}, measured critical-path costs, sorted by modeled time)",
        ["plan", "W (words)", "S (msgs)", "time (ms)"],
        rows,
    )
    times = [float(r[3]) for r in rows]
    # the spread justifies the mapping search: >2x between best and worst
    assert times[-1] > 2.0 * times[0]


def test_ablation_selector_close_to_best(benchmark, save_table):
    """The AutoPolicy choice lands within a small factor of the measured
    best plan (the model is approximate: it estimates nnz(C))."""

    def run():
        f, adj = make_product()
        pr, pc = near_square_shape(P)
        # measured best
        best_time = None
        for plan in enumerate_plans(P):
            machine = Machine(P)
            home = np.arange(P).reshape(pr, pc)
            df = DistMat.distribute(f, machine, home, charge=False)
            da = DistMat.distribute(adj, machine, home, charge=False)
            execute_plan(plan, df, da, BF)
            t = machine.ledger.critical_time()
            if best_time is None or t < best_time:
                best_time = t
        # selector's choice, measured
        machine = Machine(P)
        home = np.arange(P).reshape(pr, pc)
        df = DistMat.distribute(f, machine, home, charge=False)
        da = DistMat.distribute(adj, machine, home, charge=False)
        plan = AutoPolicy().select(
            machine, f.nrows, f.ncols, adj.ncols, f.nnz, adj.nnz
        )
        execute_plan(plan, df, da, BF)
        return plan.describe(), machine.ledger.critical_time(), best_time

    chosen, t_sel, t_best = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "ablation_selector",
        "Ablation: model-selected plan vs measured best",
        ["selected plan", "selected time (ms)", "best time (ms)", "gap"],
        [
            (
                chosen,
                f"{t_sel * 1e3:.3f}",
                f"{t_best * 1e3:.3f}",
                f"{t_sel / t_best:.2f}x",
            )
        ],
    )
    assert t_sel <= 5.0 * t_best
