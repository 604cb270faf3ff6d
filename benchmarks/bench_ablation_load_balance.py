"""Ablation: the §5.2 load-balance assumption (balls into bins).

The paper's blocks "are chosen obliviously of the matrix structure"; for
this to be load balanced, "randomizing the row and column order implies
that the number of nonzeros of each such block is proportional to the block
size".  This ablation measures exactly that on a skewed R-MAT graph:

* block nonzero imbalance (max/mean over a 4×4 blocking) with the generator
  order versus after random vertex relabeling — relabeling should collapse
  the imbalance toward 1;
* the downstream effect: per-rank compute imbalance of a full distributed
  MFBC batch under both orders.

Note the R-MAT generator already randomizes labels internally (as the paper
prescribes); for the "unbalanced" arm we deliberately sort vertices by
degree, reconstructing the adversarial structured order.
"""

import numpy as np

from repro.core import mfbc
from repro.dist import DistributedEngine, DistMat
from repro.graphs import rmat_graph
from repro.graphs.preprocess import randomize_vertex_order, relabel
from repro.machine import Machine

P = 16
GRID = 4


def degree_sorted(g):
    """Adversarial structured order: hubs first."""
    order = np.argsort(g.degrees())[::-1]
    new_of_old = np.empty(g.n, dtype=np.int64)
    new_of_old[order] = np.arange(g.n)
    return relabel(g, new_of_old, g.n)


def block_imbalance(g) -> float:
    machine = Machine(P)
    home = np.arange(P).reshape(GRID, GRID)
    d = DistMat.distribute(g.adjacency(), machine, home, charge=False)
    nnzs = np.array([[d.block(i, j).nnz for j in range(GRID)] for i in range(GRID)], dtype=float)
    return float(nnzs.max() / max(nnzs.mean(), 1e-12))


def compute_imbalance(g) -> float:
    machine = Machine(P)
    mfbc(g, batch_size=32, max_batches=1, engine=DistributedEngine(machine))
    return machine.ledger.load_imbalance()


def build_rows():
    base = rmat_graph(11, 8, seed=21)
    arms = {
        "degree-sorted (adversarial)": degree_sorted(base),
        "randomized labels (§5.2)": randomize_vertex_order(base, seed=3),
    }
    rows = []
    for label, g in arms.items():
        rows.append(
            (
                label,
                round(block_imbalance(g), 2),
                round(compute_imbalance(g), 2),
            )
        )
    return rows


def test_ablation_load_balance(benchmark, save_table):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    save_table(
        "ablation_load_balance",
        f"Ablation §5.2: block-nnz and per-rank compute imbalance "
        f"(max/mean) on a {GRID}x{GRID} blocking of a skewed R-MAT graph",
        ["vertex order", "block nnz imbalance", "compute imbalance"],
        rows,
    )
    by = {r[0]: r for r in rows}
    sorted_blk = by["degree-sorted (adversarial)"][1]
    random_blk = by["randomized labels (§5.2)"][1]
    # randomization collapses the block imbalance substantially...
    assert random_blk < sorted_blk / 2
    # ...and lands close to the proportional-to-area ideal
    assert random_blk < 1.5
