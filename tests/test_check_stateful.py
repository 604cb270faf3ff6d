"""Stateful model-based test: random op sequences vs a dense numpy model.

Hypothesis drives an arbitrary interleaving of matrix creation, min-plus
products, elementwise combines, filters, transposes, and redistributions
through a fully-checked :class:`DistributedEngine`, mirroring every step in
a dense ``numpy`` min-plus model (``inf`` = absent).  After every step the
gathered matrix must equal the model exactly, and the machine's α-β ledger
must stay internally consistent.  This explores op *sequences* the
fixed-pipeline fuzzers never generate (e.g. redistribute between a filter
and a product), with the CheckedEngine differentially replaying every
product against the sequential kernel along the way.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.algebra import TROPICAL
from repro.check import CheckedEngine, check_ledger
from repro.check.strategies import grids
from repro.dist import DistributedEngine, Layout
from repro.machine import Machine

W = TROPICAL.add_monoid
TROP = TROPICAL.matmul_spec()

N = 8  # all matrices are N×N so every pair composes
P = 4


def _minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.min(a[:, :, None] + b[None, :, :], axis=1)


class CheckedPipeline(RuleBasedStateMachine):
    mats = Bundle("mats")

    def __init__(self):
        super().__init__()
        self.machine = Machine(P)
        self.engine = CheckedEngine(DistributedEngine(self.machine), "full")

    @rule(target=mats, seed=st.integers(0, 10**6))
    def new_matrix(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((N, N)) < 0.3
        r, c = mask.nonzero()
        vals = rng.integers(1, 9, len(r)).astype(float)
        mat = self.engine.matrix(
            N, N, r.astype(np.int64), c.astype(np.int64), {"w": vals}, W
        )
        model = np.full((N, N), np.inf)
        model[r, c] = vals
        return mat, model

    @rule(target=mats, a=mats, b=mats)
    def multiply(self, a, b):
        out, ops = self.engine.spgemm(a[0], b[0], TROP)
        assert ops >= 0
        return out, _minplus(a[1], b[1])

    @rule(target=mats, a=mats, b=mats)
    def combine(self, a, b):
        return a[0].combine(b[0]), np.minimum(a[1], b[1])

    @rule(target=mats, a=mats, threshold=st.integers(1, 12))
    def filter_above(self, a, threshold):
        out = a[0].filter(lambda v: v["w"] > threshold)
        model = a[1].copy()
        model[model <= threshold] = np.inf
        return out, model

    @rule(target=mats, a=mats)
    def transpose(self, a):
        return a[0].transpose(), a[1].T.copy()

    @rule(target=mats, a=mats, grid=grids(p=P))
    def redistribute(self, a, grid):
        return a[0].redistribute(Layout.even(grid, N, N)), a[1]

    @rule(a=mats)
    def gather_matches_model(self, a):
        gathered = self.engine.gather(a[0])
        assert np.array_equal(gathered.to_dense("w"), a[1])

    @invariant()
    def ledger_stays_consistent(self):
        assert check_ledger(self.machine) == []


TestCheckedPipeline = CheckedPipeline.TestCase
TestCheckedPipeline.settings = settings(
    max_examples=12, stateful_step_count=20, deadline=None
)
