"""Shared hypothesis strategies for the whole test suite.

One generator vocabulary for tests, fuzzers, and the repro-case tooling —
extracted from the per-file copies that used to live in
``test_spgemm_local.py``, ``test_cross_engine_fuzz.py``,
``test_first_principles.py``, and ``test_properties.py``.

This module imports :mod:`hypothesis`, which is a test-only extra, so it is
deliberately *not* re-exported from ``repro.check``'s package ``__init__``;
import it directly::

    from repro.check import strategies as cst

    @given(cst.graphs(weighted=True))
    def test_something(g): ...

Non-hypothesis helpers (:func:`random_weight_spmat`) take a numpy
``Generator`` instead and work without the extra installed.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from repro.algebra.centpath import CENTPATH
from repro.algebra.monoid import MaxMonoid, MinMonoid, Monoid, PlusMonoid
from repro.algebra.multpath import MULTPATH
from repro.graphs import Graph
from repro.sparse.spmatrix import SpMat

__all__ = [
    "WEIGHT_MONOID",
    "random_weight_spmat",
    "monoids",
    "values_for",
    "spmats",
    "graphs",
    "tiny_graphs",
    "grids",
    "survivor_sets",
    "pipelines",
    "sampler_states",
    "epsilon_delta_params",
]

#: the single-field tropical weight monoid most tests operate over.
WEIGHT_MONOID = MinMonoid()


def random_weight_spmat(
    rng: np.random.Generator, m: int, n: int, density: float
) -> SpMat:
    """A random single-field (tropical weight) sparse matrix."""
    mask = rng.random((m, n)) < density
    r, c = mask.nonzero()
    vals = rng.integers(1, 20, len(r)).astype(np.float64)
    return SpMat(m, n, r, c, {"w": vals}, WEIGHT_MONOID)


# ---------------------------------------------------------------------------
# monoids and their values
# ---------------------------------------------------------------------------


def monoids() -> st.SearchStrategy[Monoid]:
    """One of the library's concrete monoids (single- and multi-field)."""
    return st.sampled_from(
        [MinMonoid(), PlusMonoid(), MaxMonoid(), MULTPATH, CENTPATH]
    )


@st.composite
def values_for(draw, monoid: Monoid, size: int) -> dict[str, np.ndarray]:
    """``size`` non-identity values matching ``monoid``'s field schema.

    Values are small positive integers cast to the schema dtype, so every
    downstream float computation is exact.
    """
    vals: dict[str, np.ndarray] = {}
    for name, dtype in monoid.field_spec:
        col = draw(
            st.lists(st.integers(1, 9), min_size=size, max_size=size)
        )
        vals[name] = np.array(col, dtype=dtype)
    return vals


@st.composite
def spmats(
    draw,
    monoid: Monoid | None = None,
    min_side: int = 1,
    max_side: int = 12,
    shape: tuple[int, int] | None = None,
) -> SpMat:
    """A canonical :class:`SpMat` over ``monoid`` (drawn when ``None``)."""
    if monoid is None:
        monoid = draw(monoids())
    if shape is None:
        nrows = draw(st.integers(min_side, max_side))
        ncols = draw(st.integers(min_side, max_side))
    else:
        nrows, ncols = shape
    cells = nrows * ncols
    nnz = draw(st.integers(0, min(cells, 4 * max(nrows, ncols))))
    flat = draw(
        st.lists(
            st.integers(0, cells - 1), min_size=nnz, max_size=nnz, unique=True
        )
        if cells
        else st.just([])
    )
    flat_arr = np.array(sorted(flat), dtype=np.int64)
    rows, cols = np.divmod(flat_arr, max(ncols, 1))
    vals = draw(values_for(monoid, len(flat_arr)))
    return SpMat(nrows, ncols, rows, cols, vals, monoid)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


@st.composite
def graphs(
    draw,
    weighted: bool | None = None,
    directed: bool | None = None,
    min_n: int = 2,
    max_n: int = 14,
    max_weight: int = 5,
) -> Graph:
    """A small random graph: random edge list, optional weights/direction.

    ``weighted``/``directed`` pin the respective property; ``None`` draws
    it.  At least one non-self-loop edge is guaranteed.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    max_edges = n * (n - 1) // 2
    nedges = draw(st.integers(min_value=1, max_value=max(min(max_edges, 3 * n), 1)))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=nedges,
            max_size=nedges,
        )
    )
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    assume(np.any(src != dst))
    if directed is None:
        directed = draw(st.booleans())
    if weighted is None:
        weighted = draw(st.booleans())
    weight = None
    if weighted:
        weight = np.array(
            draw(
                st.lists(
                    st.integers(1, max_weight),
                    min_size=nedges,
                    max_size=nedges,
                )
            ),
            dtype=np.float64,
        )
    return Graph(n, src, dst, weight, directed=directed)


@st.composite
def tiny_graphs(draw, max_n: int = 7, max_weight: int = 4) -> Graph:
    """Graphs small enough for exhaustive path enumeration oracles.

    Edges are drawn from the ordered-pair universe (no self-loops), with at
    least two distinct edges so the graph is never degenerate.
    """
    n = draw(st.integers(3, max_n))
    pairs = list(itertools.permutations(range(n), 2))
    nedges = draw(st.integers(2, min(len(pairs), 12)))
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=nedges, max_size=nedges)
    )
    src = np.array([e[0] for e in chosen], dtype=np.int64)
    dst = np.array([e[1] for e in chosen], dtype=np.int64)
    assume(len(np.unique(src * n + dst)) >= 2)
    directed = draw(st.booleans())
    weighted = draw(st.booleans())
    weight = None
    if weighted:
        weight = np.array(
            draw(
                st.lists(
                    st.integers(1, max_weight),
                    min_size=nedges,
                    max_size=nedges,
                )
            ),
            dtype=np.float64,
        )
    return Graph(n, src, dst, weight, directed=directed)


# ---------------------------------------------------------------------------
# machines, grids, specs, pipelines
# ---------------------------------------------------------------------------


@st.composite
def grids(draw, p: int | None = None, max_p: int = 8) -> np.ndarray:
    """A 2D rank layout ``ranks2d`` for ``p`` ranks (drawn when ``None``)."""
    if p is None:
        p = draw(st.integers(1, max_p))
    shapes = [(d, p // d) for d in range(1, p + 1) if p % d == 0]
    pr, pc = draw(st.sampled_from(shapes))
    perm = draw(st.permutations(range(p)))
    return np.array(perm, dtype=np.int64).reshape(pr, pc)


@st.composite
def survivor_sets(
    draw, p: int | None = None, min_p: int = 2, max_p: int = 12
) -> tuple[int, tuple[int, ...]]:
    """``(p, dead)`` — a machine size and a proper subset of failed ranks.

    At least one rank dies and at least one survives, covering the shapes
    elastic recovery must renumber (:func:`repro.machine.grid.survivor_map`):
    single failures, bursts, failures at the boundary ranks 0 and ``p-1``,
    and owner+buddy pairs.
    """
    if p is None:
        p = draw(st.integers(min_p, max_p))
    n_dead = draw(st.integers(1, p - 1))
    dead = draw(
        st.lists(
            st.integers(0, p - 1), min_size=n_dead, max_size=n_dead, unique=True
        )
    )
    return p, tuple(sorted(dead))


@st.composite
def epsilon_delta_params(draw) -> tuple[float, float]:
    """An ``(epsilon, delta)`` accuracy target for the adaptive sampler.

    Drawn from the practically relevant ranges (ε in [0.01, 1], δ in
    (0, 0.5]); both are finite and positive, so
    :func:`repro.core.approx.validate_epsilon_delta` always accepts them.
    """
    epsilon = draw(
        st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)
    )
    delta = draw(
        st.floats(0.001, 0.5, allow_nan=False, allow_infinity=False)
    )
    return float(epsilon), float(delta)


@st.composite
def sampler_states(
    draw,
    max_n: int = 10,
    max_samples: int = 12,
) -> "SamplerState":
    """A populated adaptive-sampler state (running sums in sample order).

    Vertex values are small dyadic rationals (multiples of 1/4), so sums
    and sums-of-squares are exact in binary floating point — fold-order
    and serialization round-trip properties can assert bit identity.
    The state may be empty (zero samples folded in).
    """
    from repro.core.approx import SamplerState

    n = draw(st.integers(3, max_n))
    k = draw(st.integers(0, max_samples))
    rows = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, 8), min_size=n, max_size=n),
                min_size=k,
                max_size=k,
            )
        ),
        dtype=np.float64,
    ).reshape(k, n) / 4.0
    state = SamplerState.empty(n)
    state.update(rows)
    return state


@st.composite
def pipelines(draw):
    """``(n, seed, p, ops)`` — a random program over n×n weight matrices."""
    n = draw(st.integers(6, 18))
    seed = draw(st.integers(0, 10_000))
    p = draw(st.sampled_from([2, 3, 4, 6, 8]))
    ops = draw(
        st.lists(
            st.sampled_from(["mul", "combine", "filter", "map", "transpose"]),
            min_size=1,
            max_size=5,
        )
    )
    return n, seed, p, ops
