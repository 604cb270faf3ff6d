"""Shared fixtures and helpers for the test suite.

Hypothesis settings are consolidated here into named profiles (the
per-file ``@settings`` decorators are gone — see docs/testing.md):

* ``ci`` (default) — ``deadline=None`` (CI machines stall unpredictably),
  ``derandomize=True`` (a red CI run must be reproducible), 50 examples;
* ``dev`` — randomized exploration for local bug-hunting, 50 examples;
* ``thorough`` — randomized, 300 examples, for occasional deep sweeps.

Select with ``HYPOTHESIS_PROFILE=dev pytest ...``.  Individual tests may
still override ``max_examples`` where an example is unusually expensive
(never the deadline or derandomization).

The compiled path kernel's loader (:mod:`repro.sparse._native`) is pointed at
a session temporary directory, so the suite builds its library once there and
never writes into the user's cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

import numpy as np
import pytest
from hypothesis import settings

from repro.check.strategies import WEIGHT_MONOID, random_weight_spmat
from repro.graphs import Graph, uniform_random_graph_nm, with_random_weights
from repro.sparse import _native
from repro.sparse import dispatch

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=50)
settings.register_profile("dev", deadline=None, max_examples=50)
settings.register_profile("thorough", deadline=None, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: re-exported so existing ``from conftest import ...`` users keep working;
#: the canonical home is :mod:`repro.check.strategies`.
WEIGHT = WEIGHT_MONOID

__all__ = [
    "KERNELS",
    "WEIGHT",
    "assert_bits",
    "assert_fired",
    "kernel",
    "ruled",
    "random_weight_spmat",
]

#: the two routes a local product can take (see :func:`kernel`)
KERNELS = ("generic", "auto")


@contextlib.contextmanager
def kernel(mode: str):
    """Run the block's products through ``mode``'s route.

    ``"auto"`` is what every run does.  Under ``"generic"`` the dispatch tier
    declines every product, as it does for the path kernel on a host
    without a compiler, so each one takes the oracle's bits.  A test seam,
    not a setting: nothing a user can configure reaches it.
    """
    with pytest.MonkeyPatch.context() as patch:
        if mode == "generic":
            patch.setattr(dispatch, "dispatch_spgemm", lambda *a, **k: None)
        yield


def assert_bits(got, want) -> None:
    """Same shape, coordinates and value bytes (``-0.0`` is not ``+0.0``)."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.cols, want.cols)
    assert got.vals.keys() == want.vals.keys()
    for name, col in want.vals.items():
        assert got.vals[name].dtype == col.dtype
        assert got.vals[name].tobytes() == col.tobytes()


def ruled(spec, rule: str = "complement"):
    """``spec``'s operator under the mask rule ``rule``."""
    return spec if spec.mask_rule == rule else dataclasses.replace(spec, mask_rule=rule)


def assert_fired(machine) -> None:
    """Every scripted one-shot of ``machine``'s fault plan fired.  A fault
    scripted at a step the run never reaches leaves the test fault-free, so
    each test that scripts one asserts it landed."""
    unfired = machine.faults.unfired()
    assert not unfired, f"scripted faults never fired: {unfired}"


def park(service, source: int = 0) -> str:
    """Submit ``bc_source`` at ``source`` and wait until the dispatcher has
    taken it off the queue; returns its id.  Under ``service._exec_lock``
    the dispatcher then waits with that query outside the queue, so the
    queries submitted next stay queued: they are what fills it."""
    qid = service.submit("bc_source", source=source)
    deadline = time.monotonic() + 30.0
    while len(service.coalescer) and time.monotonic() < deadline:
        time.sleep(0.002)
    assert not len(service.coalescer), "the dispatcher never took the query"
    return qid


@pytest.fixture(autouse=True, scope="session")
def _pathsum_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:  # the environment: child processes too
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        _native._library.cache_clear()
        yield
    _native._library.cache_clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_undirected() -> Graph:
    return uniform_random_graph_nm(40, 4.0, seed=1)


@pytest.fixture
def small_directed() -> Graph:
    return uniform_random_graph_nm(40, 4.0, directed=True, seed=2)


@pytest.fixture
def small_weighted() -> Graph:
    g = uniform_random_graph_nm(40, 4.0, seed=3)
    return with_random_weights(g, 1, 10, seed=3)


@pytest.fixture
def small_weighted_directed() -> Graph:
    g = uniform_random_graph_nm(40, 4.0, directed=True, seed=4)
    return with_random_weights(g, 1, 10, seed=4)


@pytest.fixture
def path_graph() -> Graph:
    """0 - 1 - 2 - 3 - 4: every interior vertex has a known BC."""
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 4])
    return Graph(5, src, dst)


@pytest.fixture
def diamond_graph() -> Graph:
    """0 - {1, 2} - 3: two equal shortest paths, σ̄(0,3) = 2."""
    src = np.array([0, 0, 1, 2])
    dst = np.array([1, 2, 3, 3])
    return Graph(4, src, dst)


def nx_reference_bc(graph: Graph) -> np.ndarray:
    """Ordered-pair betweenness centrality via networkx (the oracle)."""
    import networkx as nx

    ref = nx.betweenness_centrality(
        graph.to_networkx(),
        normalized=False,
        weight="weight" if graph.weighted else None,
    )
    scores = np.array([ref[i] for i in range(graph.n)])
    return scores if graph.directed else 2.0 * scores
