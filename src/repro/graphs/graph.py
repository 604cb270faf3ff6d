"""The :class:`Graph` container used throughout the library.

A graph is a vertex count, a directedness flag, and parallel edge arrays
``(src, dst, weight)``.  Undirected graphs store each edge once; adjacency
accessors materialize both orientations.  The adjacency matrix follows the
paper's convention ``A(i,j) = w(i,j)`` for edges and ``∞`` (i.e. unstored
under the tropical monoid) otherwise; the diagonal is never stored —
self-loops are irrelevant to shortest paths and are dropped on construction.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.monoid import MinMonoid, run_starts, stable_key_sort
from repro.sparse.spmatrix import SpMat
from repro.utils.validation import check_positive_int

__all__ = ["Graph"]

#: Shared single-field monoid for adjacency matrices (tropical weights).
WEIGHT_MONOID = MinMonoid()


class Graph:
    """An edge-list graph with optional weights.

    Parameters
    ----------
    n:
        Number of vertices (labeled ``0 .. n-1``).
    src, dst:
        Edge endpoint arrays.  For undirected graphs each edge appears once
        (orientation arbitrary).
    weight:
        Edge weights (positive); ``None`` means unweighted (all 1.0).
    directed:
        Edge interpretation.
    name:
        Optional label used in reports.
    """

    __slots__ = (
        "n", "src", "dst", "weight", "directed", "name",
        "_unweighted", "_undirected", "_adjacency",
    )

    def __init__(
        self,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray | None = None,
        *,
        directed: bool = False,
        name: str = "",
    ) -> None:
        check_positive_int(n, "n")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if len(src) and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ValueError("edge endpoint out of range")
        if weight is not None:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != src.shape:
                raise ValueError("weight length mismatch")
            if len(weight) and not np.all(weight > 0):
                # also rejects NaN (NaN > 0 is False) and ±inf via the
                # finite check below
                raise ValueError("edge weights must be positive")
            if len(weight) and not np.all(np.isfinite(weight)):
                raise ValueError("edge weights must be finite")

        # Drop self-loops, then deduplicate (keeping the minimum weight for
        # parallel edges, the shortest-path-relevant one).
        keep = src != dst
        src, dst = src[keep], dst[keep]
        w = weight[keep] if weight is not None else None
        if not directed:
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi
        key = src * np.int64(n) + dst
        key, order = stable_key_sort(key)
        src, dst = src[order], dst[order]
        if w is not None:
            w = w[order]
        starts = run_starts(key)
        if len(starts) != len(key):
            if w is not None:
                w = np.minimum.reduceat(w, starts) if len(w) else w
            src = src[starts]
            dst = dst[starts]

        self.n = int(n)
        self.src = src
        self.dst = dst
        self.weight = w
        self.directed = bool(directed)
        self.name = name
        self._unweighted = None
        self._undirected = None
        self._adjacency: SpMat | None = None

    # -- basic properties ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of stored edges (undirected edges counted once)."""
        return len(self.src)

    @property
    def weighted(self) -> bool:
        return self.weight is not None

    @property
    def nnz_adjacency(self) -> int:
        """Stored entries in the adjacency matrix (2m when undirected)."""
        return self.m if self.directed else 2 * self.m

    def edge_weights(self) -> np.ndarray:
        """Weights array (all ones when unweighted)."""
        if self.weight is not None:
            return self.weight
        return np.ones(self.m, dtype=np.float64)

    def degrees(self) -> np.ndarray:
        """Out-degree per vertex for directed graphs, degree otherwise."""
        deg = np.bincount(self.src, minlength=self.n)
        if not self.directed:
            deg = deg + np.bincount(self.dst, minlength=self.n)
        return deg

    def average_degree(self) -> float:
        return float(self.degrees().mean()) if self.n else 0.0

    def max_degree(self) -> int:
        deg = self.degrees()
        return int(deg.max()) if len(deg) else 0

    # -- adjacency views -------------------------------------------------------

    def _both_directions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w = self.edge_weights()
        if self.directed:
            return self.src, self.dst, w
        return (
            np.concatenate([self.src, self.dst]),
            np.concatenate([self.dst, self.src]),
            np.concatenate([w, w]),
        )

    def adjacency(self) -> SpMat:
        """The adjacency matrix over the tropical weight monoid, built on
        first use and kept (as :meth:`undirected`), so every engine, batch
        and elastic rebuild shares one matrix and its memoized transpose.

        Canonical by construction: the edge list is sorted by ``(src, dst)``,
        unique, loop-free and weighted positive, so a directed graph's
        triples are the matrix as they stand, and an undirected graph's two
        orientations are disjoint parts of one :meth:`SpMat._merged` (one
        key sort, nothing to fold) — a symmetric matrix, its own transpose.
        """
        if self._adjacency is None:
            w = {"w": self.edge_weights()}
            if self.directed:
                adj = SpMat(
                    self.n, self.n, self.src, self.dst, w, WEIGHT_MONOID, canonical=True
                )
            else:
                adj = SpMat._merged(
                    self.n,
                    self.n,
                    [(self.src, self.dst, w), (self.dst, self.src, w)],
                    WEIGHT_MONOID,
                )
                adj._symmetric = True
            self._adjacency = adj
        return self._adjacency

    def adjacency_scipy(self, transpose: bool = False):
        """CSR adjacency with weight data (a ``scipy.sparse.csr_matrix``, for
        the scipy-based baselines and graph statistics).

        Unstored entries are *absent*, not ∞; callers must not interpret
        explicit zeros (there are none — weights are positive).
        """
        # imported here: scipy.sparse (and csgraph, below) would add to every
        # run's start-up time and memory, yet only the oracles and graph
        # statistics need it, after a run
        import scipy.sparse

        r, c, w = self._both_directions()
        if transpose:
            r, c = c, r
        return scipy.sparse.csr_matrix((w, (r, c)), shape=(self.n, self.n))

    def to_networkx(self):
        """Convert to a networkx graph (weights as the ``weight`` attribute)."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.n))
        w = self.edge_weights()
        g.add_weighted_edges_from(
            zip(self.src.tolist(), self.dst.tolist(), w.tolist())
        )
        return g

    # -- transformations -------------------------------------------------------

    def unweighted(self) -> "Graph":
        """This graph with weights dropped: itself when it has none, else one
        view built on first use (so an engine pinning its adjacency sees the
        same graph on every call)."""
        if self.weight is None:
            return self
        if self._unweighted is None:
            self._unweighted = Graph(
                self.n, self.src, self.dst, None, directed=self.directed, name=self.name
            )
        return self._unweighted

    def undirected(self) -> "Graph":
        """The underlying undirected graph: itself when undirected, else one
        view built on first use (as :meth:`unweighted`), where an edge
        stored in both orientations keeps its smaller weight."""
        if not self.directed:
            return self
        if self._undirected is None:
            self._undirected = Graph(
                self.n, self.src, self.dst, self.weight, directed=False, name=self.name
            )
        return self._undirected

    def reversed(self) -> "Graph":
        """Edge-reversed graph (no-op for undirected)."""
        if not self.directed:
            return self
        return Graph(
            self.n,
            self.dst,
            self.src,
            self.weight,
            directed=True,
            name=self.name,
        )

    # -- metrics ----------------------------------------------------------------

    def effective_diameter(
        self, percentile: float = 0.9, samples: int = 16, seed: int | None = 0
    ) -> float:
        """Approximate ``percentile`` effective diameter via sampled BFS.

        Matches the 90-percentile effective diameter column ``d̄`` of the
        paper's Table 2 (computed on hop counts, ignoring weights).
        """
        from scipy.sparse import csgraph  # off the start-up path (adjacency_scipy)

        from repro.utils.rng import as_rng

        if self.m == 0:
            return 0.0
        adj = self.adjacency_scipy()
        rng = as_rng(seed)
        sources = rng.choice(self.n, size=min(samples, self.n), replace=False)
        hops = csgraph.shortest_path(
            adj, method="D", unweighted=True, indices=sources, directed=self.directed
        )
        finite = hops[np.isfinite(hops)]
        finite = finite[finite > 0]
        if len(finite) == 0:
            return 0.0
        return float(np.quantile(finite, percentile))

    def diameter_hops(self, exact_limit: int = 2000, seed: int | None = 0) -> int:
        """Hop diameter of the (largest reachable part of the) graph.

        Exact for graphs up to ``exact_limit`` vertices; otherwise a sampled
        lower bound (sufficient for reports — Table 2's ``d`` column).
        """
        from scipy.sparse import csgraph  # off the start-up path (adjacency_scipy)

        if self.m == 0:
            return 0
        adj = self.adjacency_scipy()
        if self.n <= exact_limit:
            hops = csgraph.shortest_path(
                adj, unweighted=True, directed=self.directed
            )
        else:
            from repro.utils.rng import as_rng

            rng = as_rng(seed)
            sources = rng.choice(self.n, size=32, replace=False)
            hops = csgraph.shortest_path(
                adj, unweighted=True, indices=sources, directed=self.directed
            )
        finite = hops[np.isfinite(hops)]
        return int(finite.max()) if len(finite) else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.weighted else "unweighted"
        label = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.m}, {kind}, {w}{label})"
