"""Triangle counting via masked sparse matrix multiplication.

A classic SpGEMM application: with a 0/1 adjacency matrix ``B``,
``(B²)(i,j)`` counts the 2-paths from i to j.  The product is masked by
the adjacency itself, ``C⟨B⟩ = B·B`` (the GraphBLAS formulation), so a
wedge that does not close a triangle is never formed; summing C counts
every triangle six times (ordered vertex pairs of each triangle).  Runs
through the same generalized-matmul stack as MFBC.
"""

from __future__ import annotations

from repro.algebra.semiring import REAL_PLUS_TIMES
from repro.core.engine import Engine, SequentialEngine
from repro.graphs.graph import Graph

__all__ = ["triangle_count"]

_SPEC = REAL_PLUS_TIMES.matmul_spec()


def triangle_count(graph: Graph, *, engine: Engine | None = None) -> int:
    """Number of triangles in the (undirected view of the) graph."""
    engine = engine or SequentialEngine()
    # adjacency over (+, ×) with every stored weight 1
    from repro.algebra.monoid import PlusMonoid

    plus = PlusMonoid()
    base = graph.undirected().adjacency()
    ones = engine.matrix(
        graph.n, graph.n, base.rows, base.cols, {"w": base.vals["w"] * 0 + 1.0}, plus
    )
    wedges_on_edges, _ = engine.spgemm(ones, ones, _SPEC, mask=ones)
    local = engine.gather(wedges_on_edges)
    total = float(local.vals["w"].sum()) if local.nnz else 0.0
    return int(round(total / 6.0))
