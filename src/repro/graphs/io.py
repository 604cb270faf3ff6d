"""Edge-list I/O in the SNAP text format.

Files are whitespace-separated ``src dst [weight]`` lines; ``#`` lines are
comments.  Vertex IDs need not be contiguous — they are compacted on read,
matching how SNAP datasets are customarily loaded.

:func:`read_edgelist` parses in chunks (peak memory bounded by the chunk
size plus the final arrays) and reports malformed lines as
``file:line: malformed edge line '...'``.
"""

from __future__ import annotations

import os
import re

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["read_edgelist", "write_edgelist"]

#: edges per parse chunk for the reader (bounds peak list memory)
_CHUNK_EDGES = 1 << 18
#: edges per formatting batch for the writer
_WRITE_BATCH = 1 << 16


def write_edgelist(
    g: Graph, path: str | os.PathLike, *, batch: int = _WRITE_BATCH
) -> None:
    """Write ``g`` as a SNAP-style edge list (weights included if present).

    Lines are formatted in batches of ``batch`` edges and written with one
    ``write`` call per batch (the ``np.savetxt`` strategy) instead of one
    per edge.  Weights are emitted with shortest-round-trip ``repr``
    formatting, so a read-back reproduces them bit-exactly.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    with open(path, "w") as fh:
        fh.write(f"# Nodes: {g.n} Edges: {g.m} Directed: {int(g.directed)}\n")
        for lo in range(0, g.m, batch):
            hi = min(lo + batch, g.m)
            src = g.src[lo:hi].tolist()
            dst = g.dst[lo:hi].tolist()
            if g.weight is None:
                lines = [f"{s}\t{d}" for s, d in zip(src, dst)]
            else:
                wts = g.weight[lo:hi].tolist()
                lines = [
                    f"{s}\t{d}\t{w!r}" for s, d, w in zip(src, dst, wts)
                ]
            fh.write("\n".join(lines) + "\n")


class _EdgeParser:
    """The line parser: accumulates edge chunks as compact arrays.

    Peak memory is one chunk of Python ints plus the already-frozen
    ``int64``/``float64`` arrays — never a Python list of every edge.
    """

    #: the header :func:`write_edgelist` emits (SNAP files carry a similar
    #: comment); when present, ``n`` and directedness survive a round trip
    #: even with isolated vertices
    _HEADER = re.compile(
        r"#\s*Nodes:\s*(\d+).*?(?:Directed:\s*(\d+))?\s*$"
    )

    def __init__(self, path: str, chunk_edges: int) -> None:
        self.path = path
        self.chunk_edges = chunk_edges
        self.src_parts: list[np.ndarray] = []
        self.dst_parts: list[np.ndarray] = []
        self.wt_parts: list[np.ndarray] = []
        self._srcs: list[int] = []
        self._dsts: list[int] = []
        self._wts: list[float] = []
        self.have_weights: bool | None = None
        self.edges = 0
        self.declared_n: int | None = None
        self.declared_directed: bool | None = None

    def feed(self, line: str, lineno: int) -> None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            m = self._HEADER.match(stripped)
            if m and self.declared_n is None:
                self.declared_n = int(m.group(1))
                if m.group(2) is not None:
                    self.declared_directed = bool(int(m.group(2)))
            return
        parts = stripped.split()
        if len(parts) < 2:
            raise ValueError(
                f"{self.path}:{lineno}: malformed edge line {stripped!r} "
                f"(expected 'src dst [weight]')"
            )
        try:
            s = int(parts[0])
            d = int(parts[1])
        except ValueError:
            raise ValueError(
                f"{self.path}:{lineno}: malformed edge line {stripped!r} "
                f"(endpoints must be integers)"
            ) from None
        if len(parts) >= 3:
            if self.have_weights is False:
                raise ValueError(
                    f"{self.path}:{lineno}: malformed edge line {stripped!r} "
                    f"(mixed weighted/unweighted lines: this line carries a "
                    f"weight, earlier lines do not)"
                )
            self.have_weights = True
            try:
                self._wts.append(float(parts[2]))
            except ValueError:
                raise ValueError(
                    f"{self.path}:{lineno}: malformed edge line {stripped!r} "
                    f"(weight must be a number)"
                ) from None
        else:
            if self.have_weights is True:
                raise ValueError(
                    f"{self.path}:{lineno}: malformed edge line {stripped!r} "
                    f"(mixed weighted/unweighted lines: earlier lines carry "
                    f"weights, this line does not)"
                )
            self.have_weights = False
        self._srcs.append(s)
        self._dsts.append(d)
        self.edges += 1
        if len(self._srcs) >= self.chunk_edges:
            self._freeze()

    def _freeze(self) -> None:
        if not self._srcs:
            return
        self.src_parts.append(np.asarray(self._srcs, dtype=np.int64))
        self.dst_parts.append(np.asarray(self._dsts, dtype=np.int64))
        self._srcs.clear()
        self._dsts.clear()
        if self._wts:
            self.wt_parts.append(np.asarray(self._wts, dtype=np.float64))
            self._wts.clear()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        self._freeze()
        if not self.src_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), None
        src = np.concatenate(self.src_parts)
        dst = np.concatenate(self.dst_parts)
        wts = np.concatenate(self.wt_parts) if self.wt_parts else None
        self.src_parts.clear()
        self.dst_parts.clear()
        self.wt_parts.clear()
        return src, dst, wts


def _compact_graph(
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray | None,
    *,
    directed: bool,
    name: str,
    declared_n: int | None = None,
) -> Graph:
    """Build a :class:`Graph`, compacting raw vertex IDs when necessary.

    A header-declared vertex count that covers every endpoint is trusted
    verbatim — IDs are kept and isolated vertices survive, so a
    :func:`write_edgelist` → :func:`read_edgelist` round trip is exact.
    Otherwise (SNAP-style arbitrary IDs) endpoints are compacted to
    ``0..n-1`` in sorted-ID order.
    """
    m = len(src)
    if m and declared_n is not None:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if 0 <= lo and hi < declared_n:
            return Graph(
                declared_n, src, dst, weight, directed=directed, name=name
            )
    if m:
        ids, inverse = np.unique(
            np.concatenate([src, dst]), return_inverse=True
        )
        src = inverse[:m].astype(np.int64)
        dst = inverse[m:].astype(np.int64)
        n = len(ids)
    else:
        n = declared_n or 1
    return Graph(max(n, 1), src, dst, weight, directed=directed, name=name)


def read_edgelist(
    path: str | os.PathLike,
    *,
    directed: bool | None = None,
    name: str = "",
    chunk_edges: int = _CHUNK_EDGES,
) -> Graph:
    """Read a SNAP-style edge list.

    A ``# Nodes: N ... Directed: D`` header (as written by
    :func:`write_edgelist`) fixes the vertex count and — unless ``directed``
    is passed explicitly — the directedness; without one, vertex IDs are
    compacted to ``0..n-1`` in sorted-ID order and the graph defaults to
    undirected.  A third column, when present, is parsed as the edge
    weight.  Malformed input raises :class:`ValueError` naming the file,
    line number, and offending text.
    """
    path = os.fspath(path)
    parser = _EdgeParser(path, chunk_edges)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parser.feed(line, lineno)
    src, dst, weight = parser.arrays()
    if directed is None:
        directed = bool(parser.declared_directed)
    return _compact_graph(
        src,
        dst,
        weight,
        directed=directed,
        name=name,
        declared_n=parser.declared_n,
    )
