"""Graph substrate: representation, generators, preprocessing, and I/O.

The paper evaluates on three graph families (§7): real-world SNAP graphs,
synthetic R-MAT (power-law) graphs, and Erdős–Rényi/uniform random graphs.
This package provides all three — the SNAP graphs as scaled-down synthetic
stand-ins with matched structural character (see DESIGN.md substitutions) —
plus the preprocessing the paper applies (disconnected-vertex removal).
"""

from repro.graphs.graph import Graph
from repro.graphs.rmat import rmat_graph
from repro.graphs.random_uniform import (
    uniform_random_graph,
    uniform_random_graph_nm,
)
from repro.graphs.realworld import SNAP_STANDINS, snap_standin
from repro.graphs.preprocess import (
    largest_connected_component,
    randomize_vertex_order,
    remove_isolated_vertices,
)
from repro.graphs.weights import with_random_weights
from repro.graphs.io import read_edgelist, write_edgelist

__all__ = [
    "Graph",
    "rmat_graph",
    "uniform_random_graph",
    "uniform_random_graph_nm",
    "SNAP_STANDINS",
    "snap_standin",
    "remove_isolated_vertices",
    "largest_connected_component",
    "randomize_vertex_order",
    "with_random_weights",
    "read_edgelist",
    "write_edgelist",
]
