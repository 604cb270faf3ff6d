"""repro — Maximal Frontier Betweenness Centrality (MFBC).

A production-quality reproduction of *"Scaling Betweenness Centrality using
Communication-Efficient Sparse Matrix Multiplication"* (Solomonik, Besta,
Vella, Hoefler — SC'17): the monoid-based MFBC algorithm, a mini-CTF
distributed sparse-matrix substrate with the full §5.2 SpGEMM algorithm
space and model-driven selection, a simulated α-β distributed machine, and
the paper's baselines (Brandes, CombBLAS-style BC).

Quickstart
----------
>>> from repro import rmat_graph, betweenness_centrality
>>> g = rmat_graph(scale=10, avg_degree=8, seed=0)
>>> scores = betweenness_centrality(g)

Distributed (simulated) execution:

>>> from repro import Machine, DistributedEngine, mfbc
>>> machine = Machine(p=16)
>>> result = mfbc(g, engine=DistributedEngine(machine))
>>> machine.ledger.snapshot()          # critical-path words/messages/time
"""

from repro.algebra import (
    CENTPATH,
    MAX_MIN,
    MULTPATH,
    REAL_PLUS_TIMES,
    TROPICAL,
    MatMulSpec,
    Monoid,
    Semiring,
    SemiringAction,
    bellman_ford_action,
    brandes_action,
    left_project,
)
from repro.analysis import (
    edge_weak_scaling,
    model_run,
    mteps,
    mteps_per_node,
    strong_scaling,
    vertex_weak_scaling,
)
from repro.baselines import brandes_bc, combblas_bc
from repro.apps import (
    bfs_levels,
    connected_components,
    sssp_distances,
    triangle_count,
)
from repro.check import (
    CheckConfig,
    CheckedEngine,
    CheckError,
    CheckFailure,
    Violation,
    check_distmat,
    check_ledger,
    check_matrix,
    check_spmat,
    resolve_check_config,
)
from repro.core import (
    Engine,
    MFBCResult,
    SequentialEngine,
    approximate_bc,
    betweenness_centrality,
    ca_mfbc,
    edge_betweenness_centrality,
    mfbc,
    mfbf,
    mfbr,
)
from repro.dist import DistMat, DistributedEngine
from repro.elastic import RecoveryError, RecoveryReport, resolve_elastic
from repro.faults import (
    CheckpointStore,
    CorruptCheckpoint,
    CorruptPayload,
    DeadlineExceeded,
    FaultError,
    FaultEvent,
    FaultPlan,
    JsonCheckpointStore,
    MemoryCheckpointStore,
    NpzCheckpointStore,
    RankFailure,
    resolve_checkpoint_store,
    resolve_fault_plan,
)
from repro.graphs import (
    Graph,
    read_edgelist,
    rmat_graph,
    snap_standin,
    uniform_random_graph,
    uniform_random_graph_nm,
    with_random_weights,
    write_edgelist,
)
from repro.machine import (
    CostParams,
    LocalExecutor,
    Machine,
)
from repro import obs
from repro.sparse import SpGemmResult, SpMat, count_ops, spgemm
from repro.spgemm import (
    AutoPolicy,
    PinnedPolicy,
    Plan,
    Square2DPolicy,
)

__version__ = "1.0.0"

__all__ = [
    # algebra
    "Monoid",
    "Semiring",
    "MatMulSpec",
    "MULTPATH",
    "CENTPATH",
    "TROPICAL",
    "REAL_PLUS_TIMES",
    "MAX_MIN",
    "SemiringAction",
    "bellman_ford_action",
    "brandes_action",
    "left_project",
    # sparse
    "SpMat",
    "spgemm",
    "SpGemmResult",
    "count_ops",
    # core
    "mfbc",
    "mfbf",
    "mfbr",
    "betweenness_centrality",
    "edge_betweenness_centrality",
    "approximate_bc",
    "ca_mfbc",
    "MFBCResult",
    "Engine",
    "SequentialEngine",
    # apps
    "bfs_levels",
    "sssp_distances",
    "connected_components",
    "triangle_count",
    # machine / dist
    "Machine",
    "CostParams",
    "DistMat",
    "DistributedEngine",
    "LocalExecutor",
    # observability
    "obs",
    # correctness checking
    "CheckConfig",
    "CheckedEngine",
    "CheckError",
    "CheckFailure",
    "Violation",
    "check_spmat",
    "check_distmat",
    "check_ledger",
    "check_matrix",
    "resolve_check_config",
    # fault injection + tolerance
    "FaultPlan",
    "FaultEvent",
    "FaultError",
    "RankFailure",
    "CorruptPayload",
    "DeadlineExceeded",
    "resolve_fault_plan",
    "CheckpointStore",
    "CorruptCheckpoint",
    "MemoryCheckpointStore",
    "JsonCheckpointStore",
    "NpzCheckpointStore",
    "resolve_checkpoint_store",
    # elastic recovery
    "resolve_elastic",
    "RecoveryError",
    "RecoveryReport",
    # spgemm plans
    "Plan",
    "AutoPolicy",
    "PinnedPolicy",
    "Square2DPolicy",
    # graphs
    "Graph",
    "rmat_graph",
    "uniform_random_graph",
    "uniform_random_graph_nm",
    "snap_standin",
    "with_random_weights",
    "read_edgelist",
    "write_edgelist",
    # baselines
    "brandes_bc",
    "combblas_bc",
    # analysis
    "mteps",
    "mteps_per_node",
    "model_run",
    "strong_scaling",
    "edge_weak_scaling",
    "vertex_weak_scaling",
    "__version__",
]
