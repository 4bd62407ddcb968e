"""Graph substrate: CSR storage, generators, I/O, Graph 500
validation and statistics."""

from repro.graph.csr import CSRGraph, coalesce_edges
from repro.graph.generators import (
    GRAPH500_PARAMS,
    RMATParams,
    balanced_tree,
    complete,
    erdos_renyi,
    watts_strogatz,
    grid2d,
    path,
    ring,
    rmat,
    rmat_edges,
    star,
    two_cliques_bridge,
)
from repro.graph.io import (
    load_edgelist,
    load_matrix_market,
    load_npz,
    save_edgelist,
    save_matrix_market,
    save_npz,
)
from repro.graph.stats import (
    GraphStats,
    compute_stats,
    estimate_rmat_params,
    graph_features,
)
from repro.graph.validate import check_bfs, validate_bfs

__all__ = [
    "CSRGraph",
    "coalesce_edges",
    "RMATParams",
    "GRAPH500_PARAMS",
    "rmat",
    "rmat_edges",
    "erdos_renyi",
    "watts_strogatz",
    "ring",
    "path",
    "star",
    "complete",
    "grid2d",
    "balanced_tree",
    "two_cliques_bridge",
    "save_npz",
    "load_npz",
    "save_edgelist",
    "load_edgelist",
    "save_matrix_market",
    "load_matrix_market",
    "GraphStats",
    "compute_stats",
    "graph_features",
    "estimate_rmat_params",
    "check_bfs",
    "validate_bfs",
]
