"""BFS as sparse matrix–vector multiplication (Section III-B).

The paper frames BFS as ``y = A x``: ``x`` the current-queue indicator,
``A`` the adjacency matrix, ``y > 0`` the next queue — the framing that
grounds its RCMA bottleneck analysis.  This module provides that
formulation executably on :mod:`scipy.sparse`, as a third independent
BFS implementation for differential testing and as the basis of the
roofline numbers in :mod:`repro.arch.roofline`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.bfs.result import BFSResult, Direction, check_source
from repro.errors import BFSError
from repro.graph.csr import CSRGraph

__all__ = ["adjacency_matrix", "bfs_spmv", "spmv_flops", "spmv_bytes"]


def adjacency_matrix(graph: CSRGraph) -> sp.csr_matrix:
    """The graph's adjacency matrix as a SciPy CSR matrix.

    Zero-copy on the adjacency structure: the CSR arrays are frozen at
    construction, so they are handed to SciPy without defensive copies
    — ``indices`` aliases the graph's ``targets`` (the ``O(E)`` array;
    SciPy keeps it as a read-only view), while SciPy canonicalizes
    ``indptr`` to its own index dtype (an ``O(V)`` cast it owns).  The
    matrix's ``indices`` therefore stay **read-only**; callers that
    need to mutate structure must copy first.  Adjacency lists are
    sorted within each row, so ``has_sorted_indices`` is declared up
    front — SciPy would otherwise try to sort (i.e. write) the aliased
    array on first use.
    """
    n = graph.num_vertices
    data = np.ones(graph.targets.size, dtype=np.int8)
    mat = sp.csr_matrix(
        (data, graph.targets, graph.offsets), shape=(n, n)
    )
    mat.has_sorted_indices = True
    return mat


def bfs_spmv(graph: CSRGraph, source: int) -> BFSResult:
    """Level-synchronous BFS where each level is one SpMV.

    Produces the same level map as the other engines; parents are
    assigned by a minimum-parent-id rule (any shortest-path tree is a
    valid BFS tree, and validation accepts it).
    """
    n = graph.num_vertices
    source = check_source(source, n)
    # Transpose so y[v] accumulates over in-edges; for the symmetric
    # graphs of the paper A == A^T and this is a no-op in structure.
    at = adjacency_matrix(graph).T.tocsr()

    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    level[source] = 0

    x = np.zeros(n, dtype=np.int8)
    x[source] = 1
    visited = np.zeros(n, dtype=bool)
    visited[source] = True

    directions: list[str] = []
    edges_examined: list[int] = []
    depth = 0
    frontier = np.array([source], dtype=np.int64)
    degrees = graph.degrees
    while frontier.size:
        y = at @ x
        fresh = (y > 0) & ~visited
        next_frontier = np.nonzero(fresh)[0].astype(np.int64)
        directions.append(Direction.TOP_DOWN)
        edges_examined.append(int(degrees[frontier].sum()))
        if next_frontier.size:
            visited[next_frontier] = True
            level[next_frontier] = depth + 1
            parent[next_frontier] = _min_parent(graph, next_frontier, x)
        x.fill(0)
        x[next_frontier] = 1
        frontier = next_frontier
        depth += 1
    return BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=directions,
        edges_examined=edges_examined,
    )


def _min_parent(
    graph: CSRGraph, vertices: np.ndarray, in_prev: np.ndarray
) -> np.ndarray:
    """For each vertex, the smallest-id neighbour in the previous level."""
    from repro.bfs._gather import expand_rows, segment_first_true

    neighbours, _, seg_starts = expand_rows(graph, vertices)
    hits = in_prev[neighbours] > 0
    # Adjacency lists are sorted ascending, so the first hit is the
    # minimum-id hit.
    first = segment_first_true(hits, seg_starts)
    if (first < 0).any():
        raise BFSError("SpMV frontier vertex has no parent in previous level")
    return neighbours[first].astype(np.int64)


def spmv_flops(n: int) -> int:
    """Operations to compute a dense ``n × n`` matrix–vector product:
    ``n`` rows of ``n`` multiplies and ``n - 1`` adds (the paper's RCMA
    numerator)."""
    if n <= 0:
        raise BFSError(f"n must be positive, got {n}")
    return n * (2 * n - 1)


def spmv_bytes(n: int, element_bytes: int = 4) -> int:
    """Bytes fetched for the dense product: the matrix plus the vector
    (the paper's RCMA denominator)."""
    if n <= 0:
        raise BFSError(f"n must be positive, got {n}")
    return element_bytes * (n * n + n)
