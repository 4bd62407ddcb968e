"""Pure-Python reference BFS.

A deliberately simple deque-based implementation of the paper's
Algorithm 1, used as ground truth in tests (differential testing of the
vectorized kernels) and as the stand-in for the Graph 500 reference
code in the Section V-D comparison experiments.  It is the only module
allowed a per-edge Python loop.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.bfs.result import BFSResult, Direction, check_source
from repro.graph.csr import CSRGraph

__all__ = ["bfs_reference"]


def bfs_reference(graph: CSRGraph, source: int) -> BFSResult:
    """Level-synchronous top-down BFS, scalar Python.

    Parents are the first-discovering neighbour in queue order, matching
    the classical algorithm exactly; levels are canonical BFS distances.
    """
    n = graph.num_vertices
    source = check_source(source, n)
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    level[source] = 0

    offsets = graph.offsets
    targets = graph.targets
    cq: deque[int] = deque([source])
    directions: list[str] = []
    edges_examined: list[int] = []
    depth = 0
    while cq:
        nq: deque[int] = deque()
        examined = 0
        for u in cq:  # repro: noqa[RPR001] — scalar on purpose: ground truth
            for j in range(offsets[u], offsets[u + 1]):  # repro: noqa[RPR001]
                examined += 1
                v = int(targets[j])
                if parent[v] < 0:
                    parent[v] = u
                    level[v] = depth + 1
                    nq.append(v)
        directions.append(Direction.TOP_DOWN)
        edges_examined.append(examined)
        cq = nq
        depth += 1
    return BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=directions,
        edges_examined=edges_examined,
    )
