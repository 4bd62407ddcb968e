"""Pseudo-diameter estimation by double sweep.

The R-MAT analysis in the paper leans on the graphs' tiny diameter
("Θ(D) is extremely small", Section III-A).  This module measures it:
the classic double-sweep lower bound (BFS to the farthest vertex, then
BFS from there) plus an optional multi-sweep refinement, all on the
hybrid engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.hybrid import DEFAULT_M, DEFAULT_N, bfs_hybrid
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph

__all__ = ["DiameterEstimate", "pseudo_diameter"]


@dataclass(frozen=True)
class DiameterEstimate:
    """Lower bound on a graph's diameter from sweep search."""

    lower_bound: int
    endpoint_a: int
    endpoint_b: int
    sweeps: int

    def __int__(self) -> int:
        return self.lower_bound


def pseudo_diameter(
    graph: CSRGraph,
    start: int = 0,
    *,
    sweeps: int = 4,
    m: float = DEFAULT_M,
    n: float = DEFAULT_N,
) -> DiameterEstimate:
    """Estimate the diameter of ``start``'s component.

    Alternating sweeps: BFS from the current endpoint, jump to the
    farthest vertex found (ties broken toward the lowest degree, which
    empirically pushes toward the periphery), repeat until the
    eccentricity stops growing or ``sweeps`` is exhausted.  The result
    is an exact lower bound on the true diameter.
    """
    if not 0 <= start < graph.num_vertices:
        raise BFSError(
            f"start {start} out of range [0, {graph.num_vertices})"
        )
    if sweeps < 1:
        raise BFSError(f"sweeps must be >= 1, got {sweeps}")

    best = -1
    a = b = start
    current = start
    used = 0
    degrees = graph.degrees
    # One workspace for all sweeps: each sweep's level map is consumed
    # (eccentricity + farthest set) before the next traversal reuses it.
    ws = BFSWorkspace.for_graph(graph)
    for used in range(1, sweeps + 1):
        result = bfs_hybrid(graph, current, m=m, n=n, workspace=ws)
        ecc = result.num_levels - 1
        if ecc <= best:
            break
        best = ecc
        a, current_prev = current, current
        # Farthest vertices; prefer low degree (peripheral).
        far = np.nonzero(result.level == ecc)[0]
        b = int(far[np.argmin(degrees[far])])
        current = b
        a = current_prev
    return DiameterEstimate(
        lower_bound=max(best, 0), endpoint_a=a, endpoint_b=b, sweeps=used
    )
