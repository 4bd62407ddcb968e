"""Connected components via repeated direction-optimizing BFS.

A downstream application of the paper's kernel: label every vertex with
its component by sweeping BFS from each unvisited seed.  The hybrid
engine makes the big components cheap (bottom-up middle levels) while
tiny fragments cost a couple of top-down steps each — the same
asymmetry the paper exploits, applied across components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.engine import run_level
from repro.bfs.hybrid import (
    DEFAULT_M,
    DEFAULT_N,
    SCAN,
    DirectionPolicy,
    LevelState,
    MNPolicy,
)
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph

__all__ = ["ComponentLabels", "connected_components"]


@dataclass(frozen=True)
class ComponentLabels:
    """Result of a components run.

    ``labels[v]`` is the component id of vertex ``v`` (ids are dense,
    assigned in discovery order, so label 0 is the component of the
    lowest-numbered vertex).
    """

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def num_components(self) -> int:
        """Number of connected components (isolated vertices count)."""
        return int(self.sizes.size)

    def giant(self) -> int:
        """Label of the largest component."""
        if self.sizes.size == 0:
            raise BFSError("empty graph has no components")
        return int(np.argmax(self.sizes))

    def giant_fraction(self) -> float:
        """Fraction of vertices inside the largest component."""
        total = int(self.sizes.sum())
        if total == 0:
            return 0.0
        return float(self.sizes.max() / total)


def connected_components(
    graph: CSRGraph,
    policy: DirectionPolicy | None = None,
    *,
    workspace: BFSWorkspace | None = None,
) -> ComponentLabels:
    """Label connected components of a symmetric graph.

    Runs a shared-state level-synchronous sweep: the parent map doubles
    as the visited set across seeds, so total work stays O(V + E)
    regardless of component count.  ``policy`` defaults to the (M, N)
    rule at the default switching point.  A passed-in ``workspace`` supplies
    every graph-sized scratch array (its parent/level maps are used as
    the shared visited state and left holding the final forest).
    """
    if not graph.symmetric:
        raise BFSError(
            "connected_components requires a symmetric (undirected) graph"
        )
    n = graph.num_vertices
    policy = policy or MNPolicy(DEFAULT_M, DEFAULT_N)
    degrees = graph.degrees
    nedges = max(graph.num_edges, 1)

    ws = workspace if workspace is not None else BFSWorkspace(n)
    # The visited state is shared across seeds, so the per-source
    # begin() reset does not apply: clear the maps once and stamp seeds
    # by hand.
    parent, level = ws.parent, ws.level
    parent.fill(-1)
    level.fill(-1)
    ws.clear_frontier()
    ws.invalidate_unvisited()

    labels = np.full(n, -1, dtype=np.int64)
    sizes: list[int] = []
    visited = 0

    # Seeds in ascending order; big components get swallowed whole by
    # the first of their vertices encountered.  The cursor only moves
    # forward, so seed selection is O(V) across the whole run instead
    # of O(V) per component.
    cursor = 0
    while cursor < n:
        if labels[cursor] >= 0:
            cursor += 1
            continue
        seed = cursor
        comp = len(sizes)
        labels[seed] = comp
        parent[seed] = seed
        level[seed] = 0
        visited += 1
        # The seed stamp is a claim: keep the live unvisited list honest
        # before the next bottom-up level trusts it.
        ws.retire_claimed(parent)
        frontier = np.array([seed], dtype=np.int64)
        count = 1
        depth = 0
        while frontier.size:
            fe = int(degrees[frontier].sum())
            state = LevelState(
                depth, int(frontier.size), fe, n, nedges, n - visited
            )
            frontier, _ = run_level(
                graph, policy.direction(state), SCAN, frontier, parent,
                level, depth, ws,
            )
            ws.retire_claimed(parent)
            labels[frontier] = comp
            count += int(frontier.size)
            visited += int(frontier.size)
            depth += 1
        sizes.append(count)
        cursor = seed + 1
    return ComponentLabels(
        labels=labels, sizes=np.array(sizes, dtype=np.int64)
    )
