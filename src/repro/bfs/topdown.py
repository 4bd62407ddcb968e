"""Vectorized top-down BFS (the paper's Algorithm 1).

Each level expands the adjacency lists of the current queue in one
gather, filters already-visited candidates against the parent map, and
claims each newly discovered vertex for exactly one parent.  The claim
step uses a stable first-writer rule so the produced tree matches what
the sequential reference computes level by level.

The claim is O(k) in the candidate count: candidates are scattered into
a per-vertex slot array in *reverse* order (fancy assignment applies
writes in index order, so the last write — the first occurrence in
queue order — wins), and a candidate wins iff its own position survived
the scatter.  This replaces the historical sort-based ``np.unique``
claim; both produce bit-identical parent/level maps, the scatter just
skips the ``O(k log k)`` sort.

The per-level work is exactly ``|E|cq`` adjacency inspections — the
quantity the paper's switching rule compares against ``|E| / M``.
"""

from __future__ import annotations

import numpy as np

from repro.bfs._gather import expand_rows
from repro.bfs.engine import Steps, forced, sanitizers, traverse
from repro.bfs.result import BFSResult, Direction
from repro.bfs.workspace import BFSWorkspace
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["bfs_top_down", "top_down_step", "claim_first_writer"]


def claim_first_writer(
    cand: np.ndarray,
    cand_parent: np.ndarray,
    parent: np.ndarray,
    level: np.ndarray,
    depth: int,
    workspace: BFSWorkspace | None = None,
) -> np.ndarray:
    """Claim each distinct candidate for its first proposer, in O(k).

    ``cand`` holds newly discovered vertex ids in queue order (possibly
    with duplicates), ``cand_parent`` the proposing frontier vertex per
    candidate.  Mutates ``parent``/``level`` for the winners and returns
    the sorted ``int64`` next frontier.  Equivalent to the stable
    ``np.unique(cand, return_index=True)`` claim, without the sort of
    the full candidate set.
    """
    k = cand.size
    if workspace is not None:
        slot = workspace.claim_slots()
        order = workspace.iota(k)
    else:
        slot = np.empty(parent.size, dtype=np.int64)  # repro: noqa[RPR007] — cold path, no workspace supplied
        order = np.arange(k, dtype=np.int64)  # repro: noqa[RPR007] — cold path
    # Reverse scatter: after this, slot[v] is the position of v's FIRST
    # occurrence in cand.  Only slots at candidate positions are read
    # back, so the array needs no initialization.
    slot[cand[::-1]] = order[::-1]
    win = slot[cand] == order
    winners = cand[win]
    parent[winners] = cand_parent[win]
    next_frontier = np.sort(winners).astype(np.int64, copy=False)
    level[next_frontier] = depth + 1
    return next_frontier


def top_down_step(
    graph: CSRGraph,
    frontier: np.ndarray,
    parent: np.ndarray,
    level: np.ndarray,
    depth: int,
    workspace: BFSWorkspace | None = None,
) -> tuple[np.ndarray, int]:
    """Execute one top-down level.

    Mutates ``parent``/``level`` in place for newly discovered vertices
    and returns ``(next_frontier, edges_examined)``.

    ``frontier`` must be sorted ascending for the first-writer rule to
    be deterministic (queue order = ascending vertex id within a level,
    which is how the vectorized frontier is always produced).
    """
    neighbours, owners, _ = expand_rows(graph, frontier, workspace)
    edges_examined = int(neighbours.size)
    if edges_examined == 0:
        return np.zeros(0, dtype=np.int64), 0
    fresh = parent[neighbours] < 0
    cand = neighbours[fresh]
    cand_parent = owners[fresh]
    if cand.size == 0:
        return np.zeros(0, dtype=np.int64), edges_examined
    next_frontier = claim_first_writer(
        cand, cand_parent, parent, level, depth, workspace
    )
    return next_frontier, edges_examined


def bfs_top_down(
    graph: CSRGraph,
    source: int,
    *,
    sanitize: bool = False,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> BFSResult:
    """Full top-down traversal from ``source``.

    ``sanitize=True`` runs it under the
    :class:`~repro.analysis.sanitizer.Sanitizer` (frozen CSR arrays,
    per-level invariant checks, :class:`~repro.errors.SanitizerError`
    on corruption).  ``workspace`` and ``tracer`` are as for
    :func:`~repro.bfs.engine.traverse`; levels become ``bfs.level``
    spans under a ``bfs.topdown`` root.
    """
    tr = tracer if tracer is not None else get_tracer()
    n = graph.num_vertices
    with tr.span("bfs.topdown", source=source, num_vertices=n) as root:
        result = traverse(
            graph, source, forced(Direction.TOP_DOWN),
            Steps(top_down_step, None), workspace=workspace, tracer=tr,
            observers=sanitizers(graph, source, bool(sanitize)),
        )
        root.set("levels", len(result.directions))
    return result
