"""Instrumented BFS producing a :class:`~repro.bfs.trace.LevelProfile`.

One traversal, full counters for **both** directions at every level:

* the top-down work at level ℓ is ``|E|cq`` (degree mass of the
  frontier) — recorded whether or not top-down ran;
* the bottom-up work is the early-terminating edges-checked count,
  which depends only on which vertices are unvisited and which are in
  the frontier — both functions of the level sets, so it is computed
  *counterfactually* with the same segmented kernel the real bottom-up
  uses.

Everything downstream (cost models, switching-point search, the
heterogeneous planner) consumes profiles instead of re-running BFS.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import _row_scan
from repro.bfs.engine import LevelObserver, Steps, forced, traverse
from repro.bfs.result import BFSResult, Direction
from repro.bfs.topdown import top_down_step
from repro.bfs.trace import LevelProfile, LevelRecord
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["profile_bfs", "pick_sources"]


class _Counterfactual(LevelObserver):
    """Both directions' counters at every level of a top-down run."""

    def __init__(self, graph: CSRGraph, workspace: BFSWorkspace) -> None:
        self.graph = graph
        self.workspace = workspace
        self.records: list[LevelRecord] = []
        self._counters: dict = {}

    def before_level(self, state, frontier, parent, level, span) -> None:
        # The profile's unvisited counters include zero-degree vertices
        # (they are part of |V|un), so this full scan stays — it feeds
        # the record, not the kernel.
        unvisited = np.nonzero(parent < 0)[0]  # repro: noqa[RPR007] — profile counters, not a kernel
        mask = self.workspace.load_frontier(frontier)
        checked, failed = _bottom_up_checked(
            self.graph, unvisited, mask, self.workspace
        )
        span.set("bu_edges_checked", checked)
        self._counters = dict(
            level=state.depth,
            frontier_vertices=state.frontier_vertices,
            frontier_edges=state.frontier_edges,
            unvisited_vertices=int(unvisited.size),
            unvisited_edges=int(self.graph.degrees[unvisited].sum()),
            bu_edges_checked=checked,
            bu_edges_failed=failed,
        )

    def after_level(self, depth, frontier, next_frontier, parent, level,
                    *, in_frontier=None) -> None:
        claimed = int(next_frontier.size)
        self.records.append(LevelRecord(claimed=claimed, **self._counters))


def profile_bfs(
    graph: CSRGraph,
    source: int,
    *,
    max_levels: int | None = None,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> tuple[LevelProfile, BFSResult]:
    """Run an instrumented traversal from ``source``.

    Returns the level profile and the (top-down-computed) BFS result.
    ``max_levels`` guards pathological graphs (e.g. long paths) when only
    the head of the profile is needed.

    ``tracer`` overrides the process-global tracer: levels become
    ``bfs.level`` spans under a ``bfs.profile`` root, also carrying the
    counterfactual ``bu_edges_checked``.
    """
    tr = tracer if tracer is not None else get_tracer()
    n = graph.num_vertices
    ws = workspace if workspace is not None else BFSWorkspace(n)
    counters = _Counterfactual(graph, ws)
    with tr.span("bfs.profile", source=source, num_vertices=n) as root:
        result = traverse(
            graph, source, forced(Direction.TOP_DOWN),
            Steps(top_down_step, None), workspace=ws, tracer=tr,
            observers=(counters,), max_levels=max_levels,
        )
        root.set("levels", len(result.directions))
    profile = LevelProfile(
        source=result.source,
        num_vertices=n,
        num_edges=graph.num_edges,
        records=tuple(counters.records),
    )
    return profile, result


def _bottom_up_checked(
    graph: CSRGraph,
    unvisited: np.ndarray,
    in_frontier: np.ndarray,
    workspace: BFSWorkspace | None = None,
) -> tuple[int, int]:
    """Edges a bottom-up sweep would inspect, with early termination.

    Returns ``(total_checked, failed_checked)`` where the failed portion
    belongs to vertices that found no parent this level.  Runs the
    real kernel's growing-window row scan, so the counts match what an
    actual bottom-up level would report.
    """
    if unvisited.size == 0:
        return 0, 0
    deg = graph.degrees[unvisited]
    nz = deg > 0
    if not nz.all():
        unvisited = unvisited[nz]
        deg = deg[nz]
    if unvisited.size == 0:
        return 0, 0
    starts = graph.offsets[unvisited]
    found, _, total = _row_scan(
        graph,
        unvisited,
        deg,
        starts,
        in_frontier,
        workspace=workspace,
    )
    # A vertex that finds no parent inspects its whole adjacency list.
    failed = int(deg[~found].sum())
    return total, failed


def pick_sources(
    graph: CSRGraph,
    count: int,
    *,
    seed: int | np.random.Generator = 0,
    min_degree: int = 1,
) -> np.ndarray:
    """Sample BFS roots the Graph 500 way: uniformly among vertices with
    at least ``min_degree`` edges (isolated roots make degenerate
    searches).  An integer ``seed`` must be non-negative."""
    if count < 0:
        raise BFSError(f"count must be non-negative, got {count}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise BFSError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    eligible = np.nonzero(graph.degrees >= min_degree)[0]
    if eligible.size == 0:
        raise BFSError("graph has no vertex meeting the degree floor")
    replace = eligible.size < count
    return rng.choice(eligible, size=count, replace=replace).astype(np.int64)
