"""The BFS level loop, written once.

Each level runs Algorithm 1 (top-down) or Algorithm 2 (bottom-up) as a
policy decides; :func:`traverse` is the only loop that makes that
choice.  Every single-source engine except the two oracles is a thin
call into it with a policy (:class:`DirectionPolicy`), a steps table
of per-direction level kernels (:class:`Steps`) and observers
(:class:`LevelObserver`).  The driver owns the source check, the
workspace reset, the decision and its ``bfs.direction`` instant, one
``bfs.level`` span per level, the bottom-up frontier-mask and
unvisited-list loading (:func:`run_level`), the traversal counters and
the result; see ``docs/api.md``, "Traverse".
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.bfs.result import BFSResult, Direction, check_source
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "AlwaysBottomUp",
    "AlwaysTopDown",
    "DirectionPolicy",
    "LevelObserver",
    "LevelState",
    "Steps",
    "forced",
    "run_level",
    "sanitizers",
    "traverse",
]


@dataclass(frozen=True)
class LevelState:
    """What a direction policy may look at before a level executes."""

    depth: int
    frontier_vertices: int
    frontier_edges: int
    num_vertices: int
    num_edges: int
    unvisited_vertices: int


@runtime_checkable
class DirectionPolicy(Protocol):
    """Chooses the direction for each BFS level."""

    def direction(self, state: LevelState) -> str:
        """Return :data:`Direction.TOP_DOWN` or :data:`Direction.BOTTOM_UP`."""
        ...


@dataclass(frozen=True)
class AlwaysTopDown:
    """The conventional BFS (the paper's Algorithm 1 baseline)."""

    def direction(self, state: LevelState) -> str:
        """Always top-down."""
        return Direction.TOP_DOWN


@dataclass(frozen=True)
class AlwaysBottomUp:
    """Pure bottom-up (the paper's Algorithm 2 baseline)."""

    def direction(self, state: LevelState) -> str:
        """Always bottom-up."""
        return Direction.BOTTOM_UP


def forced(direction: str) -> DirectionPolicy:
    """The policy that runs every level in ``direction``."""
    if direction not in Direction.ALL:
        raise BFSError(f"unknown direction {direction!r}")
    if direction == Direction.TOP_DOWN:
        return AlwaysTopDown()
    return AlwaysBottomUp()


class Steps(NamedTuple):
    """A traversal's level kernels: ``top_down(graph, frontier, parent,
    level, depth, workspace)`` and ``bottom_up(graph, mask, parent,
    level, depth, *, unvisited, workspace)``, each claiming the next
    frontier and returning ``(next_frontier, edges_examined)``.  A
    direction the policy never picks may be ``None``."""

    top_down: Callable | None
    bottom_up: Callable | None


class LevelObserver:
    """No-op hooks :func:`traverse` calls; override the ones you need.
    Observers are entered (``with``) before the first level and exited
    when the traversal ends, also by an exception."""

    def __enter__(self) -> "LevelObserver":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def before_level(self, state, frontier, parent, level, span) -> None:
        """Inside the open ``bfs.level`` span, before the kernel runs."""

    def after_level(self, depth, frontier, next_frontier, parent, level,
                    *, in_frontier=None) -> None:
        """After the span closed; ``in_frontier`` is the ``bool[V]``
        frontier mask a bottom-up kernel read (``None`` for top-down
        levels)."""

    def finish(self, parent, level) -> None:
        """After the last level."""


def sanitizers(graph: CSRGraph, source: int, sanitize) -> tuple:
    """The observers behind a ``sanitize=`` flag: none (``False``), the
    invariant :class:`~repro.analysis.sanitizer.Sanitizer` (``True``),
    or a :class:`~repro.analysis.sanitizer.RaceTracker` ahead of it
    (``"race"``)."""
    if sanitize not in (False, True, "race"):
        raise BFSError(
            f"unknown sanitize mode {sanitize!r}; "
            "expected False, True or 'race'"
        )
    if not sanitize:
        return ()
    # Lazy import: repro.analysis builds on repro.bfs.
    from repro.analysis.sanitizer import RaceTracker, Sanitizer

    san = Sanitizer(graph, source)
    return (RaceTracker(graph, source), san) if sanitize == "race" else (san,)


def run_level(graph, direction, steps, frontier, parent, level, depth, ws):
    """One level in ``direction`` with the kernel from ``steps``: the
    only direction dispatch.  A bottom-up level first loads the frontier
    mask and the live unvisited list; the caller retires the claimed
    vertices (:meth:`BFSWorkspace.retire_claimed`) before the next."""
    if direction == Direction.TOP_DOWN:
        return steps.top_down(graph, frontier, parent, level, depth, ws)
    if direction == Direction.BOTTOM_UP:
        mask = ws.load_frontier(frontier)
        unvisited = ws.unvisited_ids(graph, parent)
        return steps.bottom_up(
            graph, mask, parent, level, depth, unvisited=unvisited,
            workspace=ws,
        )
    raise BFSError(f"policy returned unknown direction {direction!r}")


def traverse(
    graph: CSRGraph,
    source: int,
    policy: DirectionPolicy,
    steps: Steps,
    *,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
    observers: tuple[LevelObserver, ...] = (),
    max_levels: int | None = None,
) -> BFSResult:
    """Traverse ``graph`` from ``source``, one ``policy`` decision and
    one ``steps`` kernel per level; ``max_levels`` stops early.

    With an explicit ``workspace`` the result's parent/level maps alias
    its arrays (``result.detach()`` keeps them past the next traversal)
    and warm traversals allocate nothing graph-sized; without one a
    private workspace is used.  ``tracer`` overrides the process-global
    tracer.
    """
    n = graph.num_vertices
    source = check_source(source, n)
    tr = tracer if tracer is not None else get_tracer()
    ws = workspace if workspace is not None else BFSWorkspace(n)
    degrees = graph.degrees
    nedges = max(graph.num_edges, 1)
    with ExitStack() as stack:
        for observer in observers:
            stack.enter_context(observer)
        parent, level = ws.begin(source)
        frontier = np.array([source], dtype=np.int64)
        unvisited = n - 1
        directions: list[str] = []
        edges_examined: list[int] = []
        depth = 0
        while frontier.size and (max_levels is None or depth < max_levels):
            fv, fe = int(frontier.size), int(degrees[frontier].sum())
            state = LevelState(depth, fv, fe, n, nedges, unvisited)
            chosen = policy.direction(state)
            if tr.enabled:  # skips building the event on the hot path
                tr.instant(
                    "bfs.direction", depth=depth, direction=chosen,
                    frontier_vertices=fv, frontier_edges=fe,
                    unvisited_vertices=unvisited,
                )
            kernel = "td" if chosen == Direction.TOP_DOWN else "scan"
            with tr.span(
                "bfs.level", depth=depth, direction=chosen, kernel=kernel,
                frontier_vertices=fv, frontier_edges=fe,
            ) as sp:
                for observer in observers:
                    observer.before_level(state, frontier, parent, level, sp)
                next_frontier, examined = run_level(
                    graph, chosen, steps, frontier, parent, level, depth, ws
                )
                sp.set("edges_examined", examined)
                sp.set("claimed", int(next_frontier.size))
            if examined:
                tr.observe(
                    "frontier.claim_ratio", next_frontier.size / examined
                )
            if observers:
                mask = None if kernel == "td" else ws.frontier_mask
                for observer in observers:
                    observer.after_level(
                        depth, frontier, next_frontier, parent, level,
                        in_frontier=mask,
                    )
            # Keep the incremental unvisited list honest after every
            # claiming level (no-op while it is still lazy).
            ws.retire_claimed(parent)
            directions.append(chosen)
            edges_examined.append(examined)
            unvisited -= int(next_frontier.size)
            frontier = next_frontier
            depth += 1
        tr.count("bfs.levels", depth)
        tr.count("bfs.edges_examined", sum(edges_examined))
        for observer in observers:
            observer.finish(parent, level)
    return BFSResult(source, parent, level, directions, edges_examined)
