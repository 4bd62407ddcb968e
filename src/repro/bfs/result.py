"""BFS output containers.

The paper's BFS (Algorithms 1–2) outputs a predecessor map and a level
map.  :class:`BFSResult` bundles both with the per-level direction
decisions and counters needed for TEPS accounting and for the
switching-point analysis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.graph.validate import validate_bfs

__all__ = ["BFSResult", "Direction", "check_source"]


class Direction:
    """Direction labels for a BFS level (string constants, not an enum,
    so results serialize to plain JSON)."""

    TOP_DOWN = "td"
    BOTTOM_UP = "bu"

    ALL = (TOP_DOWN, BOTTOM_UP)


def check_source(source, num_vertices: int) -> int:
    """``source`` as an ``int`` vertex id, or :class:`BFSError` unless
    it is an integer in ``[0, num_vertices)`` (a float such as ``3.5``
    or ``3.0`` is refused, never truncated)."""
    try:
        vertex = operator.index(source)
    except TypeError:
        raise BFSError(
            f"source must be an integer vertex id, got {source!r}"
        ) from None
    if not 0 <= vertex < num_vertices:
        raise BFSError(f"source {source} out of range [0, {num_vertices})")
    return vertex


@dataclass
class BFSResult:
    """The outcome of one BFS traversal.

    Attributes
    ----------
    source:
        Root vertex of the traversal.
    parent:
        ``int64`` predecessor map; ``-1`` marks unreached vertices and
        ``parent[source] == source``.
    level:
        ``int64`` distance map; ``-1`` marks unreached vertices.
    directions:
        Direction used at each level (``'td'``/``'bu'``), one entry per
        executed level.
    edges_examined:
        Adjacency entries actually inspected by the kernels, per level —
        the work term the cost model charges.
    """

    source: int
    parent: np.ndarray
    level: np.ndarray
    directions: list[str] = field(default_factory=list)
    edges_examined: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.level = np.asarray(self.level, dtype=np.int64)
        if self.parent.shape != self.level.shape:
            raise BFSError("parent and level maps must have equal shape")

    @property
    def num_levels(self) -> int:
        """Number of non-empty levels (depth of the BFS tree + 1)."""
        reached = self.level >= 0
        if not reached.any():
            return 0
        return int(self.level[reached].max()) + 1

    @property
    def num_reached(self) -> int:
        """Vertices in the connected component of the source."""
        return int((self.level >= 0).sum())

    def traversed_edges(self, graph: CSRGraph) -> int:
        """Undirected edges inside the reached component.

        Graph 500 counts TEPS over the edges of the traversed component,
        not the whole graph; for a symmetric CSR this is half the degree
        mass of reached vertices.
        """
        reached = self.level >= 0
        directed = int(graph.degrees[reached].sum())
        return directed // 2 if graph.symmetric else directed

    def teps(self, graph: CSRGraph, seconds: float) -> float:
        """Traversed edges per second for a run that took ``seconds``."""
        if seconds <= 0:
            raise BFSError(f"seconds must be positive, got {seconds!r}")
        return self.traversed_edges(graph) / seconds

    def frontier_sizes(self) -> np.ndarray:
        """``|V|cq`` per level, reconstructed from the level map."""
        reached = self.level >= 0
        if not reached.any():
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.level[reached], minlength=self.num_levels)

    def detach(self) -> "BFSResult":
        """Copy the parent/level maps out of any shared workspace.

        Results produced with an explicit
        :class:`~repro.bfs.workspace.BFSWorkspace` alias the workspace's
        arrays, which the next traversal overwrites.  Call this to keep
        a result across traversals; returns self for chaining.
        """
        self.parent = self.parent.copy()
        self.level = self.level.copy()
        return self

    def validate(self, graph: CSRGraph) -> "BFSResult":
        """Run Graph 500 validation; returns self for chaining."""
        validate_bfs(graph, self.source, self.parent, self.level)
        return self

    def same_reachability(self, other: "BFSResult") -> bool:
        """Whether two results agree on levels (parents may differ:
        any shortest-path tree is a valid BFS output)."""
        return bool(np.array_equal(self.level, other.level))
