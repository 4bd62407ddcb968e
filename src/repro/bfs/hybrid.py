"""Direction-optimizing BFS — the combination of Algorithms 1 and 2.

The paper's switching rule (Fig. 4): run **top-down** while

``|E|cq < |E| / M  and  |V|cq < |V| / N``

and **bottom-up** otherwise.  ``(M, N)`` is the *switching point*, the
quantity the whole paper is about tuning; it is supplied here as a
:class:`MNPolicy` (fixed thresholds), or any object implementing
:class:`DirectionPolicy` — per-level oracle plans and regression-driven
policies from :mod:`repro.tuning` plug in through the same interface.

The level loop is :func:`repro.bfs.engine.traverse`; this module adds
the rule and the serial kernel table.  The hybrid pays the real
representation-conversion cost: a bottom-up level materializes the
frontier mask inside its own level span.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bfs.bottomup import bottom_up_step
from repro.bfs.engine import (
    DirectionPolicy,
    LevelState,
    Steps,
    sanitizers,
    traverse,
)
from repro.bfs.result import BFSResult, Direction
from repro.bfs.topdown import top_down_step
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "SCAN",
    "DEFAULT_M",
    "DEFAULT_N",
    "LevelState",
    "DirectionPolicy",
    "MNPolicy",
    "bfs_hybrid",
]

#: The one default switching point ``(M, N)``, read by every entry point
#: that neither takes nor predicts one: the CLI, ``default_engine``,
#: ``HybridEngine``, ``connected_components`` and ``pseudo_diameter``.
#: On R-MAT scale 17 with a warm workspace, on a 2-vCPU host, (64, 512)
#: took about 50% longer per root.
DEFAULT_M = 20.0
DEFAULT_N = 100.0


@dataclass(frozen=True)
class MNPolicy:
    """The paper's threshold rule with parameters ``(M, N)``.

    Top-down iff ``|E|cq < |E|/M`` **and** ``|V|cq < |V|/N``; bottom-up
    otherwise.  Large ``M``/``N`` switch to bottom-up earlier; ``M = N =
    1`` never leaves top-down on any proper subgraph frontier.
    """

    m: float
    n: float

    def __post_init__(self) -> None:
        if not (self.m > 0 and self.n > 0):
            raise BFSError(f"M and N must be positive, got ({self.m}, {self.n})")

    def direction(self, state: LevelState) -> str:
        """Apply the Fig. 4 threshold test to one level."""
        td = (
            state.frontier_edges < state.num_edges / self.m
            and state.frontier_vertices < state.num_vertices / self.n
        )
        return Direction.TOP_DOWN if td else Direction.BOTTOM_UP


#: The serial kernels: vectorized top-down expansion and the windowed
#: bottom-up adjacency scan.
SCAN = Steps(top_down_step, bottom_up_step)


def bfs_hybrid(
    graph: CSRGraph,
    source: int,
    policy: DirectionPolicy | None = None,
    *,
    m: float | None = None,
    n: float | None = None,
    sanitize: bool = False,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> BFSResult:
    """Direction-optimizing traversal from ``source``.

    Either pass a ``policy`` object or the raw thresholds ``m=`` / ``n=``
    (mirroring how the runtime system receives the regression-predicted
    switching point).

    ``sanitize`` is as for :func:`~repro.bfs.topdown.bfs_top_down` (a
    bottom-up level also checks its frontier mask against the queue);
    ``workspace`` and ``tracer`` are as for
    :func:`~repro.bfs.engine.traverse`, under a ``bfs.hybrid`` root.
    """
    if policy is None:
        if m is None or n is None:
            raise BFSError("provide either policy= or both m= and n=")
        policy = MNPolicy(m, n)
    elif m is not None or n is not None:
        raise BFSError("pass policy= or m=/n=, not both")
    tr = tracer if tracer is not None else get_tracer()
    with tr.span(
        "bfs.hybrid", source=source, num_vertices=graph.num_vertices
    ) as root:
        result = traverse(
            graph, source, policy, SCAN, workspace=workspace, tracer=tr,
            observers=sanitizers(graph, source, bool(sanitize)),
        )
        root.set("levels", len(result.directions))
    return result
