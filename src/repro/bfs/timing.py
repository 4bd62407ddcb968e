"""Wall-clock per-level timing of real traversals.

The paper's Fig. 3 and Table IV are per-level time measurements; this
module produces the same shape of data for the *actual NumPy kernels on
this machine*, so users can draw their own Fig. 3 without the
simulator.

Since the observability layer landed, this module owns no clock: it is
a thin consumer of :mod:`repro.obs` — every level runs inside a
``bfs.level`` span and each :class:`TimedLevel` is built *from the
span's duration*, so ``TimedRun.total_seconds`` equals the tracer's
span sums exactly (an invariant the test suite checks).  When no
enabled tracer is ambient or passed, a private recording tracer is used
so timing always works; either way the recording is available as
``TimedRun.tracer`` for export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bfs.engine import DirectionPolicy, LevelObserver, forced, traverse
from repro.bfs.hybrid import SCAN, MNPolicy
from repro.bfs.result import BFSResult, Direction
from repro.bfs.workspace import BFSWorkspace
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["TimedLevel", "TimedRun", "timed_bfs"]


@dataclass(frozen=True)
class TimedLevel:
    """One level's wall-clock record."""

    level: int
    direction: str
    frontier_vertices: int
    edges_examined: int
    seconds: float
    #: Kernel that executed the level: ``"td"`` for top-down levels,
    #: ``"scan"`` for bottom-up ones.
    kernel: str = "td"


@dataclass(frozen=True)
class TimedRun:
    """A traversal with per-level wall-clock timings.

    ``tracer`` is the recording the timings came from (the ambient
    tracer when one was enabled, otherwise a private one); its
    ``bfs.level`` spans sum to :attr:`total_seconds` exactly and can be
    exported with :mod:`repro.obs.export`.
    """

    result: BFSResult
    levels: tuple[TimedLevel, ...]
    tracer: Tracer | None = field(default=None, compare=False, repr=False)

    @property
    def total_seconds(self) -> float:
        """Sum of per-level times (kernel time only, no setup)."""
        return float(sum(lv.seconds for lv in self.levels))

    def series(self) -> dict[str, list]:
        """Column-oriented view for plotting (the Fig. 3 axes)."""
        return {
            "level": [lv.level + 1 for lv in self.levels],
            "direction": [lv.direction for lv in self.levels],
            "seconds": [lv.seconds for lv in self.levels],
            "edges_examined": [lv.edges_examined for lv in self.levels],
        }


class _LevelTimer(LevelObserver):
    """Builds each :class:`TimedLevel` from the level's closed span."""

    def __init__(self) -> None:
        self.levels: list[TimedLevel] = []
        self._span = None

    def before_level(self, state, frontier, parent, level, span) -> None:
        self._span = span

    def after_level(self, depth, frontier, next_frontier, parent, level,
                    *, in_frontier=None) -> None:
        span, attrs = self._span, self._span.attrs
        self.levels.append(
            TimedLevel(
                level=depth,
                direction=attrs["direction"],
                frontier_vertices=attrs["frontier_vertices"],
                edges_examined=attrs["edges_examined"],
                seconds=span.duration,
                kernel=attrs["kernel"],
            )
        )


def timed_bfs(
    graph: CSRGraph,
    source: int,
    policy: DirectionPolicy | None = None,
    *,
    m: float | None = None,
    n: float | None = None,
    direction: str | None = None,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> TimedRun:
    """Traverse with per-level wall-clock measurement.

    Either force a ``direction`` (``'td'``/``'bu'``), pass a policy, or
    give (``m``, ``n``) thresholds; defaults to pure top-down.  A warm
    ``workspace`` keeps allocation out of the timed region (the
    frontier-mask load stays inside it: it is the paper's
    representation-conversion cost).

    Timing always happens: without an enabled ``tracer`` (passed or
    process-global) a private :class:`~repro.obs.Tracer` records.  Each
    level's seconds are read off its ``bfs.level`` span (under a
    ``bfs.timed`` root), so the run's totals equal the span sums.  The
    ``teps`` histogram gets the run's Graph 500 TEPS (traversed edges
    over those seconds), the figure ``run_graph500`` records per root.
    """
    if policy is None and m is not None and n is not None:
        policy = MNPolicy(m, n)
    if direction is not None:
        policy = forced(direction)
    tr = tracer if tracer is not None else get_tracer()
    if not tr.enabled:
        tr = Tracer()
    timer = _LevelTimer()
    n_vertices = graph.num_vertices
    with tr.span("bfs.timed", source=source, num_vertices=n_vertices) as root:
        result = traverse(
            graph, source, policy or forced(Direction.TOP_DOWN), SCAN,
            workspace=workspace, tracer=tr, observers=(timer,),
        )
        root.set("levels", len(result.directions))
    total = sum(lv.seconds for lv in timer.levels)
    if total > 0:
        tr.observe("teps", result.teps(graph, total))
    return TimedRun(result=result, levels=tuple(timer.levels), tracer=tr)
