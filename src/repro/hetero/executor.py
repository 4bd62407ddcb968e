"""Plan-driven traversal: run a real BFS under a per-level plan.

The simulated machine prices plans from counters alone; this executor
closes the loop by *actually traversing* the graph with the kernels the
plan prescribes (top-down expansion or bottom-up scan per level,
devices affecting only the simulated clock) and verifying the plan's
depth matches reality.  Used by examples and by the differential tests
that check plan-priced counters equal live-kernel counters.
"""

from __future__ import annotations

from repro.arch.machine import PlanStep, SimReport, SimulatedMachine
from repro.bfs.engine import LevelObserver, LevelState, traverse
from repro.bfs.hybrid import SCAN
from repro.bfs.profiler import profile_bfs
from repro.bfs.result import BFSResult
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError, PlanError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Span, Tracer, get_tracer

__all__ = ["execute_plan", "annotate_sim_report"]


def annotate_sim_report(tracer: Tracer, report: SimReport) -> None:
    """Lay a :class:`SimReport`'s schedule onto the tracer as synthetic
    spans on simulated-clock tracks.

    Each level becomes a ``sim.level`` span on track ``sim:<device>``
    and each non-zero handoff a ``sim.transfer`` span on
    ``sim:transfer``; timestamps are the *simulator's* cumulative
    seconds (via :meth:`~repro.obs.Tracer.add_span`), so the exported
    trace shows the simulated device schedule as its own row group next
    to the real wall-clock rows.  No-op on a disabled tracer.
    """
    if not tracer.enabled:
        return
    t = 0.0
    for i, step in enumerate(report.steps):
        xfer = float(report.transfer_seconds[i])
        if xfer > 0:
            tracer.add_span(
                "sim.transfer", t, t + xfer, track="sim:transfer", level=i
            )
            t += xfer
        dur = float(report.level_seconds[i])
        tracer.add_span(
            "sim.level",
            t,
            t + dur,
            track=f"sim:{step.device}",
            level=i,
            device=step.device,
            direction=step.direction,
        )
        t += dur


class _PlanPolicy(LevelObserver):
    """A plan as a direction policy: level ``i`` runs ``plan[i]``'s
    direction, and its ``bfs.level`` span carries ``plan[i]``'s device
    and lands on that device's ``dev:<device>`` track."""

    def __init__(self, plan: list[PlanStep]) -> None:
        self.plan = plan

    def direction(self, state: LevelState) -> str:
        if state.depth >= len(self.plan):
            raise PlanError(
                f"plan has {len(self.plan)} levels but the traversal "
                f"reached level {state.depth + 1}"
            )
        return self.plan[state.depth].direction

    def before_level(self, state, frontier, parent, level, span) -> None:
        device = self.plan[state.depth].device
        span.set("device", device)
        if isinstance(span, Span):  # a disabled tracer's span has no track
            span.track = f"dev:{device}"


def execute_plan(
    machine: SimulatedMachine,
    graph: CSRGraph,
    source: int,
    plan: list[PlanStep],
    *,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> tuple[BFSResult, SimReport]:
    """Traverse ``graph`` from ``source`` following ``plan``.

    Each level runs the direction the plan prescribes with the real
    serial kernel; the returned :class:`SimReport` prices the same
    levels on the plan's devices.  Raises
    :class:`~repro.errors.PlanError` when the plan is shorter or longer
    than the traversal it claims to describe, or the source is invalid.

    ``workspace`` and ``tracer`` are as for
    :func:`~repro.bfs.engine.traverse`: each level is a ``bfs.level``
    span carrying its ``device`` on that device's ``dev:<name>`` track,
    and the priced schedule follows as simulated-clock spans
    (:func:`annotate_sim_report`).
    """
    tr = tracer if tracer is not None else get_tracer()
    policy = _PlanPolicy(plan)
    with tr.span("hetero.execute_plan", source=source, levels=len(plan)):
        try:
            result = traverse(
                graph, source, policy, SCAN, workspace=workspace, tracer=tr,
                observers=(policy,),
            )
        except BFSError as exc:
            raise PlanError(str(exc)) from exc
    if len(result.directions) != len(plan):
        raise PlanError(
            f"plan has {len(plan)} levels but the traversal finished "
            f"after {len(result.directions)}"
        )
    # Price the identical traversal (counters re-measured for fidelity).
    profile, _ = profile_bfs(graph, source)
    report = machine.run(profile, plan)
    annotate_sim_report(tr, report)
    return result, report
