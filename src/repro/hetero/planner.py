"""Plan builders: from switching points to per-level placements.

Three plan families, all consuming a measured
:class:`~repro.bfs.trace.LevelProfile`:

* :func:`mn_directions` — the paper's (M, N) threshold rule applied
  level by level (Fig. 4), producing a direction column for a single
  device;
* :func:`cross_plan` — the paper's Algorithm 3: top-down on the CPU
  while ``|E|cq < |E|/M1 ∧ |V|cq < |V|/N1``, then hand off to the GPU
  for good, where a second pair ``(M2, N2)`` arbitrates top-down vs
  bottom-up (including the switch *back* to GPU top-down in the tail
  levels, which Section IV singles out);
* :func:`oracle_plan` — per-level argmin over all (device, direction)
  pairs, the upper bound the exhaustive-search experiments compare
  against.
"""

from __future__ import annotations

from repro.arch.machine import PlanStep, SimulatedMachine
from repro.bfs.result import Direction
from repro.bfs.trace import LevelProfile
from repro.errors import PlanError

__all__ = ["mn_directions", "cross_plan", "oracle_plan", "single_device_plan"]


def _td_rule(
    fe: int, fv: int, num_edges: int, num_vertices: int, m: float, n: float
) -> bool:
    """The Fig. 4 predicate: True → stay top-down."""
    return fe < num_edges / m and fv < num_vertices / n


def mn_directions(profile: LevelProfile, m: float, n: float) -> list[str]:
    """Apply the (M, N) rule to every level of ``profile``.

    Because the rule only reads ``|E|cq``/``|V|cq`` — recorded in the
    profile — the directions a live hybrid would choose are recovered
    exactly without re-traversal.
    """
    if not (m > 0 and n > 0):
        raise PlanError(f"M and N must be positive, got ({m}, {n})")
    out = []
    for rec in profile:
        td = _td_rule(
            rec.frontier_edges,
            rec.frontier_vertices,
            profile.num_edges,
            profile.num_vertices,
            m,
            n,
        )
        out.append(Direction.TOP_DOWN if td else Direction.BOTTOM_UP)
    return out


def single_device_plan(
    profile: LevelProfile, device: str, m: float, n: float
) -> list[PlanStep]:
    """A one-device combination plan under the (M, N) rule."""
    return [PlanStep(device, d) for d in mn_directions(profile, m, n)]


def cross_plan(
    profile: LevelProfile,
    m1: float,
    n1: float,
    m2: float,
    n2: float,
    *,
    cpu: str = "cpu",
    gpu: str = "gpu",
) -> list[PlanStep]:
    """Algorithm 3's placement for the whole traversal.

    Phase 1 (outer loop): levels run top-down on ``cpu`` while the
    ``(M1, N1)`` rule holds.  The first level where it fails hands off
    to ``gpu`` permanently (the paper's inner loop never returns to the
    CPU — Section IV: "it is meaningless for the CPU+GPU solution to
    switch back to CPU in the last levels").  Phase 2: each remaining
    level runs GPU top-down or GPU bottom-up under ``(M2, N2)``.
    """
    for value, label in ((m1, "M1"), (n1, "N1"), (m2, "M2"), (n2, "N2")):
        if not value > 0:
            raise PlanError(f"{label} must be positive, got {value}")
    plan: list[PlanStep] = []
    on_gpu = False
    for rec in profile:
        if not on_gpu:
            if _td_rule(
                rec.frontier_edges,
                rec.frontier_vertices,
                profile.num_edges,
                profile.num_vertices,
                m1,
                n1,
            ):
                plan.append(PlanStep(cpu, Direction.TOP_DOWN))
                continue
            on_gpu = True
        td = _td_rule(
            rec.frontier_edges,
            rec.frontier_vertices,
            profile.num_edges,
            profile.num_vertices,
            m2,
            n2,
        )
        plan.append(
            PlanStep(gpu, Direction.TOP_DOWN if td else Direction.BOTTOM_UP)
        )
    return plan


def oracle_plan(
    machine: SimulatedMachine, profile: LevelProfile
) -> list[PlanStep]:
    """Per-level argmin over every (device, direction) — the theoretical
    best placement, ignoring handoff costs (they are charged when the
    plan is priced, and at most once per device change)."""
    matrices = machine.time_matrices(profile)
    devices = sorted(matrices)
    plan: list[PlanStep] = []
    for i in range(len(profile)):
        best: tuple[float, str, str] | None = None
        for dev in devices:
            for col, direction in ((0, Direction.TOP_DOWN), (1, Direction.BOTTOM_UP)):
                t = float(matrices[dev][i, col])
                if best is None or t < best[0]:
                    best = (t, dev, direction)
        if best is None:
            raise PlanError("oracle_plan needs at least one device")
        plan.append(PlanStep(best[1], best[2]))
    return plan
