"""Model-predictive direction selection (online adaptation).

Related work [22] (Li & Becchi) transitions between implementations at
runtime from observed behaviour.  This module provides that family of
policy on top of the cost model: before each level, predict the cost of
*both* directions from the counters the runtime already has, and take
the cheaper one.

The subtlety is that a level's bottom-up cost depends on
``bu_edges_checked`` — not knowable before running it.  The estimator
uses the geometric early-termination model: a probe hits the frontier
with probability ``|E|cq / 2|E|`` per edge, so an unvisited vertex of
degree d expects ``min(d, 1/p)`` checks.  Aggregated, expected checks
≈ ``min(|E|un, |V|un / p)``.  The estimate is exact in the two regimes
that matter (tiny frontier → scan everything; huge frontier → one probe
each) and lands within a small factor between them — enough to pick the
right direction, which is all a policy needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.costmodel import CostModel
from repro.bfs.hybrid import LevelState
from repro.bfs.result import Direction
from repro.bfs.trace import LevelRecord
from repro.errors import TuningError
from repro.obs.tracer import get_tracer

__all__ = ["estimate_bu_checked", "CostModelPolicy"]


def estimate_bu_checked(
    state: LevelState, *, avg_degree: float | None = None
) -> tuple[int, int]:
    """Predict ``(bu_edges_checked, bu_edges_failed)`` for a level.

    Uses only quantities available *before* the level runs: the
    frontier edge mass, the unvisited population, and the graph totals.
    """
    ue = 2 * state.num_edges  # directed entries
    if state.unvisited_vertices == 0:
        return 0, 0
    if avg_degree is None:
        avg_degree = ue / max(state.num_vertices, 1)
    # Expected adjacency mass still owned by unvisited vertices.
    unvisited_edges = state.unvisited_vertices * avg_degree
    p_hit = min(max(state.frontier_edges / ue, 1e-12), 1.0)
    expected_per_vertex = min(avg_degree, 1.0 / p_hit)
    checked = int(
        min(unvisited_edges, state.unvisited_vertices * expected_per_vertex)
    )
    # Vertices whose whole list misses the frontier scan everything.
    miss_prob = (1.0 - p_hit) ** avg_degree
    failed = int(checked * min(miss_prob * 1.5, 1.0))
    return checked, min(failed, checked)


@dataclass
class CostModelPolicy:
    """Pick each level's direction by predicted cost on one device.

    Satisfies :class:`repro.bfs.hybrid.DirectionPolicy`; unlike the
    (M, N) rule it needs no tuning at all — the architecture model *is*
    the tuned knowledge.  The trade-off mirrors the paper's discussion:
    the rule is as good as the model, whereas (M, N) regression learns
    residual effects the model misses.
    """

    model: CostModel

    def __post_init__(self) -> None:
        if not isinstance(self.model, CostModel):
            raise TuningError("CostModelPolicy needs a CostModel")

    def direction(self, state: LevelState) -> str:
        """Cheaper predicted direction for this level."""
        checked, failed = estimate_bu_checked(state)
        rec = LevelRecord(
            level=state.depth,
            frontier_vertices=state.frontier_vertices,
            frontier_edges=state.frontier_edges,
            unvisited_vertices=state.unvisited_vertices,
            unvisited_edges=max(
                2 * state.num_edges - state.frontier_edges, checked
            ),
            bu_edges_checked=checked,
            claimed=0,
            bu_edges_failed=failed,
        )
        # The planner compares costs as if this level were the whole
        # story; greedy per-level choice is exactly the oracle's rule.
        td = self.model.top_down_seconds(rec, state.num_vertices).seconds
        bu = self.model.bottom_up_seconds(rec, state.num_vertices).seconds
        chosen = Direction.TOP_DOWN if td <= bu else Direction.BOTTOM_UP
        get_tracer().instant(
            "tuning.cost_model_decision",
            depth=state.depth,
            direction=chosen,
            predicted_td_seconds=td,
            predicted_bu_seconds=bu,
        )
        return chosen
