"""Direction policies beyond the basic (M, N) rule.

These all satisfy :class:`repro.bfs.hybrid.DirectionPolicy`, so they
plug into the live hybrid engine as well as the plan builders:

* :class:`AlwaysTopDown` / :class:`AlwaysBottomUp` — the pure baselines
  (:func:`repro.bfs.engine.forced` hands them out);
* :class:`FixedPlanPolicy` — replay a per-level direction list (e.g. an
  oracle plan) on a live traversal;
* :class:`HeuristicBeamerPolicy` — Beamer's original growing/shrinking
  heuristic (switch to bottom-up while the frontier grows past |E|/α,
  back to top-down when it shrinks below |V|/β), the closest related-
  work policy, used as an ablation comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bfs.engine import AlwaysBottomUp, AlwaysTopDown
from repro.bfs.hybrid import LevelState
from repro.bfs.result import Direction
from repro.errors import TuningError

__all__ = [
    "AlwaysTopDown",
    "AlwaysBottomUp",
    "FixedPlanPolicy",
    "HeuristicBeamerPolicy",
]


class FixedPlanPolicy:
    """Replay an explicit per-level direction list.

    Raises when the traversal outlives the plan — a plan/graph mismatch
    should fail loudly, not silently extend.
    """

    def __init__(self, directions: list[str]) -> None:
        bad = [d for d in directions if d not in Direction.ALL]
        if bad:
            raise TuningError(f"unknown directions in plan: {bad}")
        self._directions = list(directions)

    def direction(self, state: LevelState) -> str:
        """Direction recorded for this depth."""
        if state.depth >= len(self._directions):
            raise TuningError(
                f"fixed plan has {len(self._directions)} levels; "
                f"traversal reached level {state.depth + 1}"
            )
        return self._directions[state.depth]


@dataclass
class HeuristicBeamerPolicy:
    """Beamer et al.'s two-threshold heuristic with hysteresis.

    Switch top-down → bottom-up when ``|E|cq > |E| / alpha``; switch
    back when ``|V|cq < |V| / beta``.  Unlike the paper's stateless
    (M, N) rule this policy is stateful (it remembers which direction
    it is in), matching the original SC'12 formulation with defaults
    ``alpha = 14``, ``beta = 24``.
    """

    alpha: float = 14.0
    beta: float = 24.0
    _bottom_up: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise TuningError(
                f"alpha and beta must be positive, got ({self.alpha}, {self.beta})"
            )

    def reset(self) -> None:
        """Forget state between traversals."""
        self._bottom_up = False

    def direction(self, state: LevelState) -> str:
        """Apply the hysteresis rule."""
        if not self._bottom_up:
            if state.frontier_edges > state.num_edges / self.alpha:
                self._bottom_up = True
        else:
            if state.frontier_vertices < state.num_vertices / self.beta:
                self._bottom_up = False
        return Direction.BOTTOM_UP if self._bottom_up else Direction.TOP_DOWN
