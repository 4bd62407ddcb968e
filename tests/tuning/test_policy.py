"""Unit tests for direction policies."""

import numpy as np
import pytest

from repro.bfs.hybrid import LevelState, bfs_hybrid
from repro.bfs.reference import bfs_reference
from repro.bfs.result import Direction
from repro.errors import TuningError
from repro.tuning.policy import (
    AlwaysBottomUp,
    AlwaysTopDown,
    FixedPlanPolicy,
    HeuristicBeamerPolicy,
)


def state(fv=10, fe=100, depth=0, n=1000, e=10000, uv=900):
    return LevelState(
        depth=depth,
        frontier_vertices=fv,
        frontier_edges=fe,
        num_vertices=n,
        num_edges=e,
        unvisited_vertices=uv,
    )


class TestConstants:
    def test_always_policies(self):
        assert AlwaysTopDown().direction(state()) == Direction.TOP_DOWN
        assert AlwaysBottomUp().direction(state()) == Direction.BOTTOM_UP

    def test_always_td_in_hybrid(self, rmat_small, rmat_source):
        res = bfs_hybrid(rmat_small, rmat_source, policy=AlwaysTopDown())
        assert set(res.directions) == {Direction.TOP_DOWN}

    def test_always_bu_in_hybrid(self, rmat_small, rmat_source):
        ref = bfs_reference(rmat_small, rmat_source)
        res = bfs_hybrid(rmat_small, rmat_source, policy=AlwaysBottomUp())
        assert set(res.directions) == {Direction.BOTTOM_UP}
        assert np.array_equal(res.level, ref.level)


class TestFixedPlan:
    def test_replay(self, rmat_small, rmat_source):
        first = bfs_hybrid(rmat_small, rmat_source, m=20, n=100)
        replay = bfs_hybrid(
            rmat_small,
            rmat_source,
            policy=FixedPlanPolicy(first.directions),
        )
        assert replay.directions == first.directions

    def test_short_plan_raises(self, rmat_small, rmat_source):
        with pytest.raises(TuningError):
            bfs_hybrid(
                rmat_small, rmat_source, policy=FixedPlanPolicy(["td"])
            )

    def test_bad_direction_rejected(self):
        with pytest.raises(TuningError):
            FixedPlanPolicy(["td", "down"])


class TestBeamer:
    def test_validation(self):
        with pytest.raises(TuningError):
            HeuristicBeamerPolicy(alpha=0)
        with pytest.raises(TuningError):
            HeuristicBeamerPolicy(beta=-1)
        with pytest.raises(TuningError):
            HeuristicBeamerPolicy(alpha=float("nan"))
        with pytest.raises(TuningError):
            HeuristicBeamerPolicy(beta=float("nan"))

    def test_hysteresis(self):
        p = HeuristicBeamerPolicy(alpha=10, beta=10)
        # Small frontier: stays top-down.
        assert p.direction(state(fe=10, e=10000)) == Direction.TOP_DOWN
        # Big frontier (fe > E/alpha): switch to bottom-up.
        assert p.direction(state(fe=5000, e=10000)) == Direction.BOTTOM_UP
        # Still big-ish vertices: stays bottom-up even if fe drops
        # (that is the hysteresis).
        assert p.direction(state(fe=10, fv=500, n=1000)) == Direction.BOTTOM_UP
        # Frontier shrinks below V/beta: back to top-down.
        assert p.direction(state(fe=10, fv=50, n=1000)) == Direction.TOP_DOWN

    def test_reset(self):
        p = HeuristicBeamerPolicy(alpha=10, beta=10)
        p.direction(state(fe=5000, e=10000))
        p.reset()
        assert p.direction(state(fe=10, e=10000)) == Direction.TOP_DOWN

    def test_in_live_hybrid(self, rmat_medium):
        from repro.bfs.profiler import pick_sources

        src = int(pick_sources(rmat_medium, 1, seed=4)[0])
        ref = bfs_reference(rmat_medium, src)
        res = bfs_hybrid(
            rmat_medium, src, policy=HeuristicBeamerPolicy()
        )
        assert np.array_equal(res.level, ref.level)
        assert Direction.BOTTOM_UP in res.directions
