"""Unit tests for wall-clock per-level timing."""

import numpy as np
import pytest

from repro.bfs.reference import bfs_reference
from repro.bfs.result import Direction
from repro.bfs.timing import timed_bfs
from repro.errors import BFSError
from repro.graph.generators import star


class TestTimedBFS:
    def test_result_correct(self, rmat_small, rmat_source):
        ref = bfs_reference(rmat_small, rmat_source)
        run = timed_bfs(rmat_small, rmat_source, m=20, n=100)
        assert np.array_equal(run.result.level, ref.level)
        run.result.validate(rmat_small)

    def test_level_records(self, rmat_small, rmat_source):
        run = timed_bfs(rmat_small, rmat_source, m=20, n=100)
        assert len(run.levels) == run.result.num_levels
        assert all(lv.seconds >= 0 for lv in run.levels)
        assert [lv.direction for lv in run.levels] == run.result.directions
        assert run.total_seconds == pytest.approx(
            sum(lv.seconds for lv in run.levels)
        )

    def test_forced_direction(self, rmat_small, rmat_source):
        run = timed_bfs(rmat_small, rmat_source, direction="bu")
        assert {lv.direction for lv in run.levels} == {Direction.BOTTOM_UP}

    def test_default_top_down(self, rmat_small, rmat_source):
        run = timed_bfs(rmat_small, rmat_source)
        assert {lv.direction for lv in run.levels} == {Direction.TOP_DOWN}

    def test_series_shape(self):
        g = star(10)
        run = timed_bfs(g, 0)
        series = run.series()
        assert series["level"] == [1, 2]
        assert len(series["seconds"]) == 2
        assert series["edges_examined"][0] == 9

    def test_frontier_counts_recorded(self, rmat_small, rmat_source):
        run = timed_bfs(rmat_small, rmat_source, m=20, n=100)
        sizes = run.result.frontier_sizes()
        for lv in run.levels:
            assert lv.frontier_vertices == sizes[lv.level]

    def test_validation(self, rmat_small):
        with pytest.raises(BFSError):
            timed_bfs(rmat_small, -1)
        with pytest.raises(BFSError):
            timed_bfs(rmat_small, 3.5)
        with pytest.raises(BFSError):
            timed_bfs(rmat_small, 0, direction="sideways")

    def test_policy_argument(self, rmat_small, rmat_source):
        from repro.tuning.policy import AlwaysBottomUp

        run = timed_bfs(rmat_small, rmat_source, policy=AlwaysBottomUp())
        assert {lv.direction for lv in run.levels} == {Direction.BOTTOM_UP}
