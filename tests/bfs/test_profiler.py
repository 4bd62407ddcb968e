"""Unit tests for the instrumented profiler."""

import numpy as np
import pytest

from repro.bfs.bottomup import bfs_bottom_up
from repro.bfs.profiler import pick_sources, profile_bfs
from repro.bfs.reference import bfs_reference
from repro.errors import BFSError
from repro.graph.generators import path, rmat, star


class TestProfileBFS:
    def test_result_matches_reference(self, rmat_small, rmat_source):
        profile, result = profile_bfs(rmat_small, rmat_source)
        ref = bfs_reference(rmat_small, rmat_source)
        assert np.array_equal(result.level, ref.level)
        assert len(profile) == result.num_levels

    def test_counters_match_bottom_up_run(self, rmat_small, rmat_source):
        """The counterfactual bottom-up counters equal what the real
        bottom-up kernel actually inspects, level by level."""
        profile, _ = profile_bfs(rmat_small, rmat_source)
        bu = bfs_bottom_up(rmat_small, rmat_source)
        # Same level sets (validated elsewhere) -> identical checked counts.
        assert bu.edges_examined == profile.bu_edges_checked().tolist()

    def test_frontier_edges_are_degrees(self, rmat_small, rmat_source):
        profile, result = profile_bfs(rmat_small, rmat_source)
        level = result.level
        for rec in profile:
            members = np.nonzero(level == rec.level)[0]
            assert rec.frontier_vertices == members.size
            assert rec.frontier_edges == int(
                rmat_small.degrees[members].sum()
            )

    def test_max_levels_truncates(self):
        g = path(50)
        profile, _ = profile_bfs(g, 0, max_levels=5)
        assert len(profile) == 5

    def test_bad_source(self, rmat_small):
        with pytest.raises(BFSError):
            profile_bfs(rmat_small, -5)
        with pytest.raises(BFSError):
            profile_bfs(rmat_small, 3.5)

    def test_star_profile_shape(self):
        profile, _ = profile_bfs(star(10), 0)
        assert len(profile) == 2
        assert profile[0].frontier_vertices == 1
        assert profile[0].claimed == 9
        # At level 0 every leaf checks exactly its one edge and wins.
        assert profile[0].bu_edges_checked == 9
        assert profile[0].bu_edges_failed == 0

    def test_level1_bottom_up_is_catastrophic(self, medium_profile):
        """Section IV: at level 1 bottom-up must touch nearly all edges."""
        rec = medium_profile[0]
        assert rec.bu_edges_checked > 0.5 * rec.unvisited_edges


class TestPickSources:
    def test_degree_floor(self, rmat_small):
        src = pick_sources(rmat_small, 20, seed=0)
        assert (rmat_small.degrees[src] >= 1).all()

    def test_deterministic(self, rmat_small):
        a = pick_sources(rmat_small, 5, seed=9)
        b = pick_sources(rmat_small, 5, seed=9)
        assert np.array_equal(a, b)

    def test_negative_count(self, rmat_small):
        with pytest.raises(BFSError):
            pick_sources(rmat_small, -1)

    @pytest.mark.parametrize("seed", [-1, np.int32(-3)])
    def test_negative_seed(self, rmat_small, seed):
        with pytest.raises(BFSError, match=f"seed must be >= 0, got {seed}"):
            pick_sources(rmat_small, 2, seed=seed)

    def test_no_eligible(self):
        from repro.graph.csr import CSRGraph

        with pytest.raises(BFSError):
            pick_sources(CSRGraph.empty(5), 1)

    def test_replacement_when_needed(self):
        g = star(3)
        src = pick_sources(g, 10, seed=0)
        assert src.size == 10
