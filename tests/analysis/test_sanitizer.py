"""Runtime BFS sanitizer: clean runs stay clean, corruption is caught
with structured level/vertex information, CSR arrays are frozen."""

import numpy as np
import pytest

import repro.bfs.topdown as topdown_mod
from repro.analysis import RaceTracker, Sanitizer, frozen_arrays
from repro.bfs import (
    bfs_bottom_up,
    bfs_hybrid,
    bfs_reference,
    bfs_top_down,
    pick_sources,
)
from repro.errors import BFSError, SanitizerError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat


class TestCleanRuns:
    def test_top_down_sanitized(self, rmat_small, rmat_source):
        res = bfs_top_down(rmat_small, rmat_source, sanitize=True)
        res.validate(rmat_small)
        assert res.same_reachability(bfs_reference(rmat_small, rmat_source))

    def test_bottom_up_sanitized(self, rmat_small, rmat_source):
        res = bfs_bottom_up(rmat_small, rmat_source, sanitize=True)
        res.validate(rmat_small)

    def test_hybrid_sanitized(self, rmat_small, rmat_source):
        res = bfs_hybrid(rmat_small, rmat_source, m=20, n=100, sanitize=True)
        res.validate(rmat_small)
        assert "bu" in res.directions  # the mask-agreement check ran

    def test_hybrid_sanitized_rmat_scale14(self):
        """The acceptance-criterion run: R-MAT scale 14, zero violations."""
        g = rmat(14, 16, seed=0)
        s = int(pick_sources(g, 1, seed=0)[0])
        res = bfs_hybrid(g, s, m=64, n=512, sanitize=True)
        res.validate(g)
        assert res.num_reached > g.num_vertices // 2

    def test_sanitized_matches_unsanitized(self, rmat_small, rmat_source):
        plain = bfs_hybrid(rmat_small, rmat_source, m=20, n=100)
        sane = bfs_hybrid(rmat_small, rmat_source, m=20, n=100, sanitize=True)
        assert plain.same_reachability(sane)
        assert plain.directions == sane.directions

    def test_disconnected_source(self):
        g = CSRGraph.from_edges([0, 2], [1, 3], 5)  # vertex 4 isolated
        res = bfs_hybrid(g, 4, m=2, n=2, sanitize=True)
        assert res.num_reached == 1


class TestFreezing:
    def test_arrays_frozen_during_and_after(self, rmat_small, rmat_source):
        bfs_top_down(rmat_small, rmat_source, sanitize=True)
        assert not rmat_small.offsets.flags.writeable
        assert not rmat_small.targets.flags.writeable

    def test_frozen_arrays_restores_prior_state(self):
        g = CSRGraph.from_edges([0], [1], 2).copy_writable()
        assert g.targets.flags.writeable
        with frozen_arrays(g):
            assert not g.targets.flags.writeable
            with pytest.raises(ValueError):
                g.targets[0] = 0
        assert g.targets.flags.writeable  # escape hatch restored

    def test_write_through_alias_raises_during_sanitized_run(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3).copy_writable()
        alias = g.targets
        with frozen_arrays(g):
            with pytest.raises(ValueError):
                alias[0] = 2


class TestInjectedCorruption:
    def _fresh(self, graph, source):
        n = graph.num_vertices
        parent = np.full(n, -1, dtype=np.int64)
        level = np.full(n, -1, dtype=np.int64)
        parent[source] = source
        level[source] = 0
        return parent, level

    def test_bad_source_rejected(self, rmat_small):
        with pytest.raises(BFSError):
            Sanitizer(rmat_small, -1)
        with pytest.raises(BFSError):
            Sanitizer(rmat_small, 3.5)

    def test_parent_corruption_engine_level(self, rmat_small, rmat_source, monkeypatch):
        """An engine whose claim step mis-levels a vertex must trip the
        sanitizer with the offending level and vertex id."""
        real_step = topdown_mod.top_down_step

        def corrupting_step(graph, frontier, parent, level, depth, workspace=None):
            nf, examined = real_step(
                graph, frontier, parent, level, depth, workspace
            )
            if depth == 1 and nf.size:
                level[nf[0]] = depth + 2  # push one vertex a level too deep
            return nf, examined

        monkeypatch.setattr(topdown_mod, "top_down_step", corrupting_step)
        with pytest.raises(SanitizerError) as exc:
            bfs_top_down(rmat_small, rmat_source, sanitize=True)
        assert exc.value.level == 2
        assert len(exc.value.vertices) >= 1

    def test_wrong_level_reported(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        san = Sanitizer(g, 0)
        parent, level = self._fresh(g, 0)
        parent[1] = 0
        level[1] = 5  # should be 1
        with pytest.raises(SanitizerError) as exc:
            san.after_level(0, np.array([0]), np.array([1]), parent, level)
        assert exc.value.level == 1
        assert exc.value.vertices == (1,)

    def test_parent_not_one_shallower(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        san = Sanitizer(g, 0)
        parent, level = self._fresh(g, 0)
        parent[1], level[1] = 0, 1
        san.after_level(0, np.array([0]), np.array([1]), parent, level)
        # level 1 claims vertex 2 but names the source (level 0) as parent
        parent[2], level[2] = 0, 2
        with pytest.raises(SanitizerError) as exc:
            san.after_level(1, np.array([1]), np.array([2]), parent, level)
        assert "one level shallower" in str(exc.value)
        assert exc.value.vertices == (2,)

    def test_double_visit(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        san = Sanitizer(g, 0)
        parent, level = self._fresh(g, 0)
        parent[1], level[1] = 0, 1
        san.after_level(0, np.array([0]), np.array([1]), parent, level)
        parent[2], level[2] = 1, 2
        level[1] = 2  # vertex 1 claimed again
        parent[1] = 1
        with pytest.raises(SanitizerError) as exc:
            san.after_level(1, np.array([1]), np.array([2, 1]), parent, level)
        assert "twice" in str(exc.value) or "shallower" in str(exc.value)

    def test_bitmap_queue_disagreement(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        san = Sanitizer(g, 0)
        parent, level = self._fresh(g, 0)
        parent[1], level[1] = 0, 1
        mask = np.zeros(4, dtype=bool)
        mask[0] = True
        mask[3] = True  # extra member not in the queue
        with pytest.raises(SanitizerError) as exc:
            san.after_level(
                0,
                np.array([0]),
                np.array([1]),
                parent,
                level,
                in_frontier=mask,
            )
        assert 3 in exc.value.vertices

    def test_unvisited_count_mismatch(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        san = Sanitizer(g, 0)
        parent, level = self._fresh(g, 0)
        parent[1], level[1] = 0, 1
        parent[3] = 2  # phantom claim never reported to the sanitizer
        with pytest.raises(SanitizerError) as exc:
            san.after_level(0, np.array([0]), np.array([1]), parent, level)
        assert "unvisited count" in str(exc.value)

    def test_finish_detects_map_disagreement(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        san = Sanitizer(g, 0)
        parent, level = self._fresh(g, 0)
        level[3] = 7  # reached per level map, unreached per parent map
        with pytest.raises(SanitizerError) as exc:
            san.finish(parent, level)
        assert 3 in exc.value.vertices


class TestRaceTracker:
    """Thread-ownership write tracking: the level's legitimate write
    set is exactly the claimed next frontier."""

    def _maps(self, n, source):
        parent = np.full(n, -1, dtype=np.int64)
        level = np.full(n, -1, dtype=np.int64)
        parent[source] = source
        level[source] = 0
        return parent, level

    def test_bad_source_rejected(self, rmat_small):
        with pytest.raises(BFSError):
            RaceTracker(rmat_small, rmat_small.num_vertices)
        with pytest.raises(BFSError):
            RaceTracker(rmat_small, 3.5)

    def test_clean_level_verifies(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        tracker = RaceTracker(g, 0)
        parent, level = self._maps(4, 0)
        tracker.begin_level(parent, level)
        parent[1], level[1] = 0, 1  # the main-thread merge
        tracker.verify_level(0, parent, level, np.array([1]))
        assert tracker.levels_verified == 1
        assert tracker.writes_verified == 2  # parent + level entries

    def test_rogue_write_raises(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        tracker = RaceTracker(g, 0)
        parent, level = self._maps(4, 0)
        tracker.begin_level(parent, level)
        parent[1], level[1] = 0, 1
        parent[3] = 9  # not in the claimed set: a bypassing write
        with pytest.raises(SanitizerError) as exc:
            tracker.verify_level(0, parent, level, np.array([1]))
        assert "outside the claimed next frontier" in str(exc.value)
        assert exc.value.level == 0
        assert 3 in exc.value.vertices

    def test_unwritten_claim_raises(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        tracker = RaceTracker(g, 0)
        parent, level = self._maps(4, 0)
        tracker.begin_level(parent, level)
        parent[1], level[1] = 0, 1
        with pytest.raises(SanitizerError) as exc:
            tracker.verify_level(0, parent, level, np.array([1, 2]))
        assert "never written" in str(exc.value)
        assert 2 in exc.value.vertices

    def test_stamps_reset_each_level(self):
        g = CSRGraph.from_edges([0], [1], 2)
        tracker = RaceTracker(g, 0)
        parent, level = self._maps(2, 0)
        tracker.begin_level(parent, level)
        tracker.stamp_chunk("expand@0")
        tracker.stamp_chunk("expand@0")
        assert len(tracker._stamps) == 2
        tracker.begin_level(parent, level)
        assert tracker._stamps == []

    def test_summary_counts(self):
        g = CSRGraph.from_edges([0], [1], 2)
        tracker = RaceTracker(g, 0)
        parent, level = self._maps(2, 0)
        tracker.begin_level(parent, level)
        parent[1], level[1] = 0, 1
        tracker.verify_level(0, parent, level, np.array([1]))
        assert "1 levels" in tracker.summary()
        assert "0 rogue writes" in tracker.summary()


class TestErrorStructure:
    def test_message_carries_level_and_vertices(self):
        err = SanitizerError("boom", level=4, vertices=(10, 20))
        assert err.level == 4
        assert err.vertices == (10, 20)
        assert "level 4" in str(err) and "10" in str(err)

    def test_vertex_list_truncated_in_message(self):
        err = SanitizerError("boom", level=1, vertices=tuple(range(100)))
        assert len(err.vertices) == 100
        assert "+92" in str(err)

    def test_summary_reports_clean(self, rmat_small, rmat_source):
        san = Sanitizer(rmat_small, rmat_source)
        assert "0 violations" in san.summary()
