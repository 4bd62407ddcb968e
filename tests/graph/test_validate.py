"""Unit tests for repro.graph.validate (Graph 500-style checks)."""

import numpy as np
import pytest

from repro.bfs.reference import bfs_reference
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring, star
from repro.graph.validate import (
    _level_keys,
    _scan_entries,
    check_bfs,
    validate_bfs,
)


@pytest.fixture()
def valid_run(rmat_small, rmat_source):
    res = bfs_reference(rmat_small, rmat_source)
    return rmat_small, rmat_source, res.parent.copy(), res.level.copy()


class TestAccepts:
    def test_reference_output_valid(self, valid_run):
        g, s, parent, level = valid_run
        assert check_bfs(g, s, parent, level) == []
        validate_bfs(g, s, parent, level)  # no raise

    def test_star_from_hub(self):
        g = star(6)
        res = bfs_reference(g, 0)
        validate_bfs(g, 0, res.parent, res.level)

    def test_star_from_leaf(self):
        g = star(6)
        res = bfs_reference(g, 3)
        validate_bfs(g, 3, res.parent, res.level)

    def test_ring(self):
        g = ring(9)
        res = bfs_reference(g, 4)
        validate_bfs(g, 4, res.parent, res.level)

    def test_disconnected_component_ok(self):
        # Two disjoint edges; BFS from 0 must leave 2, 3 unreached.
        g = CSRGraph.from_edges([0, 2], [1, 3], 4)
        res = bfs_reference(g, 0)
        assert res.level[2] == -1
        validate_bfs(g, 0, res.parent, res.level)

    def test_alternative_parent_accepted(self, valid_run):
        """Any shortest-path tree is valid, not just the reference's."""
        g, s, parent, level = valid_run
        # Pick a vertex at level >= 2 and re-parent it to another
        # neighbour one level up, if one exists.
        for v in np.nonzero(level >= 2)[0]:
            for u in g.neighbors(v):
                if level[u] == level[v] - 1 and u != parent[v]:
                    parent[v] = u
                    assert check_bfs(g, s, parent, level) == []
                    return
        pytest.skip("no alternative parent in this graph")


class TestRejects:
    def test_wrong_source_level(self, valid_run):
        g, s, parent, level = valid_run
        level[s] = 1
        assert check_bfs(g, s, parent, level)

    def test_source_not_own_parent(self, valid_run):
        g, s, parent, level = valid_run
        parent[s] = -1
        assert check_bfs(g, s, parent, level)

    def test_level_skip(self, valid_run):
        g, s, parent, level = valid_run
        v = int(np.nonzero(level == 1)[0][0])
        level[v] = 2
        failures = check_bfs(g, s, parent, level)
        assert failures

    def test_parent_level_disagree_on_reached(self, valid_run):
        g, s, parent, level = valid_run
        v = int(np.nonzero(level == 1)[0][0])
        parent[v] = -1  # level still says reached
        assert any("disagree" in f for f in check_bfs(g, s, parent, level))

    def test_fake_tree_edge(self, valid_run):
        g, s, parent, level = valid_run
        # Find a vertex at level 2 and claim its parent is a non-adjacent
        # level-1 vertex.
        lvl1 = np.nonzero(level == 1)[0]
        lvl2 = np.nonzero(level == 2)[0]
        for v in lvl2:
            nbrs = set(g.neighbors(v).tolist())
            for u in lvl1:
                if int(u) not in nbrs:
                    parent[v] = u
                    assert any(
                        "not graph edges" in f
                        for f in check_bfs(g, s, parent, level)
                    )
                    return
        pytest.skip("every level-1 vertex adjacent to every level-2 vertex")

    def test_unreached_but_adjacent(self, valid_run):
        g, s, parent, level = valid_run
        v = int(np.nonzero(level == 2)[0][0])
        parent[v] = -1
        level[v] = -1
        failures = check_bfs(g, s, parent, level)
        assert any("unreached" in f for f in failures)

    def test_shape_mismatch(self, valid_run):
        g, s, parent, level = valid_run
        assert check_bfs(g, s, parent[:-1], level[:-1])

    def test_bad_source(self, valid_run):
        g, _, parent, level = valid_run
        assert check_bfs(g, -1, parent, level)

    def test_validate_raises(self, valid_run):
        g, s, parent, level = valid_run
        level[s] = 3
        with pytest.raises(ValidationError):
            validate_bfs(g, s, parent, level)


class TestEdgeCases:
    """Boundary structures: isolated sources, self-loop-only vertices,
    deliberate parent-array corruption."""

    def test_disconnected_source(self):
        """BFS from an isolated vertex reaches only itself and must
        still validate (and reject any phantom reachability)."""
        g = CSRGraph.from_edges([0, 1], [1, 2], 5)  # 3, 4 isolated
        res = bfs_reference(g, 4)
        assert res.num_reached == 1
        assert check_bfs(g, 4, res.parent, res.level) == []
        # Claiming an unreachable vertex was reached must fail.
        parent, level = res.parent.copy(), res.level.copy()
        parent[0], level[0] = 4, 1
        assert check_bfs(g, 4, parent, level)

    def test_self_loop_only_vertex(self):
        """A vertex whose only incident edge is a self loop: with the
        Graph 500 preprocessing the loop is dropped, so the vertex is
        isolated and unreachable from the rest of the graph."""
        g = CSRGraph.from_edges([0, 1, 3], [1, 2, 3], 4)
        assert g.degree(3) == 0  # self loop removed by construction
        res = bfs_reference(g, 0)
        assert res.level[3] == -1
        assert check_bfs(g, 0, res.parent, res.level) == []
        # From the self-loop vertex itself: a single-vertex traversal.
        res3 = bfs_reference(g, 3)
        assert res3.num_reached == 1
        assert check_bfs(g, 3, res3.parent, res3.level) == []

    def test_self_loop_kept_when_not_dropped(self):
        """Self loops retained in storage must not break validation:
        the loop spans zero levels by definition."""
        g = CSRGraph.from_edges(
            [0, 1, 1], [1, 2, 1], 3, drop_self_loops=False
        )
        res = bfs_reference(g, 0)
        assert check_bfs(g, 0, res.parent, res.level) == []

    def test_corrupted_parent_array_rejected(self, valid_run):
        """A parent map pointing inside the right level structure but at
        non-adjacent vertices must be rejected by check 4."""
        g, s, parent, level = valid_run
        rng = np.random.default_rng(0)
        reached = np.nonzero(level > 0)[0]
        # Corrupt a swath of parents to random reached vertices.
        victims = reached[:: max(1, reached.size // 16)]
        parent = parent.copy()
        parent[victims] = rng.choice(reached, size=victims.size)
        failures = check_bfs(g, s, parent, level)
        assert failures, "corrupted parent array slipped through"

    def test_cyclic_parent_chain_rejected(self, valid_run):
        """Two vertices claiming each other as parents cannot form a
        valid BFS tree at consistent levels."""
        g, s, parent, level = valid_run
        lvl2 = np.nonzero(level == 2)[0]
        if lvl2.size < 2:
            pytest.skip("graph too shallow for a 2-cycle at level 2")
        a, b = int(lvl2[0]), int(lvl2[1])
        parent = parent.copy()
        parent[a], parent[b] = b, a
        assert check_bfs(g, s, parent, level)

    def test_all_parents_minus_one_except_source(self, valid_run):
        """Wiping the parent map while levels still claim reachability
        must trip the agreement check."""
        g, s, parent, level = valid_run
        parent = np.full_like(parent, -1)
        parent[s] = s
        failures = check_bfs(g, s, parent, level)
        assert any("disagree" in f for f in failures)


#: Edges 0-1, 0-2, 1-3, 2-3, 3-4; vertex 5 is isolated.
PATH_GRAPH = ([0, 0, 1, 2, 3], [1, 2, 3, 3, 4], 6)
PATH_PARENT = [0, 0, 0, 1, 3, -1]
PATH_LEVEL = [0, 1, 1, 2, 3, -1]
SPAN_1 = ["1 tree edges do not drop exactly one level",
          "2 graph edges span more than one level"]
DISAGREE_2 = ["parent map and level map disagree on reached set",
              "2 edges join reached to unreached vertices"]
BAD_PARENT = ["1 vertices have an unreached/invalid parent"]


class TestDtypes:
    """Failure lists pinned from the validator before it streamed over
    the CSR, for int32 and int64 maps holding out-of-range values."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "parent_edits, level_edits, expected",
        [
            ({}, {}, []),
            ({}, {4: 2**31 - 1}, SPAN_1),
            ({5: -9}, {5: -7}, []),
            ({}, {4: -3}, DISAGREE_2),
            ({}, {2: -(2**31)}, [DISAGREE_2[0],
                                 "4 edges join reached to unreached vertices"]),
            ({4: -5}, {}, [DISAGREE_2[0]] + BAD_PARENT),
            ({4: 6}, {}, BAD_PARENT),
            ({4: 2**31 - 1}, {}, BAD_PARENT),
        ],
    )
    def test_pinned(self, dtype, parent_edits, level_edits, expected):
        self._check(dtype, parent_edits, level_edits, expected)

    @pytest.mark.parametrize(
        "parent_edits, level_edits, expected",
        [
            ({}, {4: 2**31}, SPAN_1),
            ({}, {3: 2**40, 4: 2**40 + 5},
             ["2 tree edges do not drop exactly one level",
              "6 graph edges span more than one level"]),
            ({}, {3: 2**40, 4: 2**40 + 1},
             ["1 tree edges do not drop exactly one level",
              "4 graph edges span more than one level"]),
            ({4: 2**40}, {}, BAD_PARENT),
        ],
    )
    def test_pinned_int64_only(self, parent_edits, level_edits, expected):
        self._check(np.int64, parent_edits, level_edits, expected)

    @staticmethod
    def _check(dtype, parent_edits, level_edits, expected):
        g = CSRGraph.from_edges(*PATH_GRAPH)
        parent = np.array(PATH_PARENT, dtype=dtype)
        level = np.array(PATH_LEVEL, dtype=dtype)
        for v, p in parent_edits.items():
            parent[v] = p
        for v, lv in level_edits.items():
            level[v] = lv
        assert check_bfs(g, 0, parent, level) == expected
        assert parent.dtype == dtype and level.dtype == dtype

    def test_wide_keys_count_like_narrow_ones(self, valid_run):
        """Graphs with 3n >= 2**30 get int64 keys; the per-entry
        arithmetic must count the same as with int32 keys."""
        g, s, parent, level = valid_run
        rng = np.random.default_rng(1)
        level = np.where(rng.random(level.size) < 0.1, -1, level)
        level[rng.integers(level.size, size=20)] += 2
        key = _level_keys(level, g.num_vertices)
        claim = np.where(level > 0, parent, -1).astype(np.int32)
        wide_key = key.astype(np.int64)
        wide_key[level < 0] = np.iinfo(np.int64).min
        narrow = _scan_entries(g, key, claim)
        wide = _scan_entries(g, wide_key, claim)
        assert key.dtype == np.int32 and narrow == wide
        assert narrow[0] > 0 and narrow[1] > 0
