"""Unit tests for repro.graph.validate (Graph 500-style checks)."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.bfs import bfs_hybrid
from repro.bfs.reference import bfs_reference
from repro.errors import ValidationError
from repro.graph import validate
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring, rmat, star
from repro.graph.io import load_npz, save_npz
from repro.graph.validate import (
    _blocks,
    _half_list,
    _half_spans,
    _level_keys,
    _scan_directed,
    check_bfs,
    validate_bfs,
)


@pytest.fixture()
def blocked(monkeypatch):
    """Blocks of 64 entries, in the CSR and in the half list."""
    monkeypatch.setattr(validate, "_BLOCK", 64)


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

    @pytest.mark.parametrize("source", [1.5, 3.0, "0", None, np.float64(2)])
    def test_non_integral_source(self, valid_run, source):
        g, _, parent, level = valid_run
        expected = [f"source must be an integer vertex id, got {source!r}"]
        assert check_bfs(g, source, parent, level) == expected
        with pytest.raises(ValidationError, match="integer vertex id"):
            validate_bfs(g, source, parent, level)

    def test_integer_like_sources(self, valid_run):
        """NumPy integers and bools are vertex ids, as for the engines."""
        g, s, parent, level = valid_run
        assert check_bfs(g, np.int32(s), parent, level) == []
        assert check_bfs(g, np.uint64(s), parent, level) == []
        res = bfs_reference(g, 1)
        assert check_bfs(g, True, res.parent, res.level) == []
        assert check_bfs(g, np.int64(g.num_vertices), parent, level) == [
            f"source {g.num_vertices} out of range [0, {g.num_vertices})"
        ]

    @pytest.mark.parametrize("which", ["parent", "level", "both"])
    def test_non_integer_maps(self, valid_run, which):
        """Maps read back from JSON or CSV are often float64."""
        g, s, parent, level = valid_run
        if which != "level":
            parent = parent.astype(np.float64)
        if which != "parent":
            level = level.astype(np.float64)
        expected = [
            f"maps must be integer arrays: parent {parent.dtype},"
            f" level {level.dtype}"
        ]
        assert check_bfs(g, s, parent, level) == expected
        assert check_bfs(g, s, parent.tolist(), level.astype(object)) == [
            f"maps must be integer arrays: parent {parent.dtype},"
            " level object"
        ]
        with pytest.raises(ValidationError, match="integer arrays"):
            validate_bfs(g, s, parent, level)

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


def _directed(src, dst, n):
    return CSRGraph.from_edges(src, dst, n, symmetrize=False)


def _random_directed(seed, n=300, m=900):
    rng = np.random.default_rng(seed)
    return _directed(rng.integers(0, n, m), rng.integers(0, n, m), n)


class TestDirected:
    """Check 5 on a directed graph: an edge ``u -> w`` with ``u``
    reached needs ``w`` reached at a level of at most ``level[u] + 1``;
    an edge from an unreached ``u`` needs nothing."""

    def test_back_edge_of_a_cycle_accepted(self):
        g = _directed([0, 1, 2], [1, 2, 0], 3)
        res = bfs_reference(g, 0)
        assert check_bfs(g, 0, res.parent, res.level) == []

    @pytest.mark.parametrize(
        ("edges", "parent", "level"),
        [
            (([0, 1], [1, 2], 3), [0, 0, -1], [0, 1, -1]),
            (([0], [1], 2), [0, -1], [0, -1]),  # the source's own successor
        ],
        ids=["level-1", "source"],
    )
    def test_unreached_successor_rejected(self, edges, parent, level):
        g = _directed(*edges)
        assert check_bfs(g, 0, parent, level) == [
            "1 edges join reached to unreached vertices"
        ]

    def test_only_edges_out_of_the_reached_set_count(self):
        """2 -> 0 enters the tree from a vertex BFS never reaches and
        bounds nothing; 1 -> 3 leaves it and fails."""
        g = _directed([0, 1, 2], [1, 3, 0], 4)
        assert check_bfs(g, 0, [0, 0, -1, -1], [0, 1, -1, -1]) == [
            "1 edges join reached to unreached vertices"
        ]

    def test_forward_edge_skipping_a_level_rejected(self):
        """0 -> 2 puts 2 at level 1; a tree through 1 at level 2 passes
        checks 1-4 and fails only check 5."""
        g = _directed([0, 1, 0], [1, 2, 2], 3)
        assert check_bfs(g, 0, [0, 0, 1], [0, 1, 2]) == [
            "1 graph edges span more than one level"
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_reference_output_valid(self, seed):
        g = _random_directed(seed)
        for s in (0, 7, 150):
            res = bfs_reference(g, s)
            assert check_bfs(g, s, res.parent, res.level) == []

    def test_blocked_scan_counts_like_one_block(self, blocked):
        """The directed branch through blocks of 64 entries: the
        reference passes and a cut-off subtree counts."""
        g = _random_directed(9)
        assert _blocks(g.offsets)[0].size > 3
        res = bfs_reference(g, 0)
        parent, level = res.parent.copy(), res.level.copy()
        assert check_bfs(g, 0, parent, level) == []
        deep = level == level.max()
        parent[deep], level[deep] = -1, -1
        (failure,) = check_bfs(g, 0, parent, level)
        assert failure.endswith("edges join reached to unreached vertices")


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
        arithmetic of the half-list scan and of the directed scan must
        count the same as with int32 keys."""
        g, s, parent, level = valid_run
        level = _perturbed(level)
        key = _level_keys(level, g.num_vertices)
        wide_key = key.astype(np.int64)
        wide_key[level < 0] = np.iinfo(np.int64).min
        half = _half_list(g)
        narrow = _half_spans(half, key)
        assert key.dtype == np.int32 and narrow == _half_spans(half, wide_key)
        assert narrow[0] > 0 and narrow[1] > 0

        d = _random_directed(9)
        res = bfs_reference(d, 0)
        level = _perturbed(res.level)
        key = _level_keys(level, d.num_vertices)
        key[level < 0] = np.iinfo(np.int32).max
        wide_key = key.astype(np.int64)
        wide_key[level < 0] = np.iinfo(np.int64).max
        claim = np.where(level > 0, res.parent, -1).astype(np.int32)
        narrow = _scan_directed(d, key, claim)
        assert narrow == _scan_directed(d, wide_key, claim)
        assert narrow[0] > 0 and narrow[1] > 0

    def test_wide_keys_count_alike_in_blocks(self, valid_run, blocked):
        """The same comparisons through the blocked scans."""
        assert _blocks(valid_run[0].offsets)[0].size > 3
        assert _blocks(_half_list(valid_run[0]).offsets)[0].size > 3
        assert _blocks(_random_directed(9).offsets)[0].size > 3
        self.test_wide_keys_count_like_narrow_ones(valid_run)


def _perturbed(level):
    """``level`` with a tenth of the vertices unreached and 20 levels
    raised by two: check 5 finds far and mixed entries."""
    rng = np.random.default_rng(1)
    level = np.where(rng.random(level.size) < 0.1, -1, level)
    level[rng.integers(level.size, size=20)] += 2
    return level


def _offsets(degrees):
    return np.concatenate(([0], np.cumsum(degrees)))


class TestBlocks:
    """The entry scan's row blocks and its worker threads."""

    def test_cuts(self, monkeypatch):
        monkeypatch.setattr(validate, "_BLOCK", 4)
        # Row 3 is longer than a block; rows 1, 4, 5 and 8 are empty.
        first, stop = _blocks(_offsets([2, 0, 3, 9, 0, 0, 1, 4, 0]))
        assert first.tolist() == [0, 2, 3, 4, 7]
        assert stop.tolist() == [2, 3, 4, 7, 9]

    def test_empty_blocks_dropped(self, monkeypatch):
        monkeypatch.setattr(validate, "_BLOCK", 4)
        first, stop = _blocks(_offsets([0, 0, 9, 1]))
        assert (first.tolist(), stop.tolist()) == ([2, 3], [3, 4])
        for degrees in ([], [0], [0, 0, 0]):
            first, stop = _blocks(_offsets(degrees))
            assert first.size == stop.size == 0

    @pytest.mark.parametrize("block", [1, 3, 8, 64])
    def test_blocks_tile_the_entries(self, monkeypatch, block):
        monkeypatch.setattr(validate, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(20):
            degrees = rng.integers(0, 3 * block, rng.integers(1, 60))
            degrees[rng.random(degrees.size) < 0.4] = 0
            degrees[-1] += 1
            offsets = _offsets(degrees)
            first, stop = _blocks(offsets)
            assert offsets[first[0]] == 0 and offsets[stop[-1]] == offsets[-1]
            assert (offsets[first[1:]] == offsets[stop[:-1]]).all()
            size = offsets[stop] - offsets[first]
            assert (size > 0).all()
            # A block is a single row, or its rows are shorter than a
            # block and it spans less than two blocks.
            single = stop - first == 1
            assert (size[~single] < 2 * block).all()
            long_rows = np.flatnonzero(degrees > block)
            assert set(long_rows) <= set(first[single].tolist())

    def test_threads_count_like_one_block(self, valid_run, monkeypatch):
        """Eight caller threads, switching every microsecond, check the
        same output on a graph whose half list none has built yet: at
        every block size each gets the one-block failure list, and the
        graph keeps one list."""
        g, s, parent, level = valid_run
        rng = np.random.default_rng(2)
        level = np.where(rng.random(level.size) < 0.05, -1, level)
        parent[rng.integers(parent.size, size=30)] = rng.integers(
            parent.size, size=30
        )
        level[rng.integers(level.size, size=30)] += 2
        whole = check_bfs(g, s, parent, level)
        assert len(whole) >= 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for block in (64, 1000, 7):
                monkeypatch.setattr(validate, "_BLOCK", block)
                fresh = CSRGraph(g.offsets, g.targets)
                got = []
                threads = [
                    threading.Thread(
                        target=lambda: got.append(
                            check_bfs(fresh, s, parent, level)
                        )
                    )
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert got == [whole] * 8
                assert _half_list(fresh) is _half_list(fresh)
        finally:
            sys.setswitchinterval(interval)


class TestMemory:
    def test_peak_does_not_grow_with_entries(self):
        """The scans' temporaries are bounded by the block size, so a
        warm check's traced peak is the same at 3.3 times the entries
        (R-MAT scale 15, edgefactor 16 and 64; the whole-array scan of
        every entry peaked at 15.3 and 48.9 MiB).  The half list the
        first check builds and keeps is four bytes per edge plus the
        row offsets."""
        peaks = []
        for edgefactor in (16, 64):
            g = rmat(15, edgefactor, seed=0)
            root = int(np.argmax(g.degrees))
            res = bfs_hybrid(g, root, m=20, n=100)
            assert check_bfs(g, root, res.parent, res.level) == []
            half = _half_list(g)
            assert half.targets.nbytes + half.offsets.nbytes <= (
                g.targets.nbytes // 2 + g.offsets.nbytes
            )
            tracemalloc.start()
            try:
                assert check_bfs(g, root, res.parent, res.level) == []
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks


def _counting_builds(monkeypatch):
    """Patch the half-list build to count its calls."""
    calls = []
    build = validate._build_half

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(validate, "_build_half", spy)
    return calls


class TestHalfList:
    """The half list of a symmetric graph: built once per frozen graph,
    never stale on a writable one, and only for entries that mirror."""

    NOT_MIRRORED = ["graph is marked symmetric but its entries do not mirror"]

    def test_built_once_per_frozen_graph(self, monkeypatch):
        calls = _counting_builds(monkeypatch)
        g = ring(12)
        res = bfs_reference(g, 0)
        for _ in range(3):
            assert check_bfs(g, 0, res.parent, res.level) == []
        assert len(calls) == 1
        half = _half_list(g)
        assert _half_list(g) is half and len(calls) == 1
        assert half.targets.tolist() == [1, 11, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        assert not half.targets.flags.writeable

    def test_writable_copy_builds_afresh(self, monkeypatch):
        """An edit to a writable copy shows in the next check: the copy
        never reads a list built before the edit."""
        calls = _counting_builds(monkeypatch)
        g = ring(12)
        res = bfs_reference(g, 0)
        assert check_bfs(g, 0, res.parent, res.level) == []
        w = g.copy_writable()
        assert check_bfs(w, 0, res.parent, res.level) == []
        assert len(calls) == 2
        w.targets[0] = 2  # 0 -> 2 has no 2 -> 0, and 1 -> 0 lost its mirror
        assert check_bfs(w, 0, res.parent, res.level) == self.NOT_MIRRORED
        assert len(calls) == 3
        assert check_bfs(g, 0, res.parent, res.level) == []
        assert len(calls) == 3

    @pytest.mark.parametrize(
        ("degrees", "targets"),
        [
            ([1, 0], [1]),
            ([1, 0, 1], [1, 0]),
            ([3, 1, 2], [1, 1, 2, 0, 0, 0]),
        ],
        ids=["one-way", "same-count", "multiplicity"],
    )
    def test_hand_built_graph_that_does_not_mirror(self, degrees, targets):
        """``CSRGraph(offsets, targets)`` is marked symmetric by default.
        The entries below mirror no entry, although in the second graph
        the counts above and below the diagonal agree and in the third
        the pairs do."""
        g = CSRGraph(_offsets(degrees), np.array(targets))
        assert g.symmetric
        parent = [0] + [-1] * (len(degrees) - 1)
        level = [0] + [-1] * (len(degrees) - 1)
        assert check_bfs(g, 0, parent, level) == self.NOT_MIRRORED
        with pytest.raises(ValidationError, match="do not mirror"):
            validate_bfs(g, 0, parent, level)

    def test_tampered_file_does_not_mirror(self, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(ring(6), path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["targets"][0] = 3  # row 0 was [1, 5]
        np.savez_compressed(path, **arrays)
        g = load_npz(path)
        res = bfs_reference(ring(6), 0)
        assert check_bfs(g, 0, res.parent, res.level) == self.NOT_MIRRORED

    def test_repeated_entries_claim_once(self):
        """Without de-duplication row 1 holds 0 twice; vertex 1 still
        claims one tree edge."""
        g = CSRGraph.from_edges([0, 0, 1], [1, 1, 2], 3, dedup=False)
        assert g.neighbors(1).tolist() == [0, 0, 2]
        assert not _half_list(g).distinct
        assert check_bfs(g, 0, [0, 0, 1], [0, 1, 2]) == []
        assert check_bfs(g, 0, [0, 0, 0], [0, 1, 2]) == [
            "1 tree edges do not drop exactly one level",
            "1 tree edges are not graph edges",
        ]
