"""BFSWorkspace: reuse correctness, adversarial topologies, claim step,
the frontier mask, and the parallel engine's pool lifecycle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import (
    BFSWorkspace,
    ParallelBFS,
    bfs_bottom_up,
    bfs_hybrid,
    bfs_reference,
    bfs_top_down,
    msbfs,
)
from repro.bfs.topdown import claim_first_writer
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, rmat


def _engines(ws=None):
    return {
        "td": lambda g, s: bfs_top_down(g, s, workspace=ws),
        "bu": lambda g, s: bfs_bottom_up(g, s, workspace=ws),
        "hybrid": lambda g, s: bfs_hybrid(g, s, m=20, n=100, workspace=ws),
    }


def _check_against_reference(graph, source, result):
    """Levels must equal the reference; parents must form a valid tree."""
    ref = bfs_reference(graph, source)
    np.testing.assert_array_equal(result.level, ref.level)
    result.validate(graph)


# -- adversarial topologies -------------------------------------------------


def star_graph(n=64):
    """Hub 0 connected to every other vertex."""
    hub = np.zeros(n - 1, dtype=np.int64)
    spokes = np.arange(1, n, dtype=np.int64)
    return CSRGraph.from_edges(hub, spokes, n)


def long_chain(n=200):
    """A single path 0-1-2-…-(n-1): maximal depth, frontier size 1."""
    src = np.arange(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(src, src + 1, n)


def with_isolated(n=50):
    """A small clique plus a block of degree-0 vertices."""
    k = 6
    src, dst = np.meshgrid(np.arange(k), np.arange(k))
    sel = src != dst
    return CSRGraph.from_edges(src[sel], dst[sel], n)


def duplicate_edges(n=30):
    """Every edge stored several times (dedup disabled)."""
    rng = np.random.default_rng(0)
    src = rng.integers(0, n, 150)
    dst = rng.integers(0, n, 150)
    src = np.concatenate([src, src, src])
    dst = np.concatenate([dst, dst, dst])
    return CSRGraph.from_edges(src, dst, n, dedup=False)


ADVERSARIAL = {
    "star": (star_graph(), 0),
    "star-leaf": (star_graph(), 17),
    "chain": (long_chain(), 0),
    "chain-middle": (long_chain(), 99),
    "isolated": (with_isolated(), 2),
    "dup-edges": (duplicate_edges(), 0),
}


class TestAdversarialTopologies:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("engine", ["td", "bu", "hybrid"])
    def test_matches_reference(self, name, engine):
        graph, source = ADVERSARIAL[name]
        result = _engines()[engine](graph, source)
        _check_against_reference(graph, source, result)

    @pytest.mark.parametrize("engine", ["td", "bu", "hybrid"])
    def test_empty_graph(self, engine):
        graph = CSRGraph.empty(5)
        result = _engines()[engine](graph, 3)
        assert result.num_reached == 1
        assert result.parent[3] == 3
        _check_against_reference(graph, 3, result)

    def test_source_out_of_range(self):
        graph = CSRGraph.empty(5)
        for run in _engines().values():
            with pytest.raises(BFSError):
                run(graph, 5)


# -- workspace reuse --------------------------------------------------------


class TestWorkspaceReuse:
    def test_many_sources_identical_to_fresh(self, rmat_small):
        """One workspace across many roots must reproduce fresh runs
        bit for bit (parents, levels, counters)."""
        ws = BFSWorkspace.for_graph(rmat_small)
        rng = np.random.default_rng(1)
        sources = rng.integers(0, rmat_small.num_vertices, 12)
        for s in sources:
            s = int(s)
            for kind in ("td", "bu", "hybrid"):
                warm = _engines(ws)[kind](rmat_small, s)
                fresh = _engines()[kind](rmat_small, s)
                np.testing.assert_array_equal(warm.parent, fresh.parent)
                np.testing.assert_array_equal(warm.level, fresh.level)
                assert warm.edges_examined == fresh.edges_examined
                assert warm.directions == fresh.directions

    def test_mixed_engines_share_one_workspace(self, rmat_small):
        """Interleaving different engines on one workspace is safe."""
        ws = BFSWorkspace.for_graph(rmat_small)
        s = 5
        for kind in ("hybrid", "bu", "td", "hybrid", "bu"):
            result = _engines(ws)[kind](rmat_small, s)
            _check_against_reference(rmat_small, s, result)

    def test_adversarial_reuse(self):
        """Reuse across topologies that stress the unvisited tracking."""
        graph, _ = ADVERSARIAL["isolated"]
        ws = BFSWorkspace.for_graph(graph)
        for s in (2, 0, 5, 2, 40):
            result = bfs_hybrid(graph, s, m=2, n=2, workspace=ws)
            _check_against_reference(graph, s, result)

    def test_results_alias_workspace(self, rmat_small):
        ws = BFSWorkspace.for_graph(rmat_small)
        first = bfs_hybrid(rmat_small, 1, m=20, n=100, workspace=ws)
        assert first.parent is ws.parent
        kept = bfs_hybrid(
            rmat_small, 2, m=20, n=100, workspace=ws
        ).detach()
        assert kept.parent is not ws.parent
        third = bfs_hybrid(rmat_small, 3, m=20, n=100, workspace=ws)
        _check_against_reference(rmat_small, 2, kept)
        _check_against_reference(rmat_small, 3, third)

    def test_parallel_result_reads_next_traversal(self):
        """ParallelBFS lends the same way: a result read after the next
        traversal of its workspace reads that traversal."""
        graph = grid2d(4, 4)
        with ParallelBFS(num_threads=2) as engine:
            ws = BFSWorkspace(graph.num_vertices)
            first = engine.run(graph, 0, workspace=ws)
            second = engine.run(graph, 15, workspace=ws)  # first still live
        assert first.parent is second.parent is ws.parent
        assert first.source == 0
        assert int(first.level[0]) == 6  # now reads the BFS from 15

    def test_parallel_detached_result_survives_reuse(self):
        """A detached result owns its arrays: re-lending the workspace
        leaves it intact."""
        graph = grid2d(4, 4)
        with ParallelBFS(num_threads=2) as engine:
            ws = BFSWorkspace(graph.num_vertices)
            first = engine.run(graph, 0, workspace=ws)
            first.detach()
            second = engine.run(graph, 15, workspace=ws)
        assert not np.shares_memory(first.parent, second.parent)
        assert int(first.parent[0]) == 0 and int(first.level[0]) == 0
        assert int(second.level[0]) == 6
        first.validate(graph)
        second.validate(graph)

    def test_private_workspace_results_independent(self, rmat_small):
        """Without an explicit workspace, results own their arrays."""
        a = bfs_hybrid(rmat_small, 1, m=20, n=100)
        b = bfs_hybrid(rmat_small, 2, m=20, n=100)
        _check_against_reference(rmat_small, 1, a)
        _check_against_reference(rmat_small, 2, b)

    def test_msbfs_workspace_reuse(self, rmat_small):
        ws = BFSWorkspace.for_graph(rmat_small)
        sources = np.array([1, 5, 9], dtype=np.int64)
        warm1 = msbfs(rmat_small, sources, workspace=ws)
        fresh = msbfs(rmat_small, sources)
        np.testing.assert_array_equal(warm1.levels, fresh.levels)
        warm2 = msbfs(rmat_small, sources[::-1].copy(), workspace=ws)
        np.testing.assert_array_equal(
            warm2.levels, fresh.levels[::-1]
        )

    def test_bad_workspace_size_begin(self):
        ws = BFSWorkspace(4)
        with pytest.raises(BFSError):
            ws.begin(4)
        with pytest.raises(BFSError):
            BFSWorkspace(-1)


# -- the O(k) claim step ----------------------------------------------------


class TestClaimFirstWriter:
    def test_matches_unique_claim(self, rng):
        """The reversed-scatter claim must match the historical stable
        np.unique(return_index) claim on random duplicate-heavy input."""
        n = 500
        for trial in range(20):
            k = int(rng.integers(1, 2000))
            cand = rng.integers(0, n, k).astype(np.int32)
            cand_parent = rng.integers(0, n, k)

            parent_a = np.full(n, -1, dtype=np.int64)
            level_a = np.full(n, -1, dtype=np.int64)
            nf_a = claim_first_writer(
                cand, cand_parent, parent_a, level_a, depth=3
            )

            parent_b = np.full(n, -1, dtype=np.int64)
            level_b = np.full(n, -1, dtype=np.int64)
            uniq, first_idx = np.unique(cand, return_index=True)
            uniq = uniq.astype(np.int64)
            parent_b[uniq] = cand_parent[first_idx]
            level_b[uniq] = 4

            np.testing.assert_array_equal(nf_a, uniq)
            np.testing.assert_array_equal(parent_a, parent_b)
            np.testing.assert_array_equal(level_a, level_b)

    def test_workspace_and_cold_paths_agree(self, rng):
        n = 200
        ws = BFSWorkspace(n)
        cand = rng.integers(0, n, 700).astype(np.int32)
        cand_parent = rng.integers(0, n, 700)
        out = []
        for workspace in (None, ws):
            parent = np.full(n, -1, dtype=np.int64)
            level = np.full(n, -1, dtype=np.int64)
            nf = claim_first_writer(
                cand, cand_parent, parent, level, 0, workspace
            )
            out.append((nf, parent, level))
        np.testing.assert_array_equal(out[0][0], out[1][0])
        np.testing.assert_array_equal(out[0][1], out[1][1])
        np.testing.assert_array_equal(out[0][2], out[1][2])


# -- the frontier mask ------------------------------------------------------


class TestBitmapFastPaths:
    """The workspace's ``bool[V]`` frontier mask, the paper's frontier
    bitmap at one byte per vertex."""

    def test_workspace_load_frontier_cycles(self):
        """Every load reuses the one mask the workspace allocated."""
        ws = BFSWorkspace(150)
        mask = ws.frontier_mask
        for ids in ([1, 64, 149], [2], []):
            assert ws.load_frontier(np.array(ids, dtype=np.int64)) is mask
            assert np.flatnonzero(mask).tolist() == ids


@given(
    st.integers(min_value=1, max_value=400).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(0, n - 1), min_size=1),
            st.sets(st.integers(0, n - 1), max_size=5),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_load_frontier_large_then_small(case):
    """Reloading a small frontier after a large one leaves only the
    small one's entries: the large one's are cleared first."""
    size, large, small = case
    ws = BFSWorkspace(size)
    ws.load_frontier(np.array(sorted(large), dtype=np.int64))
    mask = ws.load_frontier(np.array(sorted(small), dtype=np.int64))
    assert np.flatnonzero(mask).tolist() == sorted(small)


class TestUnvisitedIds:
    def test_matches_two_step_build(self, rng):
        """One mask over ``parent`` and ``degrees`` gives the list the
        ``flatnonzero``-then-degree-filter build gave."""
        graph = rmat(10, 4, seed=1)
        assert (graph.degrees == 0).sum() > 100
        parent = np.where(rng.random(graph.num_vertices) < 0.4, 0, -1)
        want = np.flatnonzero(parent < 0)
        want = want[graph.degrees[want] > 0]
        got = BFSWorkspace.for_graph(graph).unvisited_ids(graph, parent)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# -- parallel engine lifecycle ----------------------------------------------


class TestParallelLifecycle:
    def test_closed_engine_raises(self, rmat_small):
        engine = ParallelBFS(num_threads=2)
        engine.close()
        assert engine.closed
        with pytest.raises(BFSError, match="closed"):
            engine.run(rmat_small, 0)

    def test_context_manager_closes(self, rmat_small):
        with ParallelBFS(num_threads=2) as engine:
            result = engine.run(rmat_small, 0)
            _check_against_reference(rmat_small, 0, result)
        assert engine.closed
        with pytest.raises(BFSError):
            engine.run(rmat_small, 0)

    def test_close_idempotent(self):
        engine = ParallelBFS(num_threads=1)
        engine.close()
        engine.close()

    def test_parallel_workspace_reuse(self, rmat_small):
        ws = BFSWorkspace.for_graph(rmat_small)
        with ParallelBFS.hybrid(num_threads=3, m=20, n=100) as engine:
            for s in (0, 7, 0, 31):
                warm = engine.run(rmat_small, s, workspace=ws)
                fresh = engine.run(rmat_small, s)
                np.testing.assert_array_equal(warm.parent, fresh.parent)
                np.testing.assert_array_equal(warm.level, fresh.level)
                assert warm.edges_examined == fresh.edges_examined


# -- warm-path allocation telemetry ----------------------------------------


class TestAllocationFreedom:
    def test_no_scratch_growth_after_warmup(self):
        """Once every source has been traversed once, repeating them
        must not grow the workspace's scratch pool: all reusable arrays
        are warm and nothing graph- or frontier-sized is reallocated."""
        graph = rmat(11, 8, seed=3)
        ws = BFSWorkspace.for_graph(graph)
        sources = (1, 2, 3, 4, 5, 6)
        for s in sources:
            bfs_hybrid(graph, s, m=20, n=100, workspace=ws)

        def pool_bytes():
            total = sum(b.nbytes for b in ws._buffers.values())
            for arr in (ws._iota, ws._claim_slot, ws._unv_backing,
                        ws._unv_spare):
                if arr is not None:
                    total += arr.nbytes
            return total

        before = pool_bytes()
        for _ in range(3):
            for s in sources:
                bfs_hybrid(graph, s, m=20, n=100, workspace=ws)
        assert pool_bytes() == before
