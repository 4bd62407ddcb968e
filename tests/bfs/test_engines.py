"""Differential + unit tests for the four BFS engines.

Every engine must produce the same level map as the pure-Python
reference on every graph family, and every output must pass Graph 500
validation.
"""

import numpy as np
import pytest

from repro.bfs.bottomup import bfs_bottom_up
from repro.bfs.hybrid import MNPolicy, bfs_hybrid
from repro.bfs.reference import bfs_reference
from repro.bfs.result import Direction
from repro.bfs.spmv import bfs_spmv
from repro.bfs.topdown import bfs_top_down
from repro.errors import BFSError
from repro.graph.generators import (
    balanced_tree,
    complete,
    grid2d,
    path,
    ring,
    rmat,
    star,
    two_cliques_bridge,
)
from repro.linalg import bfs_bottom_up_tiles

ENGINES = {
    "top_down": bfs_top_down,
    "bottom_up": bfs_bottom_up,
    "spmv": bfs_spmv,
    "hybrid": lambda g, s: bfs_hybrid(g, s, m=20, n=100),
}

FAMILIES = {
    "ring": (ring(17), 0),
    "path": (path(12), 0),
    "path_mid": (path(12), 6),
    "star_hub": (star(30), 0),
    "star_leaf": (star(30), 7),
    "complete": (complete(9), 4),
    "grid": (grid2d(7, 9), 0),
    "tree": (balanced_tree(3, 4), 0),
    "cliques": (two_cliques_bridge(6), 0),
    "rmat": (rmat(9, 16, seed=5), 1),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_levels_match_reference_and_validate(engine, family):
    graph, source = FAMILIES[family]
    ref = bfs_reference(graph, source)
    res = ENGINES[engine](graph, source)
    assert np.array_equal(res.level, ref.level), f"{engine} on {family}"
    res.validate(graph)


@pytest.mark.parametrize("engine", ENGINES)
def test_bad_source_rejected(engine, rmat_small):
    with pytest.raises(BFSError):
        ENGINES[engine](rmat_small, rmat_small.num_vertices)
    with pytest.raises(BFSError):
        ENGINES[engine](rmat_small, -1)
    with pytest.raises(BFSError):
        ENGINES[engine](rmat_small, 3.5)


@pytest.mark.parametrize(
    "engine",
    [bfs_reference, bfs_bottom_up_tiles],
    ids=["reference", "tiles"],
)
@pytest.mark.parametrize("source", [3.5, 3.0, np.float64(2.0)])
def test_non_integral_source_rejected(engine, source, rmat_small):
    """A float source is refused with BFSError, never truncated."""
    with pytest.raises(BFSError, match="integer"):
        engine(rmat_small, source)


@pytest.mark.parametrize("engine", ENGINES)
def test_isolated_source(engine):
    # Vertex 3 is isolated; only it is reached.
    from repro.graph.csr import CSRGraph

    g = CSRGraph.from_edges([0, 1], [1, 2], 4)
    res = ENGINES[engine](g, 3)
    assert res.num_reached == 1
    assert res.level[3] == 0
    res.validate(g)


class TestTopDownSpecifics:
    def test_edges_examined_equals_frontier_degree(self, rmat_small, rmat_source):
        res = bfs_top_down(rmat_small, rmat_source)
        sizes = res.frontier_sizes()
        # Sum of examined edges == total degree of all reached vertices.
        reached = res.level >= 0
        assert sum(res.edges_examined) == int(
            rmat_small.degrees[reached].sum()
        )
        assert len(res.directions) >= len(sizes)

    def test_all_directions_td(self, rmat_small, rmat_source):
        res = bfs_top_down(rmat_small, rmat_source)
        assert set(res.directions) == {Direction.TOP_DOWN}


class TestBottomUpSpecifics:
    def test_all_directions_bu(self, rmat_small, rmat_source):
        res = bfs_bottom_up(rmat_small, rmat_source)
        assert set(res.directions) == {Direction.BOTTOM_UP}

    def test_chunked_matches_unchunked(self, rmat_small, rmat_source):
        a = bfs_bottom_up(rmat_small, rmat_source)
        b = bfs_bottom_up(rmat_small, rmat_source, chunk_entries=100)
        assert np.array_equal(a.level, b.level)
        assert a.edges_examined == b.edges_examined

    def test_tiny_chunk_still_correct(self):
        g = star(20)
        a = bfs_bottom_up(g, 3, chunk_entries=1)
        ref = bfs_reference(g, 3)
        assert np.array_equal(a.level, ref.level)

    def test_bad_chunk_rejected(self, rmat_small, rmat_source):
        with pytest.raises(BFSError):
            bfs_bottom_up(rmat_small, rmat_source, chunk_entries=0)

    def test_early_termination_bounds(self, rmat_small, rmat_source):
        """Edges checked never exceeds the unvisited edge mass."""
        res = bfs_bottom_up(rmat_small, rmat_source)
        assert all(
            e <= rmat_small.num_directed_edges for e in res.edges_examined
        )


class TestHybridSpecifics:
    def test_switches_on_rmat(self, rmat_medium):
        from repro.bfs.profiler import pick_sources

        source = int(pick_sources(rmat_medium, 1, seed=2)[0])
        res = bfs_hybrid(rmat_medium, source, m=20, n=100)
        assert Direction.BOTTOM_UP in res.directions
        assert Direction.TOP_DOWN in res.directions

    def test_extreme_m_n_pure_td(self, rmat_small, rmat_source):
        # Huge |E|/M and |V|/N thresholds -> never switch.
        res = bfs_hybrid(rmat_small, rmat_source, m=1e-9, n=1e-9)
        assert set(res.directions) == {Direction.TOP_DOWN}

    def test_policy_and_mn_mutually_exclusive(self, rmat_small, rmat_source):
        with pytest.raises(BFSError):
            bfs_hybrid(rmat_small, rmat_source, policy=MNPolicy(2, 2), m=2)

    def test_missing_arguments(self, rmat_small, rmat_source):
        with pytest.raises(BFSError):
            bfs_hybrid(rmat_small, rmat_source)
        with pytest.raises(BFSError):
            bfs_hybrid(rmat_small, rmat_source, m=5)

    def test_mn_policy_validation(self):
        with pytest.raises(BFSError):
            MNPolicy(0, 1)
        with pytest.raises(BFSError):
            MNPolicy(1, -1)

    def test_bad_policy_direction(self, rmat_small, rmat_source):
        class Bad:
            def direction(self, state):
                return "sideways"

        with pytest.raises(BFSError):
            bfs_hybrid(rmat_small, rmat_source, policy=Bad())

    def test_hybrid_equals_reference_many_mn(self, rmat_small, rmat_source):
        ref = bfs_reference(rmat_small, rmat_source)
        for m, n in [(1, 1), (5, 50), (1000, 1000), (0.5, 2000)]:
            res = bfs_hybrid(rmat_small, rmat_source, m=m, n=n)
            assert np.array_equal(res.level, ref.level), (m, n)
