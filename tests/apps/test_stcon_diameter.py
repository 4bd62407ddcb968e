"""Unit tests for st-connectivity and pseudo-diameter."""

import numpy as np
import pytest

from repro.apps.diameter import pseudo_diameter
from repro.apps.stcon import st_connectivity
from repro.bfs.reference import bfs_reference
from repro.bfs.profiler import pick_sources
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    grid2d,
    path,
    ring,
    rmat,
    star,
    two_cliques_bridge,
)


class TestSTConnectivity:
    def test_same_vertex(self, rmat_small):
        r = st_connectivity(rmat_small, 5, 5)
        assert r.connected and r.distance == 0 and r.edges_examined == 0
        assert bool(r)

    def test_adjacent(self):
        g = path(5)
        r = st_connectivity(g, 2, 3)
        assert r.connected and r.distance == 1

    def test_path_endpoints(self):
        g = path(10)
        r = st_connectivity(g, 0, 9)
        assert r.connected and r.distance == 9

    def test_disconnected(self):
        g = CSRGraph.from_edges([0, 2], [1, 3], 4)
        r = st_connectivity(g, 0, 3)
        assert not r.connected
        assert r.distance == -1 and r.meet_vertex == -1
        assert not bool(r)

    def test_bridge_distance(self):
        g = two_cliques_bridge(5)
        # Vertex 0 (clique A) to vertex 9 (clique B): 0 -> 4 -> 5 -> 9.
        r = st_connectivity(g, 0, 9)
        assert r.distance == 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_distance_matches_bfs(self, seed, rmat_small):
        rng = np.random.default_rng(seed)
        src = pick_sources(rmat_small, 2, seed=seed)
        s, t = int(src[0]), int(src[1])
        ref = bfs_reference(rmat_small, s)
        r = st_connectivity(rmat_small, s, t)
        if ref.level[t] >= 0:
            assert r.connected
            assert r.distance == int(ref.level[t])
        else:
            assert not r.connected

    def test_examines_fewer_edges_than_full_bfs(self, rmat_medium):
        src = pick_sources(rmat_medium, 2, seed=9)
        s, t = int(src[0]), int(src[1])
        ref = bfs_reference(rmat_medium, s)
        r = st_connectivity(rmat_medium, s, t)
        if r.connected and r.distance >= 2:
            assert r.edges_examined < sum(ref.edges_examined)

    def test_meet_vertex_valid(self):
        g = grid2d(5, 5)
        r = st_connectivity(g, 0, 24)
        assert r.connected
        assert 0 <= r.meet_vertex < 25

    def test_validation(self, rmat_small):
        with pytest.raises(BFSError):
            st_connectivity(rmat_small, -1, 0)
        with pytest.raises(BFSError):
            st_connectivity(rmat_small, 0, 10**6)
        directed = CSRGraph.from_edges([0], [1], 2, symmetrize=False)
        with pytest.raises(BFSError):
            st_connectivity(directed, 0, 1)


class TestPseudoDiameter:
    def test_path_exact(self):
        est = pseudo_diameter(path(40), 20)
        assert est.lower_bound == 39
        assert {est.endpoint_a, est.endpoint_b} <= set(range(40))

    def test_ring(self):
        est = pseudo_diameter(ring(20), 0)
        assert est.lower_bound == 10

    def test_star(self):
        est = pseudo_diameter(star(50), 3)
        assert est.lower_bound == 2

    def test_grid(self):
        est = pseudo_diameter(grid2d(6, 9), 0)
        assert est.lower_bound == 5 + 8  # manhattan corner-to-corner

    def test_rmat_small_diameter(self, rmat_medium):
        src = int(pick_sources(rmat_medium, 1, seed=0)[0])
        est = pseudo_diameter(rmat_medium, src)
        # The paper's premise: R-MAT diameters are tiny.
        assert 2 <= est.lower_bound <= 12

    def test_is_lower_bound(self):
        """Never exceeds the true diameter (networkx check)."""
        import networkx as nx

        g = rmat(9, 4, seed=5)
        src = int(pick_sources(g, 1, seed=0)[0])
        est = pseudo_diameter(g, src)
        nxg = nx.Graph()
        s, d = g.edge_list()
        nxg.add_edges_from(zip(s.tolist(), d.tolist()))
        comp = nx.node_connected_component(nxg, src)
        true = nx.diameter(nxg.subgraph(comp))
        assert est.lower_bound <= true

    @pytest.mark.parametrize(
        ("graph", "start"),
        [
            (path(40), 20),
            (ring(20), 0),
            (star(50), 3),
            (grid2d(6, 9), 0),
            (rmat(10, 16, seed=1), 5),
        ],
        ids=["path", "ring", "star", "grid", "rmat"],
    )
    def test_endpoints_realize_the_bound(self, graph, start):
        """The endpoints are the best sweep's source and a vertex it
        reached last, read before the next sweep re-lends the
        workspace."""
        est = pseudo_diameter(graph, start)
        level = bfs_reference(graph, est.endpoint_a).level
        assert level[est.endpoint_b] == est.lower_bound

    def test_int_conversion(self):
        assert int(pseudo_diameter(path(5), 0)) == 4

    def test_validation(self, rmat_small):
        with pytest.raises(BFSError):
            pseudo_diameter(rmat_small, -1)
        with pytest.raises(BFSError):
            pseudo_diameter(rmat_small, 0, sweeps=0)
