"""Unit tests for repro.graph.generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    GRAPH500_PARAMS,
    RMATParams,
    balanced_tree,
    complete,
    erdos_renyi,
    grid2d,
    path,
    ring,
    rmat,
    rmat_edges,
    star,
    two_cliques_bridge,
)


class TestRMATParams:
    def test_graph500_defaults(self):
        assert GRAPH500_PARAMS.as_tuple() == (0.57, 0.19, 0.19, 0.05)

    def test_must_sum_to_one(self):
        with pytest.raises(GraphError):
            RMATParams(0.5, 0.5, 0.5, 0.5)

    def test_non_negative(self):
        with pytest.raises(GraphError):
            RMATParams(1.2, -0.2, 0.0, 0.0)

    def test_uniform_allowed(self):
        RMATParams(0.25, 0.25, 0.25, 0.25)


class TestRmatEdges:
    def test_counts(self):
        s, d = rmat_edges(8, 16, seed=0)
        assert s.shape == d.shape == (16 * 256,)
        assert s.min() >= 0 and s.max() < 256

    def test_deterministic(self):
        a = rmat_edges(8, 16, seed=42)
        b = rmat_edges(8, 16, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_output(self):
        a = rmat_edges(8, 16, seed=1)
        b = rmat_edges(8, 16, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_negative_scale_rejected(self):
        with pytest.raises(GraphError):
            rmat_edges(-1, 16)

    def test_negative_edgefactor_rejected(self):
        with pytest.raises(GraphError):
            rmat_edges(4, -1)

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(GraphError, match="scale"):
            rmat_edges(1.5)
        with pytest.raises(GraphError, match="scale"):
            rmat(1.5)
        with pytest.raises(GraphError, match="edgefactor"):
            rmat(4, edgefactor=1.5)

    def test_numpy_integers_accepted(self):
        a = rmat_edges(np.int64(6), np.int32(8), seed=3)
        b = rmat_edges(6, 8, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert rmat(np.int8(4)).num_vertices == 16
        # 1 << np.int8(7) would wrap to -128 without the int conversion.
        g = rmat(np.int8(7), np.int8(4))
        assert g.num_vertices == 128
        assert type(g.meta["scale"]) is int

    def test_skew_toward_a_quadrant(self):
        """With A=0.57 the bit distributions must be skewed (before the
        permutation the low half of id space would dominate; after
        permutation the *degree* distribution carries the skew)."""
        g = rmat(12, 16, seed=3)
        deg = g.degrees
        assert deg.max() > 20 * deg.mean()  # heavy-tailed

    def test_uniform_params_not_skewed(self):
        g = rmat(12, 16, RMATParams(0.25, 0.25, 0.25, 0.25), seed=3)
        assert g.degrees.max() < 10 * g.degrees.mean()


class TestRmat:
    def test_meta(self):
        g = rmat(8, 8, seed=0)
        assert g.meta["family"] == "rmat"
        assert g.meta["scale"] == 8
        assert g.meta["edgefactor"] == 8
        assert g.meta["rmat_params"] == GRAPH500_PARAMS.as_tuple()

    def test_edge_count_close_to_requested(self):
        g = rmat(12, 16, seed=1)
        requested = 16 * 4096
        assert 0.7 * requested < g.num_edges <= requested


class TestDeterministicFamilies:
    def test_ring(self):
        g = ring(10)
        assert g.num_edges == 10
        assert all(g.degree(v) == 2 for v in range(10))

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            ring(2)

    def test_path(self):
        g = path(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1 and g.degree(2) == 2

    def test_path_single_vertex(self):
        g = path(1)
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_star(self):
        g = star(9)
        assert g.degree(0) == 8
        assert all(g.degree(v) == 1 for v in range(1, 9))

    def test_star_too_small(self):
        with pytest.raises(GraphError):
            star(1)

    def test_complete(self):
        g = complete(5)
        assert g.num_edges == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_grid2d(self):
        g = grid2d(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.degree(0) == 2  # corner

    def test_grid2d_bad_dims(self):
        with pytest.raises(GraphError):
            grid2d(0, 4)

    def test_balanced_tree(self):
        g = balanced_tree(2, 3)
        assert g.num_vertices == 15
        assert g.degree(0) == 2
        assert g.degree(14) == 1  # leaf

    def test_balanced_tree_unary(self):
        g = balanced_tree(1, 4)
        assert g.num_vertices == 5  # degenerates to a path

    def test_balanced_tree_bad_args(self):
        with pytest.raises(GraphError):
            balanced_tree(0, 3)
        with pytest.raises(GraphError):
            balanced_tree(2, -1)

    def test_two_cliques_bridge(self):
        g = two_cliques_bridge(4)
        assert g.num_vertices == 8
        # 2 * C(4,2) + 1 bridge
        assert g.num_edges == 13
        assert g.has_edge(3, 4)

    def test_two_cliques_too_small(self):
        with pytest.raises(GraphError):
            two_cliques_bridge(1)


class TestErdosRenyi:
    def test_edge_count(self):
        g = erdos_renyi(1000, 10.0, seed=0)
        assert 0.8 * 5000 < g.num_edges <= 5000

    def test_validation(self):
        with pytest.raises(GraphError):
            erdos_renyi(0, 10.0)
        with pytest.raises(GraphError):
            erdos_renyi(10, -1.0)
        with pytest.raises(GraphError):
            erdos_renyi(10, float("nan"))
        with pytest.raises(GraphError):
            erdos_renyi(10, float("inf"))
        with pytest.raises(GraphError, match="n must be an integer"):
            erdos_renyi(2.5, 1.0)
        assert erdos_renyi(np.int64(10), 2.0, seed=0).num_vertices == 10

    def test_low_skew(self):
        g = erdos_renyi(4096, 16.0, seed=1)
        assert g.degrees.max() < 5 * g.degrees.mean()
