"""Unit tests for repro.graph.csr."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, coalesce_edges


def triangle() -> CSRGraph:
    return CSRGraph.from_edges([0, 1, 2], [1, 2, 0], 3)


class TestCoalesce:
    def test_symmetrize(self):
        s, d = coalesce_edges(
            np.array([0]), np.array([1]), num_vertices=3
        )
        assert s.tolist() == [0, 1]
        assert d.tolist() == [1, 0]

    def test_dedup(self):
        s, d = coalesce_edges(
            np.array([0, 0, 1]), np.array([1, 1, 0]), num_vertices=2
        )
        assert s.tolist() == [0, 1]

    def test_self_loops_dropped(self):
        s, d = coalesce_edges(
            np.array([0, 1]), np.array([0, 2]), num_vertices=3
        )
        assert 0 not in set(zip(s.tolist(), d.tolist()))
        assert (1, 2) in set(zip(s.tolist(), d.tolist()))

    def test_self_loops_kept_when_asked(self):
        s, d = coalesce_edges(
            np.array([0]),
            np.array([0]),
            num_vertices=1,
            drop_self_loops=False,
            symmetrize=False,
        )
        assert s.tolist() == [0] and d.tolist() == [0]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            coalesce_edges(np.array([0]), np.array([5]), num_vertices=3)

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            coalesce_edges(np.array([-1]), np.array([0]), num_vertices=3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            coalesce_edges(np.array([0, 1]), np.array([1]), num_vertices=3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
    def test_non_integer_endpoints_rejected(self, dtype):
        src = np.array([0, 1], dtype=dtype)
        dst = np.array([1, 0], dtype=dtype)
        with pytest.raises(GraphError, match=f"dtype {np.dtype(dtype)}$"):
            coalesce_edges(src, dst, num_vertices=3)

    def test_dtype_error_names_the_offending_side(self):
        with pytest.raises(GraphError, match="dtype float64$"):
            coalesce_edges(
                np.array([0, 1]), np.array([1.0, 2.0]), num_vertices=3
            )

    def test_sorted_output(self, rng):
        src = rng.integers(0, 50, 200)
        dst = rng.integers(0, 50, 200)
        s, d = coalesce_edges(src, dst, num_vertices=50)
        key = s.astype(np.int64) * 50 + d
        assert np.all(np.diff(key) > 0)  # strictly increasing => sorted+unique


class TestConstruction:
    def test_triangle_basics(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_directed_edges == 6
        assert g.degrees.tolist() == [2, 2, 2]

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0] * 5

    def test_zero_vertices(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0

    def test_from_edges_python_lists(self):
        g = CSRGraph.from_edges([0], [1], 2)
        assert g.num_edges == 1

    def test_from_edges_float_lists_rejected(self):
        # Not truncated to edges 0-1 and 1-2.
        with pytest.raises(GraphError, match="dtype float64"):
            CSRGraph.from_edges([0.5, 1.9], [1.7, 2.2], 3)

    def test_offsets_validation(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([1, 2], dtype=np.int64),
                targets=np.array([0], dtype=np.int32),
            )

    def test_offsets_monotonic(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([0, 2, 1], dtype=np.int64),
                targets=np.array([0, 1], dtype=np.int32),
            )

    def test_offsets_tail_matches_targets(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([0, 3], dtype=np.int64),
                targets=np.array([0], dtype=np.int32),
            )

    def test_target_range_checked(self):
        with pytest.raises(GraphError):
            CSRGraph(
                offsets=np.array([0, 1], dtype=np.int64),
                targets=np.array([5], dtype=np.int32),
            )

    def test_negative_vertices_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([0], [1], -1)

    def test_dtypes(self):
        g = triangle()
        assert g.offsets.dtype == np.int64
        assert g.targets.dtype == np.int32


class TestAccessors:
    def test_neighbors_sorted_view(self):
        g = CSRGraph.from_edges([0, 0], [2, 1], 3)
        nbr = g.neighbors(0)
        assert nbr.tolist() == [1, 2]

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphError):
            triangle().neighbors(3)

    def test_degree(self):
        assert triangle().degree(0) == 2
        with pytest.raises(GraphError):
            triangle().degree(-1)

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)  # symmetrized
        assert not g.has_edge(0, 0)

    def test_has_edge_missing(self):
        g = CSRGraph.from_edges([0], [1], 4)
        assert not g.has_edge(2, 3)

    def test_num_edges_directed_graph(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3, symmetrize=False)
        assert g.num_edges == 2
        assert g.num_directed_edges == 2


class TestTransforms:
    def test_edge_list_roundtrip(self):
        g = triangle()
        s, d = g.edge_list()
        g2 = CSRGraph.from_edges(s, d, 3, symmetrize=False)
        assert np.array_equal(g2.offsets, g.offsets)
        assert np.array_equal(g2.targets, g.targets)

    def test_reverse_symmetric_identity(self):
        g = triangle()
        assert g.reverse() is g

    def test_reverse_directed(self):
        g = CSRGraph.from_edges([0], [1], 2, symmetrize=False)
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert not r.has_edge(0, 1)

    def test_subgraph_mask(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        sub = g.subgraph_mask(np.array([True, True, False, True]))
        assert sub.num_vertices == 3
        # Only edge 0-1 survives (2 was the cut vertex).
        assert sub.num_edges == 1
        assert sub.has_edge(0, 1)

    def test_subgraph_mask_shape_checked(self):
        with pytest.raises(GraphError):
            triangle().subgraph_mask(np.array([True]))

    def test_nbytes_positive(self):
        assert triangle().nbytes() > 0


class TestRmatIntegration:
    def test_rmat_graph_valid(self, rmat_small):
        g = rmat_small
        assert g.num_vertices == 1024
        assert g.symmetric
        # symmetry: every directed edge has its reverse
        s, d = g.edge_list()
        fwd = set(zip(s.tolist(), d.tolist()))
        assert all((b, a) in fwd for a, b in fwd)

    def test_rmat_no_self_loops(self, rmat_small):
        s, d = rmat_small.edge_list()
        assert (s != d).all()


class TestFrozenStorage:
    """Construction freezes the CSR arrays (RPR005's bug class at
    runtime); copy_writable() is the explicit escape hatch."""

    def test_arrays_read_only_by_default(self):
        g = triangle()
        assert not g.offsets.flags.writeable
        assert not g.targets.flags.writeable

    def test_writes_raise(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.offsets[0] = 1
        with pytest.raises(ValueError):
            g.targets[0] = 2

    def test_caller_supplied_arrays_frozen_too(self):
        offsets = np.array([0, 1, 2], dtype=np.int64)
        targets = np.array([1, 0], dtype=np.int32)
        CSRGraph(offsets=offsets, targets=targets)
        # No-copy construction: freezing reaches the caller's arrays.
        assert not offsets.flags.writeable

    def test_copy_writable_is_writable_deep_copy(self):
        g = triangle()
        w = g.copy_writable()
        assert w.offsets.flags.writeable and w.targets.flags.writeable
        assert w.offsets is not g.offsets
        w.targets[0] = 0  # must not raise, must not alias g
        assert not g.targets.flags.writeable

    def test_copy_writable_preserves_structure(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3, meta={"k": 1})
        w = g.copy_writable()
        assert np.array_equal(w.offsets, g.offsets)
        assert np.array_equal(w.targets, g.targets)
        assert w.symmetric == g.symmetric
        assert w.meta == g.meta

    def test_views_inherit_read_only(self):
        g = triangle()
        nbr = g.neighbors(0)
        with pytest.raises(ValueError):
            nbr[0] = 0
