"""Property-based tests for CSR construction (hypothesis).

``coalesce_edges`` and ``CSRGraph.from_edges`` must agree with a
pure-Python oracle (list filter, mirror, ``sorted``/``set``) on every
generated edge list, under all eight ``(symmetrize, dedup,
drop_self_loops)`` combinations: empty lists, one-vertex graphs, ids at
``n - 1``, self loops, duplicates, and endpoint arrays of six integer
dtypes (``uint64`` must not promote to float64 on the way).
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, coalesce_edges

FLAGS = list(itertools.product((False, True), repeat=3))
DTYPES = (np.int32, np.int64, np.uint32, np.uint64, np.uint8, np.int16)


def oracle(src, dst, symmetrize, dedup, drop_self_loops):
    """The kernel-1 transform one Python tuple at a time."""
    edges = list(zip(src, dst))
    if drop_self_loops:
        edges = [(u, v) for u, v in edges if u != v]
    if symmetrize:
        edges += [(v, u) for u, v in edges]
    return sorted(set(edges)) if dedup else sorted(edges)


@st.composite
def edge_lists(draw, max_n=40, max_edges=60):
    """``(n, src, dst)``: ids biased toward ``0`` and ``n - 1``, so self
    loops, duplicates and the top id all occur often."""
    n = draw(st.integers(1, max_n))
    ids = st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=max_edges))
    dtype = draw(st.sampled_from(DTYPES))
    src = np.array([u for u, _ in pairs], dtype=dtype)
    dst = np.array([v for _, v in pairs], dtype=dtype)
    return n, src, dst


EMPTY = np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("flags", FLAGS)
@given(case=edge_lists())
@example(case=(1, EMPTY, EMPTY))
@example(case=(1, np.int32([0, 0, 0]), np.int32([0, 0, 0])))
@example(case=(5, np.uint32([4, 4, 0]), np.uint32([4, 0, 4])))
@settings(max_examples=50, deadline=None)
def test_coalesce_matches_oracle(flags, case):
    n, src, dst = case
    symmetrize, dedup, drop_self_loops = flags
    s, d = coalesce_edges(
        src,
        dst,
        num_vertices=n,
        symmetrize=symmetrize,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
    )
    assert s.dtype == np.int32 and d.dtype == np.int32
    want = oracle(src.tolist(), dst.tolist(), *flags)
    assert list(zip(s.tolist(), d.tolist())) == want


@pytest.mark.parametrize("flags", FLAGS)
@given(case=edge_lists())
@example(case=(1, EMPTY, EMPTY))
@example(case=(3, np.uint32([2]), np.uint32([2])))
@settings(max_examples=50, deadline=None)
def test_from_edges_matches_oracle(flags, case):
    n, src, dst = case
    symmetrize, dedup, drop_self_loops = flags
    g = CSRGraph.from_edges(
        src,
        dst,
        n,
        symmetrize=symmetrize,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
    )
    want = oracle(src.tolist(), dst.tolist(), *flags)
    offsets = [sum(u < v for u, _ in want) for v in range(n + 1)]
    assert g.offsets.dtype == np.int64 and g.targets.dtype == np.int32
    assert g.offsets.tolist() == offsets
    assert g.targets.tolist() == [v for _, v in want]
    assert g.symmetric == symmetrize
    assert g.num_vertices == n


@pytest.mark.parametrize("flags", FLAGS)
@given(n=st.integers(0, 6))
@settings(max_examples=10, deadline=None)
def test_from_empty_python_lists(flags, n):
    symmetrize, dedup, drop_self_loops = flags
    g = CSRGraph.from_edges(
        [],
        [],
        n,
        symmetrize=symmetrize,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
    )
    assert g.offsets.tolist() == [0] * (n + 1)
    assert g.targets.size == 0
