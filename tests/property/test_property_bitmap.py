"""Property-based tests for the bitmap (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.workspace import BFSWorkspace
from repro.graph.bitmap import Bitmap

sizes = st.integers(min_value=0, max_value=500)


@st.composite
def bitmap_and_indices(draw):
    size = draw(st.integers(min_value=1, max_value=400))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1), max_size=100
        )
    )
    return size, np.array(indices, dtype=np.int64)


@given(bitmap_and_indices())
@settings(max_examples=60, deadline=None)
def test_set_many_equals_python_set(case):
    size, indices = case
    bm = Bitmap.from_indices(size, indices)
    want = sorted(set(indices.tolist()))
    assert bm.nonzero().tolist() == want
    assert bm.count() == len(want)


@given(bitmap_and_indices())
@settings(max_examples=60, deadline=None)
def test_roundtrip_bool(case):
    size, indices = case
    bm = Bitmap.from_indices(size, indices)
    assert Bitmap.from_bool(bm.to_bool()) == bm


@given(bitmap_and_indices(), bitmap_and_indices())
@settings(max_examples=60, deadline=None)
def test_union_intersection_laws(a, b):
    size = max(a[0], b[0])
    x = Bitmap.from_indices(size, a[1] % size if size else a[1])
    y = Bitmap.from_indices(size, b[1] % size if size else b[1])
    sx, sy = set(x.nonzero().tolist()), set(y.nonzero().tolist())
    assert set((x | y).nonzero().tolist()) == sx | sy
    assert set((x & y).nonzero().tolist()) == sx & sy
    # De Morgan within the finite domain.
    lhs = x.copy().invert().iand(y.copy().invert())
    rhs = (x | y).invert()
    assert lhs == rhs


@given(bitmap_and_indices())
@settings(max_examples=60, deadline=None)
def test_invert_involution(case):
    size, indices = case
    bm = Bitmap.from_indices(size, indices)
    original = bm.copy()
    bm.invert()
    assert bm.count() == size - original.count()
    bm.invert()
    assert bm == original


@given(bitmap_and_indices())
@settings(max_examples=60, deadline=None)
def test_clear_many_inverse_of_set_many(case):
    size, indices = case
    bm = Bitmap(size)
    bm.set_many(indices)
    bm.clear_many(indices)
    assert bm.count() == 0


@given(bitmap_and_indices())
@settings(max_examples=60, deadline=None)
def test_test_many_matches_membership(case):
    size, indices = case
    bm = Bitmap.from_indices(size, indices)
    probe = np.arange(size, dtype=np.int64)
    got = bm.test_many(probe)
    members = set(indices.tolist())
    assert got.tolist() == [i in members for i in range(size)]


#: Bits on both sides of the first word edges.
WORD_EDGES = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192)


@st.composite
def word_edge_loads(draw):
    """A bitmap's existing bits and an ascending load with duplicates
    that crowds the word edges."""
    size = draw(st.integers(min_value=1, max_value=260))
    index = st.one_of(
        st.sampled_from([i for i in WORD_EDGES if i < size]),
        st.integers(min_value=0, max_value=size - 1),
    )
    before = draw(st.lists(index, max_size=20))
    load = draw(st.lists(index, max_size=80))
    load += draw(st.lists(st.sampled_from(load), max_size=20)) if load else []
    return size, np.array(before, dtype=np.int64), np.sort(
        np.array(load, dtype=np.int64)
    )


@given(
    word_edge_loads(),
    st.sampled_from(("ascending", "descending", "shuffled")),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_set_many_matches_bitwise_or_at(case, order, rnd):
    """``set_many`` ORs each word's run of bits with one ``reduceat``;
    it must equal the Python set and ``np.bitwise_or.at`` on a copy,
    whatever the input order."""
    size, before, load = case
    if order == "descending":
        load = load[::-1].copy()
    elif order == "shuffled":
        load = np.array(rnd.sample(load.tolist(), load.size), dtype=np.int64)
    bm = Bitmap.from_indices(size, before)
    want = bm.words.copy()
    bit = np.uint64(1) << (load & 63).astype(np.uint64)
    np.bitwise_or.at(want, load >> 6, bit)
    bm.set_many(load)
    np.testing.assert_array_equal(bm.words, want)
    assert bm.nonzero().tolist() == sorted(
        set(before.tolist()) | set(load.tolist())
    )


def test_set_many_across_word_edges():
    bm = Bitmap(200)
    bm.set_many(np.array([63, 63, 64, 127, 127, 128, 128, 199]))
    assert bm.nonzero().tolist() == [63, 64, 127, 128, 199]
    bm.set_many(np.array([129, 0, 62, 0]))
    assert bm.nonzero().tolist() == [0, 62, 63, 64, 127, 128, 129, 199]


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
    small one's bits: the large one's words are cleared first."""
    size, large, small = case
    ws = BFSWorkspace(size)
    ws.load_frontier(np.array(sorted(large), dtype=np.int64))
    bits = ws.load_frontier(np.array(sorted(small), dtype=np.int64))
    assert bits.nonzero().tolist() == sorted(small)
