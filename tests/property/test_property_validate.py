"""Property-based tests for the Graph 500 validator (hypothesis).

``check_bfs`` streams its checks over the CSR arrays.  Here it must
return exactly the failure list of a scalar per-edge oracle, on small
symmetric and directed graphs with self loops, multi-edges, isolated
vertices, chains and stars, and it must reject every single-field
corruption of a valid BFS output.  The oracle comparison also runs with
blocks of a few entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.reference import bfs_reference
from repro.graph import validate
from repro.graph.csr import CSRGraph
from repro.graph.validate import check_bfs


def oracle(graph, source, parent, level):
    """The five checks, one vertex and one CSR entry at a time."""
    n = graph.num_vertices
    parent = [int(p) for p in parent]
    level = [int(x) for x in level]
    reached = [x >= 0 for x in level]
    entries = [(u, int(w)) for u in range(n) for w in graph.neighbors(u)]
    out = []
    if any(reached[v] != (parent[v] >= 0) for v in range(n)):
        out.append("parent map and level map disagree on reached set")
    if parent[source] != source:
        out.append(f"source parent must be itself, got {parent[source]}")
    if level[source] != 0:
        out.append(f"source level must be 0, got {level[source]}")
    kids = [v for v in range(n) if reached[v] and v != source]
    ok = [v for v in kids if 0 <= parent[v] < n and reached[parent[v]]]
    if len(ok) < len(kids):
        out.append(
            f"{len(kids) - len(ok)} vertices have an unreached/invalid parent"
        )
    drops = sum(level[v] != level[parent[v]] + 1 for v in ok)
    if drops:
        out.append(f"{drops} tree edges do not drop exactly one level")
    present = set(entries)
    missing = sum((parent[v], v) not in present for v in ok)
    if missing:
        out.append(f"{missing} tree edges are not graph edges")
    if graph.symmetric:
        spans = sum(
            reached[u] and reached[w] and abs(level[u] - level[w]) > 1
            for u, w in entries
        )
        mixed = sum(reached[u] != reached[w] for u, w in entries)
    else:  # an edge u -> w bounds only w, and only when u is reached
        spans = sum(
            reached[u] and reached[w] and level[w] > level[u] + 1
            for u, w in entries
        )
        mixed = sum(reached[u] and not reached[w] for u, w in entries)
    if spans:
        out.append(f"{spans} graph edges span more than one level")
    if mixed:
        out.append(f"{mixed} edges join reached to unreached vertices")
    return out


@st.composite
def small_graphs(draw, max_n=24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    shape = draw(st.sampled_from(["random", "chain", "star", "sparse"]))
    if shape == "chain":
        src, dst = list(range(n - 1)), list(range(1, n))
    elif shape == "star":
        hub = draw(st.integers(0, n - 1))
        src, dst = [hub] * n, list(range(n))
    else:
        m = draw(st.integers(0, 3 * n if shape == "random" else n // 3))
        vertex = st.integers(0, n - 1)
        src = draw(st.lists(vertex, min_size=m, max_size=m))
        dst = draw(st.lists(vertex, min_size=m, max_size=m))
    if draw(st.booleans()):  # repeat some edges as multi-edges
        src, dst = src + src[::2], dst + dst[::2]
    graph = CSRGraph.from_edges(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        n,
        symmetrize=draw(st.booleans()),
        dedup=draw(st.booleans()),
        drop_self_loops=draw(st.booleans()),
    )
    source = draw(st.integers(0, n - 1))
    return graph, source


@given(small_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_matches_scalar_oracle(case, data):
    graph, source = case
    n = graph.num_vertices
    ref = bfs_reference(graph, source)
    parent, level = ref.parent.copy(), ref.level.copy()
    value = st.one_of(
        st.integers(-3, n + 3),
        st.sampled_from([-(2**31), 2**31 - 1, 2**31, 2**40, -(2**40)]),
    )
    for _ in range(data.draw(st.integers(0, 4))):
        which = parent if data.draw(st.booleans()) else level
        which[data.draw(st.integers(0, n - 1))] = data.draw(value)
    narrow = max(abs(parent).max(), abs(level).max()) < 2**31
    if narrow and data.draw(st.booleans()):
        parent, level = parent.astype(np.int32), level.astype(np.int32)
    assert check_bfs(graph, source, parent, level) == oracle(
        graph, source, parent, level
    )


@pytest.mark.parametrize("block", [1, 3, 4])
def test_blocked_scan_matches_scalar_oracle(monkeypatch, block):
    """With blocks of a few entries the small graphs span many blocks,
    in the CSR and in a symmetric graph's half list: a star's hub row is
    longer than a block, and sparse graphs put zero-degree rows at the
    cuts.  One-entry blocks make every row of two or more entries a
    block of its own; three-entry blocks cut rows at odd offsets."""
    monkeypatch.setattr(validate, "_BLOCK", block)
    test_matches_scalar_oracle()


@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("dedup", [True, False])
def test_self_loop_parent_matches_oracle(symmetrize, dedup):
    """A kept self loop ``(v, v)`` is an entry, so ``parent[v] = v``
    claims a graph edge (and fails check 3 alone), for every ``v``."""
    graph = CSRGraph.from_edges(
        [0, 1, 1, 2, 3, 3], [1, 2, 1, 3, 3, 1], 4,
        symmetrize=symmetrize, dedup=dedup, drop_self_loops=False,
    )
    ref = bfs_reference(graph, 0)
    for v in range(4):
        parent = ref.parent.copy()
        parent[v] = v
        failures = check_bfs(graph, 0, parent, ref.level)
        assert failures == oracle(graph, 0, parent, ref.level)
        if graph.has_edge(v, v):
            assert not any("not graph edges" in f for f in failures)


@given(small_graphs(max_n=12))
@settings(max_examples=60, deadline=None)
def test_every_single_field_corruption_rejected(case):
    graph, source = case
    n = graph.num_vertices
    ref = bfs_reference(graph, source)
    assert check_bfs(graph, source, ref.parent, ref.level) == []
    present = {(u, int(w)) for u in range(n) for w in graph.neighbors(u)}

    def rejected(v, parent=None, level=None):
        p, lv = ref.parent.copy(), ref.level.copy()
        if parent is not None:
            p[v] = parent
        if level is not None:
            lv[v] = level
        failures = check_bfs(graph, source, p, lv)
        assert failures, (v, parent, level)
        assert failures == oracle(graph, source, p, lv)
        return failures

    for v in range(n):
        lv = int(ref.level[v])
        for u in range(n):
            valid_parent = u == v if v == source else (
                lv > 0 and ref.level[u] == lv - 1 and (u, v) in present
            )
            if u != ref.parent[v] and not valid_parent:
                failures = rejected(v, parent=u)
                if lv > 0 and ref.level[u] == lv - 1 and (u, v) not in present:
                    assert "1 tree edges are not graph edges" in failures
        for bad in (-1, n, n + 1):
            if bad != ref.parent[v]:
                rejected(v, parent=bad)
        for shift in (-2, -1, 1, 2):
            if lv >= 0 or lv + shift >= 0:
                rejected(v, level=lv + shift)
        if lv != -1:
            rejected(v, level=-1)
