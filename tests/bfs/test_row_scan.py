"""The bottom-up row scan against a scalar per-row loop.

``_row_scan`` probes each row's first 4 entries one column at a time,
then searches the rows left in ragged rounds of growing windows (16,
64, ... entries), so its bookkeeping has an edge at every window end:
cumulative row positions 4, 20, 84, 340, ...  The scalar loop here is
the reference: each row is read entry by entry until its first frontier
member.  The scan must agree on whether a row has a hit, on the
position of its first hit and on the total number of entries inspected;
``bottom_up_step`` must agree on parents, levels, the next frontier and
``edges_checked``.  ``TestProbes`` covers the probe columns: a first
hit in each of them, scans that end inside them, a single row that
outlives them, and the workspace's ``found`` scratch reused by a
second scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs._gather import gather_segments
from repro.bfs.bottomup import (
    DEFAULT_CHUNK_ENTRIES,
    _row_scan,
    bottom_up_step,
)
from repro.bfs.workspace import BFSWorkspace
from repro.graph.csr import CSRGraph

#: Row degrees on both sides of every window end up to the fourth.
WINDOW_EDGES = (1, 3, 4, 5, 19, 20, 21, 84, 85, 340, 341)

#: A row whose search reaches the seventh round, the one 4**7 entries wide.
LONG_ROW = 4**7 + 5

#: First-hit positions at a window's last entry and the next one's first.
WINDOW_ENDS = (3, 4, 19, 20, 83, 84, 339, 340)


def scalar_scan(graph: CSRGraph, rows, member: np.ndarray):
    """Per-row loop: ``(found, first, inspected)``, ``first`` -1 if none."""
    found, first, inspected = [], [], 0
    for v in rows:
        row = graph.targets[graph.offsets[v]:graph.offsets[v + 1]].tolist()
        for j, w in enumerate(row):
            if member[w]:
                found.append(True)
                first.append(j)
                inspected += j + 1
                break
        else:
            found.append(False)
            first.append(-1)
            inspected += len(row)
    found = np.array(found, dtype=bool)
    return found, np.array(first, dtype=np.int64), inspected


def scalar_bottom_up(graph, member, parent, level, depth):
    """One bottom-up level, row by row.

    Returns ``(winners, checked, parent, level)``."""
    parent, level = parent.copy(), level.copy()
    rows = np.flatnonzero(parent < 0)
    found, first, checked = scalar_scan(graph, rows, member)
    winners = rows[found]
    parent[winners] = graph.targets[graph.offsets[winners] + first[found]]
    level[winners] = depth + 1
    return winners, checked, parent, level


def check_row_scan(graph, rows, member, workspace=None):
    want_found, want_first, want_inspected = scalar_scan(graph, rows, member)
    rows = np.asarray(rows, dtype=np.int64)
    deg = graph.degrees[rows]
    starts = graph.offsets[rows]
    found, first_local, inspected = _row_scan(
        graph, rows, deg, starts, member, workspace=workspace
    )
    np.testing.assert_array_equal(found, want_found)
    np.testing.assert_array_equal(first_local[found], want_first[want_found])
    assert inspected == want_inspected


def check_bottom_up_step(graph, member, parent, level, *, chunk_entries):
    depth = 3
    want = scalar_bottom_up(graph, member, parent, level, depth)
    got_parent, got_level = parent.copy(), level.copy()
    nxt, checked = bottom_up_step(
        graph, member, got_parent, got_level, depth,
        chunk_entries=chunk_entries,
    )
    np.testing.assert_array_equal(nxt, want[0])
    assert checked == want[1]
    np.testing.assert_array_equal(got_parent, want[2])
    np.testing.assert_array_equal(got_level, want[3])


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One adjacency list: ``degree`` entries with frontier members at
    ``hits``.  An entry listed in ``dup`` repeats the previous entry's
    target (a multi-edge); ``self_loop`` makes entry 0 the row itself."""

    degree: int
    hits: tuple[int, ...] = ()
    dup: tuple[int, ...] = ()
    self_loop: bool = False


def _table() -> dict[str, Row]:
    table = {}
    for d in WINDOW_EDGES + (LONG_ROW,):
        table[f"deg{d}-miss"] = Row(d)
        table[f"deg{d}-first"] = Row(d, hits=(0,))
        table[f"deg{d}-last"] = Row(d, hits=(d - 1,))
        for p in WINDOW_ENDS:
            if p < d - 1:
                table[f"deg{d}-at{p}"] = Row(d, hits=(p,))
    table.update({
        "long-at-4**7-window-start": Row(LONG_ROW, hits=(5460,)),
        "long-late-hits": Row(LONG_ROW, hits=(LONG_ROW - 3, LONG_ROW - 1)),
        "two-hits-same-window": Row(20, hits=(6, 9)),
        "two-hits-two-windows": Row(85, hits=(19, 83)),
        "dup-hit": Row(6, hits=(2,), dup=(3,)),
        "dup-hit-across-window-end": Row(8, hits=(3,), dup=(4,)),
        "dup-miss-then-hit": Row(22, hits=(21,), dup=(1, 2, 3, 4, 5)),
        "self-loop-then-hit": Row(5, hits=(4,), self_loop=True),
        "self-loop-only": Row(1, self_loop=True),
        "self-loop-miss": Row(21, self_loop=True),
    })
    return table


TABLE = _table()


def build(rows: list[Row]) -> tuple[CSRGraph, np.ndarray]:
    """Vertices ``0..len(rows)-1`` carry the rows; their targets are
    fresh pool vertices after them, ascending, so each row is sorted
    and rows share no target.  Returns the graph and the frontier mask."""
    pool = len(rows) + sum(r.degree for r in rows)
    targets: list[int] = []
    hits: list[int] = []
    offsets = [0]
    fresh = len(rows)
    for v, row in enumerate(rows):
        mine: list[int] = []
        for j in range(row.degree):
            if j == 0 and row.self_loop:
                mine.append(v)
            elif j in row.dup:
                mine.append(mine[-1])
            else:
                mine.append(fresh)
                fresh += 1
        hits += [mine[j] for j in row.hits]
        targets += mine
        offsets.append(len(targets))
    offsets += [len(targets)] * (pool - len(rows))
    graph = CSRGraph(
        np.array(offsets, dtype=np.int64),
        np.array(targets, dtype=np.int32),
        symmetric=False,
    )
    member = np.zeros(pool, dtype=bool)
    member[hits] = True
    return graph, member


class TestTable:
    def test_table_rows_are_what_they_say(self):
        graph, member = build(list(TABLE.values()))
        for v, row in enumerate(TABLE.values()):
            adj = graph.neighbors(v)
            assert adj.size == row.degree
            assert np.all(np.diff(adj) >= 0)
            got = np.flatnonzero(member[adj])
            want = set(row.hits) | {
                j for j in row.dup if j - 1 in row.hits
            }
            assert set(got.tolist()) == want

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_one_row(self, name):
        graph, member = build([TABLE[name]])
        check_row_scan(graph, [0], member)

    @pytest.mark.parametrize("workspace", [False, True])
    def test_all_rows_in_one_scan(self, workspace):
        """Rows leave the loop in different rounds, so the live-row
        bookkeeping is exercised by every round at once."""
        graph, member = build(list(TABLE.values()))
        ws = BFSWorkspace.for_graph(graph) if workspace else None
        rows = np.arange(len(TABLE))
        check_row_scan(graph, rows, member, ws)
        check_row_scan(graph, rows[::-1].copy(), member, ws)

    @pytest.mark.parametrize(
        "chunk_entries", [1, 100, DEFAULT_CHUNK_ENTRIES]
    )
    def test_bottom_up_step(self, chunk_entries):
        graph, member = build(list(TABLE.values()))
        parent = np.full(graph.num_vertices, -1, dtype=np.int64)
        level = np.full(graph.num_vertices, -1, dtype=np.int64)
        visited = np.flatnonzero(member)
        parent[visited] = visited
        level[visited] = 3
        check_bottom_up_step(
            graph, member, parent, level, chunk_entries=chunk_entries
        )


# -- the probe columns -------------------------------------------------------


#: Degrees of rows that end inside the probes or at the first ragged entry.
PROBE_DEGREES = (1, 2, 3, 4, 5)


def _no_ragged_round(*args, **kwargs):
    raise AssertionError("the scan reached a ragged round")


class TestProbes:
    @pytest.mark.parametrize("workspace", [False, True])
    def test_first_hit_at_each_probe_column(self, workspace):
        """Rows of degree 1-5 with their first hit at each column and
        at position 4 (the first ragged entry), and with no hit."""
        rows = [Row(d) for d in PROBE_DEGREES] + [
            Row(d, hits=(p,)) for d in PROBE_DEGREES for p in range(d)
        ]
        graph, member = build(rows)
        ws = BFSWorkspace.for_graph(graph) if workspace else None
        check_row_scan(graph, np.arange(len(rows)), member, ws)

    @pytest.mark.parametrize(
        "rows",
        [
            [Row(d, hits=(0,)) for d in (1, 2, 5, 30, 400)],
            [Row(d) for d in (1, 2, 3, 4, 4, 1)],
        ],
        ids=["all-hit-at-column-0", "all-end-without-a-hit"],
    )
    def test_scan_ends_inside_the_probes(self, rows, monkeypatch):
        monkeypatch.setattr(
            "repro.bfs.bottomup.gather_segments", _no_ragged_round
        )
        graph, member = build(rows)
        check_row_scan(
            graph, np.arange(len(rows)), member,
            BFSWorkspace.for_graph(graph),
        )

    @pytest.mark.parametrize("late", [Row(90, hits=(87,)), Row(90)])
    def test_one_row_survives_the_probes(self, late, monkeypatch):
        rounds = []

        def spy(targets, starts, counts, *args):
            rounds.append(counts.size)
            return gather_segments(targets, starts, counts, *args)

        monkeypatch.setattr("repro.bfs.bottomup.gather_segments", spy)
        rows = [Row(3, hits=(j,)) for j in range(3)] + [Row(2), Row(4)]
        rows.insert(2, late)
        graph, member = build(rows)
        check_row_scan(
            graph, np.arange(len(rows)), member,
            BFSWorkspace.for_graph(graph),
        )
        # Windows 16, 64 and 256 (entries 84-89).
        assert rounds == [1, 1, 1]

    def test_found_is_reset_between_scans(self):
        """A second scan on one workspace, over more rows and with no
        hit, must not see the first scan's ``found`` flags."""
        graph, member = build([Row(3, hits=(1,))] * 40 + [Row(6)] * 90)
        ws = BFSWorkspace.for_graph(graph)
        check_row_scan(graph, np.arange(40), member, ws)
        check_row_scan(graph, np.arange(40, 130), member, ws)


# -- random graphs -----------------------------------------------------------


@st.composite
def scan_graphs(draw):
    """A random multigraph with self loops (targets drawn with
    replacement), row degrees biased to the window edges, a random
    frontier and a random visited set around it."""
    n = draw(st.integers(min_value=1, max_value=120))
    degree = st.one_of(
        st.sampled_from((0,) + WINDOW_EDGES), st.integers(0, 25)
    )
    degrees = draw(st.lists(degree, min_size=n, max_size=n))
    density = draw(st.sampled_from((0.0, 0.003, 0.02, 0.1, 0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    targets = np.concatenate(
        [np.sort(rng.integers(0, n, d)) for d in degrees]
    ).astype(np.int32)
    graph = CSRGraph(offsets, targets, symmetric=False)
    member = rng.random(n) < density
    visited = member | (rng.random(n) < 0.3)
    return graph, member, visited


@given(scan_graphs(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_row_scan_matches_scalar_loop(case, workspace):
    graph, member, visited = case
    rows = np.flatnonzero(~visited & (graph.degrees > 0))
    ws = BFSWorkspace.for_graph(graph) if workspace else None
    check_row_scan(graph, rows, member, ws)


@given(scan_graphs(), st.sampled_from((1, 7, DEFAULT_CHUNK_ENTRIES)))
@settings(max_examples=60, deadline=None)
def test_bottom_up_step_matches_scalar_loop(case, chunk_entries):
    graph, member, visited = case
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    parent = np.where(visited, ids, -1)
    level = np.where(visited, 0, -1)
    check_bottom_up_step(
        graph, member, parent, level, chunk_entries=chunk_entries
    )
