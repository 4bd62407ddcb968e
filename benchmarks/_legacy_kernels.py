"""Verbatim pre-workspace BFS kernels, kept for before/after benchmarks.

These are the kernels as they stood before the allocation-free datapath
landed: per-call output arrays, sort-based ``np.unique`` claim, a full
``parent < 0`` rescan plus whole-row scan per bottom-up level, and a
dense boolean frontier mask rebuilt with ``fill(False)`` every level.
Beside them sit the two-phase bottom-up row scan that the
growing-window scan replaced, and the bottom-up level's three pieces
from before the probe columns: the growing-window scan whose first
window was one ragged gather, the ``np.bitwise_or.at`` frontier load
and the two-step unvisited build.  Both scans read the packed
``uint64`` frontier bitmap (:class:`LegacyBitmap`) that the
workspace's bool mask replaced.  ``bench_kernels.py`` times them
against the current engines and records the ratios in
``BENCH_kernels.json``.

Do not import from application code — this module exists only so the
speedup claims stay measurable after the old code paths are gone.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bfs.result import BFSResult, Direction


class LegacyBitmap:
    """The packed frontier bitmap: one bit per vertex in ``uint64``
    words, loaded with one ``np.bitwise_or.at`` and probed a byte at a
    time."""

    def __init__(self, size):
        self.words = np.zeros((size + 63) >> 6, dtype=np.uint64)

    def load(self, ids):
        bit = np.uint64(1) << (ids & 63).astype(np.uint64)
        np.bitwise_or.at(self.words, ids >> 6, bit)

    def reset(self):
        self.words.fill(0)

    def test_many(self, indices):
        """Membership of ``indices``, unchecked: callers pass CSR
        targets, which are valid ids by construction."""
        indices = np.asarray(indices)
        if indices.size == 0:
            return np.zeros(0, dtype=bool)
        if sys.byteorder == "little":
            # Byte-granular probe: narrower gather and uint8 arithmetic
            # beat the uint64 word path on every level-sized input.
            byte = self.words.view(np.uint8)[indices >> 3]
            byte >>= (indices & 7).astype(np.uint8)
            byte &= np.uint8(1)
            return byte.view(bool)
        word = self.words[indices >> 6]
        shift = (indices & 63).astype(np.uint64)
        return ((word >> shift) & np.uint64(1)).astype(bool)


def legacy_expand_rows(graph, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = graph.offsets[vertices]
    counts = graph.offsets[vertices + 1] - starts
    total = int(counts.sum())
    seg_starts = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_starts[1:])
    if total == 0:
        return (
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int64),
            seg_starts,
        )
    pos = np.arange(total, dtype=np.int64)
    pos -= np.repeat(seg_starts[:-1], counts)
    pos += np.repeat(starts, counts)
    neighbours = graph.targets[pos]
    owners = np.repeat(vertices, counts)
    return neighbours, owners, seg_starts


def legacy_segment_first_true(flags, seg_starts):
    nseg = seg_starts.size - 1
    out = np.full(nseg, -1, dtype=np.int64)
    if flags.size == 0 or nseg == 0:
        return out
    big = np.int64(flags.size)
    pos = np.where(flags, np.arange(flags.size, dtype=np.int64), big)
    nonempty = seg_starts[:-1] < seg_starts[1:]
    if not nonempty.any():
        return out
    red_idx = seg_starts[:-1][nonempty]
    mins = np.minimum.reduceat(pos, red_idx)
    res = np.where(mins < big, mins, -1)
    out[nonempty] = res
    return out


def legacy_top_down_step(graph, frontier, parent, level, depth):
    neighbours, owners, _ = legacy_expand_rows(graph, frontier)
    edges_examined = int(neighbours.size)
    if edges_examined == 0:
        return np.zeros(0, dtype=np.int64), 0
    fresh = parent[neighbours] < 0
    cand = neighbours[fresh].astype(np.int64)
    cand_parent = owners[fresh]
    if cand.size == 0:
        return np.zeros(0, dtype=np.int64), edges_examined
    next_frontier, first_idx = np.unique(cand, return_index=True)
    parent[next_frontier] = cand_parent[first_idx]
    level[next_frontier] = depth + 1
    return next_frontier, edges_examined


def legacy_unique_claim(cand, cand_parent, parent, level, depth):
    """Just the sort-based claim, for the claim-step microbenchmark."""
    cand = cand.astype(np.int64)
    next_frontier, first_idx = np.unique(cand, return_index=True)
    parent[next_frontier] = cand_parent[first_idx]
    level[next_frontier] = depth + 1
    return next_frontier


def _legacy_chunk_bounds(degrees, chunk_entries):
    if degrees.size == 0:
        return []
    cum = np.cumsum(degrees)
    bounds = []
    lo = 0
    base = 0
    while lo < degrees.size:
        hi = int(np.searchsorted(cum, base + chunk_entries, side="right"))
        hi = max(hi, lo + 1)
        hi = min(hi, degrees.size)
        bounds.append((lo, hi))
        base = int(cum[hi - 1])
        lo = hi
    return bounds


def legacy_bottom_up_step(
    graph, in_frontier, parent, level, depth, chunk_entries=1 << 26
):
    unvisited = np.nonzero(parent < 0)[0].astype(np.int64)
    if unvisited.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    claimed_chunks = []
    edges_checked = 0
    degrees = graph.offsets[unvisited + 1] - graph.offsets[unvisited]
    bounds = _legacy_chunk_bounds(degrees, chunk_entries)
    for lo, hi in bounds:
        chunk = unvisited[lo:hi]
        neighbours, _, seg_starts = legacy_expand_rows(graph, chunk)
        if neighbours.size == 0:
            continue
        hits = in_frontier[neighbours]
        first = legacy_segment_first_true(hits, seg_starts)
        found = first >= 0
        seg_lo = seg_starts[:-1]
        seg_len = np.diff(seg_starts)
        inspected = np.where(found, first - seg_lo + 1, seg_len)
        edges_checked += int(inspected.sum())
        if found.any():
            winners = chunk[found]
            parent[winners] = neighbours[first[found]]
            level[winners] = depth + 1
            claimed_chunks.append(winners)
    if claimed_chunks:
        next_frontier = np.concatenate(claimed_chunks)
    else:
        next_frontier = np.zeros(0, dtype=np.int64)
    return next_frontier, edges_checked


def legacy_bfs_hybrid(graph, source, *, m, n):
    nverts = graph.num_vertices
    nedges = max(graph.num_edges, 1)
    degrees = graph.degrees

    parent = np.full(nverts, -1, dtype=np.int64)
    level = np.full(nverts, -1, dtype=np.int64)
    parent[source] = source
    level[source] = 0

    frontier = np.array([source], dtype=np.int64)
    in_frontier = None
    directions = []
    edges_examined = []
    depth = 0
    while frontier.size:
        frontier_edges = int(degrees[frontier].sum())
        td = (
            frontier_edges < nedges / m
            and int(frontier.size) < nverts / n
        )
        if td:
            frontier, examined = legacy_top_down_step(
                graph, frontier, parent, level, depth
            )
            in_frontier = None
            directions.append(Direction.TOP_DOWN)
        else:
            if in_frontier is None:
                in_frontier = np.zeros(nverts, dtype=bool)
            else:
                in_frontier.fill(False)
            in_frontier[frontier] = True
            frontier, examined = legacy_bottom_up_step(
                graph, in_frontier, parent, level, depth
            )
            frontier = np.sort(frontier)
            directions.append(Direction.BOTTOM_UP)
        edges_examined.append(examined)
        depth += 1
    return BFSResult(
        source=source,
        parent=parent,
        level=level,
        directions=directions,
        edges_examined=edges_examined,
    )


def legacy_two_phase_scan(graph, deg, starts, in_frontier, workspace):
    """The bottom-up row scan before growing windows.

    Phase 1 gathers the first 4 entries of every row; phase 2 gathers
    the *whole* remaining row of every row that missed.  Takes a
    frontier :class:`LegacyBitmap` and rows of degree > 0; returns
    ``(found, first_local, inspected)``.
    """
    targets = graph.targets
    window = 4

    def first_hits(row_starts, counts, name):
        seg = workspace.buffer(name, counts.size + 1, np.int64)
        seg[0] = 0
        np.cumsum(counts, out=seg[1:])
        k = int(seg[-1])
        pos = np.repeat(row_starts - seg[:-1], counts)
        pos += workspace.iota(k)
        hits = in_frontier.test_many(targets[pos])
        big = np.int64(k)
        mins = np.minimum.reduceat(
            np.where(hits, workspace.iota(k), big), seg[:-1]
        )
        return mins < big, mins - seg[:-1]

    c1 = np.minimum(deg, window)
    found, first_local = first_hits(starts, c1, "legacy-seg1")
    inspected = int(np.where(found, first_local + 1, c1).sum())
    surv = np.flatnonzero(~found & (deg > window))
    if surv.size:
        sdeg = deg[surv] - window
        found2, fl2 = first_hits(starts[surv] + window, sdeg, "legacy-seg2")
        fl2 += window
        found[surv] = found2
        first_local[surv] = np.where(found2, fl2, -1)
        inspected += int(np.where(found2, fl2 + 1 - window, sdeg).sum())
    return found, first_local, inspected


def legacy_growing_window_scan(graph, deg, starts, in_frontier, workspace):
    """The growing-window row scan before the probe columns.

    Every round, the first included, gathers a ragged window of each
    row still searching: 4 entries, then 16, 64, ...  Takes a frontier
    :class:`LegacyBitmap` and rows of degree > 0; returns ``(found,
    first_local, inspected)``.
    """
    targets = graph.targets
    window = 4
    found = first_local = live = None
    inspected = 0
    offset = 0
    remaining = deg
    cursor = starts
    while True:
        count = np.minimum(remaining, window)
        seg = workspace.buffer("legacy-seg", count.size + 1, np.int64)
        seg[0] = 0
        np.cumsum(count, out=seg[1:])
        k = int(seg[-1])
        pos = np.repeat(cursor - seg[:-1], count)
        pos += workspace.iota(k)
        hits = in_frontier.test_many(targets[pos])
        big = np.int64(k)
        mins = np.minimum.reduceat(
            np.where(hits, workspace.iota(k), big), seg[:-1]
        )
        hit = mins < big
        pos = mins - seg[:-1]
        inspected += int(np.where(hit, pos + 1, count).sum())
        if live is None:
            found, first_local = hit, pos
        else:
            won = live[hit]
            found[won] = True
            first_local[won] = pos[hit] + offset
        more = ~hit & (remaining > window)
        if not more.any():
            return found, first_local, inspected
        live = np.flatnonzero(more) if live is None else live[more]
        remaining = remaining[more] - window
        cursor = cursor[more] + window
        offset += window
        window *= 4


def legacy_bottom_up_level(graph, bits, frontier, parent, level, depth, workspace):
    """One bottom-up level from the three frozen pieces: load
    ``frontier`` into the cleared :class:`LegacyBitmap` ``bits`` with
    one ``np.bitwise_or.at``, build the unvisited list with
    ``flatnonzero`` and a degree filter, scan it with
    :func:`legacy_growing_window_scan` and claim.  Returns
    ``(winners, edges_checked)``."""
    bits.load(frontier)
    rows = np.flatnonzero(parent < 0)
    rows = rows[graph.degrees[rows] > 0]
    starts = graph.offsets[rows]
    found, first_local, inspected = legacy_growing_window_scan(
        graph, graph.degrees[rows], starts, bits, workspace
    )
    winners = rows[found]
    parent[winners] = graph.targets[(starts + first_local)[found]]
    level[winners] = depth + 1
    return winners, inspected
