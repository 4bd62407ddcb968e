"""Vectorized bottom-up BFS (the paper's Algorithm 2, Beamer's kernel).

Each unvisited vertex scans its own adjacency list for *any* member of
the current queue and, on the first hit, claims that neighbour as its
parent and stops.  The vectorized kernel tests adjacency entries
against a ``bool[V]`` frontier mask (the paper's frontier bitmap, one
byte per vertex, read with ``mask.take(ids)``) and locates the first
hit per vertex, column by column and then with a segmented min, so the
number of entries *inspected* (with early termination) is computed
exactly — matching what a scalar implementation would touch.

The scan exploits the early exit the paper's Algorithm 2 relies on: in
dense mid-traversal levels most unvisited vertices find a parent
within their first few neighbours.  So it first *probes* each row's
first ``DEFAULT_SCAN_WINDOW`` entries one column at a time — probe
``j`` gathers entry ``j`` of every row still searching, a fixed-width
gather with no ragged bookkeeping — and then runs rounds of growing
windows, each gathering the next window, ``SCAN_WINDOW_GROWTH`` times
wider (16, 64, ... entries), only for the rows still without a hit.  A
row leaves at its first hit or at its row end, so the entries gathered
track the entries inspected even for rows that search deep.  Winners,
parents and inspected counts are bit-identical to a whole-row scan —
the first hit in the earliest window is the first hit in the row.

Two work figures matter and both are reported:

* ``edges_checked`` — entries inspected with early termination (the
  paper's observation that bottom-up visits at most ``|E|un`` edges);
* the gather itself momentarily touches the windowed entries, at most
  one window past each row's first hit, which is a NumPy artifact;
  chunking (``chunk_entries``) bounds that footprint.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bfs._gather import _iota, gather_segments
from repro.bfs.engine import Steps, forced, sanitizers, traverse
from repro.bfs.result import BFSResult, Direction
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["bfs_bottom_up", "bottom_up_step"]

#: Default cap on adjacency entries scanned per chunk.  Each entry in
#: flight holds about 20 bytes of temporaries, most of them int64 (its
#: gather position, its first-hit key, its slot of the cached iota), so
#: a chunk's scratch peaks near 1.3 GB, reached only by a round that
#: gathers that many entries at once.
DEFAULT_CHUNK_ENTRIES = 1 << 26

#: Leading entries of each adjacency list probed one column at a time,
#: before the ragged rounds.  Mid-traversal levels resolve the vast
#: majority of rows within the first handful of neighbours (the early
#: exit the paper leans on), so a few probes keep the gathered entries
#: near the *inspected* count rather than the unvisited degree sum.
DEFAULT_SCAN_WINDOW = 4

#: Each scan round's window is this many times the previous one's, so
#: a row of degree ``d`` takes ``O(log d)`` rounds and gathers at most
#: about ``SCAN_WINDOW_GROWTH`` times the entries it inspects.
SCAN_WINDOW_GROWTH = 4


def _scratch(
    workspace: BFSWorkspace | None, name: str, size: int, dtype
) -> np.ndarray:
    """A workspace scratch buffer, or a fresh array on the cold path."""
    if workspace is not None:
        return workspace.buffer(name, size, dtype)
    return np.empty(size, dtype=dtype)  # repro: noqa[RPR007] — cold path, O(rows) bookkeeping


def _cumsum0(
    counts: np.ndarray, workspace: BFSWorkspace | None, name: str
) -> np.ndarray:
    """Cumulative segment starts ``[0, c0, c0+c1, ...]`` of ``counts``."""
    seg = _scratch(workspace, name, counts.size + 1, np.int64)
    seg[0] = 0
    np.cumsum(counts, out=seg[1:])
    return seg


def _row_scan(
    graph: CSRGraph,
    rows: np.ndarray,
    deg: np.ndarray,
    starts: np.ndarray,
    in_frontier: np.ndarray,
    *,
    workspace: BFSWorkspace | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Scan each row's adjacency list for its first frontier member.

    Returns ``(found, first_local, inspected)`` where ``found[i]`` says
    whether row ``i`` has a frontier neighbour, ``first_local[i]`` is
    the within-row position of the first one (undefined where not
    found), and ``inspected`` is the exact early-termination entry
    count.  Every row must have ``deg > 0``.  With a workspace, both
    arrays are the calling thread's scratch, valid until its next scan.

    The first ``DEFAULT_SCAN_WINDOW`` entries are probed one column at
    a time: probe ``j`` tests entry ``j`` of every row still searching,
    and a row leaves at its first hit or its row end.  The rows left
    then search in ragged rounds: each gathers the next window,
    ``SCAN_WINDOW_GROWTH`` times wider than the last (16, 64, ...
    entries after the 4 probes), of the rows that have neither hit nor
    reached their row end.

    Membership is the method ``in_frontier.take(ids)``: the subscript
    ``in_frontier[ids]`` converts int32 ``ids`` to ``intp`` first and
    runs about 3x slower, and the function ``np.take`` puts a
    ``fromnumeric`` frame on every gather that ``tracemalloc`` then
    charges NumPy's small-block cache to.
    """
    targets = graph.targets
    found = _scratch(workspace, "bu-found", rows.size, np.bool_)
    found.fill(False)
    first_local = _scratch(workspace, "bu-first", rows.size, np.int64)
    inspected = 0
    live = None  # positions in ``rows`` still searching; None: every row
    remaining = deg  # entries from ``cursor`` to the row end
    cursor = starts
    for j in range(DEFAULT_SCAN_WINDOW):
        inspected += cursor.size
        hit = in_frontier.take(targets[cursor])
        won = np.flatnonzero(hit)
        if live is not None:
            won = live[won]
        found[won] = True
        first_local[won] = j
        keep = np.flatnonzero(~hit & (remaining > 1))
        if keep.size == 0:
            return found, first_local, inspected
        live = keep if live is None else live[keep]
        remaining = remaining[keep] - 1
        cursor = cursor[keep] + 1
    # ``offset`` is the within-row position of this round's window.
    offset = window = DEFAULT_SCAN_WINDOW
    while True:
        window *= SCAN_WINDOW_GROWTH
        count = np.minimum(remaining, window)
        seg = _cumsum0(count, workspace, "bu-seg")
        k = int(seg[-1])
        nbr = gather_segments(targets, cursor, count, seg, k, workspace)
        hits = in_frontier.take(nbr)
        big = np.int64(k)
        mins = np.minimum.reduceat(
            np.where(hits, _iota(k, workspace), big), seg[:-1]
        )
        hit = mins < big
        pos = mins - seg[:-1]
        inspected += int(np.where(hit, pos + 1, count).sum())
        won = live[hit]
        found[won] = True
        first_local[won] = pos[hit] + offset
        more = ~hit & (remaining > window)
        if not more.any():
            return found, first_local, inspected
        live = live[more]
        remaining = remaining[more] - window
        cursor = cursor[more] + window
        offset += window


def bottom_up_step(
    graph: CSRGraph,
    in_frontier: np.ndarray,
    parent: np.ndarray,
    level: np.ndarray,
    depth: int,
    *,
    unvisited: np.ndarray | None = None,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    workspace: BFSWorkspace | None = None,
) -> tuple[np.ndarray, int]:
    """Execute one bottom-up level.

    Parameters
    ----------
    in_frontier:
        The current queue as a ``bool[V]`` mask: the workspace's
        :meth:`~BFSWorkspace.load_frontier` mask, or the caller's own.
    unvisited:
        Optional precomputed ascending array of unvisited vertex ids.
        The kernel *trusts* this list — entries whose ``parent`` is
        already set must have been retired by the caller (see
        :meth:`BFSWorkspace.retire_claimed`).  Zero-degree entries are
        filtered here (they can never be claimed bottom-up and
        contribute no inspected edges).  Computed from ``parent`` when
        omitted.

    Returns ``(next_frontier_ids, edges_checked)`` and mutates
    ``parent``/``level`` in place.
    """
    if unvisited is None:
        unvisited = np.nonzero(parent < 0)[0]  # repro: noqa[RPR007] — cold path, no unvisited list supplied
    if unvisited.size == 0:
        return np.zeros(0, dtype=np.int64), 0

    deg_all = graph.degrees[unvisited]
    nz = deg_all > 0
    if not nz.all():
        unvisited = unvisited[nz]
        deg_all = deg_all[nz]
        if unvisited.size == 0:
            return np.zeros(0, dtype=np.int64), 0
    starts_all = graph.offsets[unvisited]

    claimed_chunks: list[np.ndarray] = []
    edges_checked = 0
    targets = graph.targets
    bounds = _chunk_bounds(deg_all, chunk_entries)
    for lo, hi in bounds:
        rows = unvisited[lo:hi]
        found, first_local, inspected = _row_scan(
            graph,
            rows,
            deg_all[lo:hi],
            starts_all[lo:hi],
            in_frontier,
            workspace=workspace,
        )
        edges_checked += inspected
        if found.any():
            winners = rows[found]
            parent[winners] = targets[
                (starts_all[lo:hi] + first_local)[found]
            ]
            level[winners] = depth + 1
            claimed_chunks.append(winners)
    if len(claimed_chunks) == 1:
        next_frontier = claimed_chunks[0]
    elif claimed_chunks:
        next_frontier = np.concatenate(claimed_chunks)
    else:
        next_frontier = np.zeros(0, dtype=np.int64)
    # `unvisited` is ascending, so winners per chunk and their
    # concatenation are ascending too — no sort needed downstream.
    return next_frontier, edges_checked


def _chunk_bounds(
    degrees: np.ndarray, chunk_entries: int
) -> list[tuple[int, int]]:
    """Split vertex positions into runs of at most ``chunk_entries``
    total degree (each run non-empty)."""
    if degrees.size == 0:
        return []
    if chunk_entries <= 0:
        raise BFSError(f"chunk_entries must be positive, got {chunk_entries}")
    total = int(degrees.sum())
    if total <= chunk_entries:
        return [(0, degrees.size)]
    cum = np.cumsum(degrees)
    bounds: list[tuple[int, int]] = []
    lo = 0
    base = 0
    while lo < degrees.size:
        hi = int(np.searchsorted(cum, base + chunk_entries, side="right"))
        hi = max(hi, lo + 1)  # always advance, even past a giant vertex
        hi = min(hi, degrees.size)
        bounds.append((lo, hi))
        base = int(cum[hi - 1])
        lo = hi
    return bounds


def bfs_bottom_up(
    graph: CSRGraph,
    source: int,
    *,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    sanitize: bool = False,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> BFSResult:
    """Full bottom-up traversal from ``source``.

    Rarely the right whole-traversal choice (the paper's Fig. 3: slow
    start, fast middle) but exposed for the baseline measurements.
    ``sanitize``, ``workspace`` and ``tracer`` are as for
    :func:`~repro.bfs.topdown.bfs_top_down`, under a ``bfs.bottomup``
    root span.
    """
    tr = tracer if tracer is not None else get_tracer()
    n = graph.num_vertices
    step = partial(bottom_up_step, chunk_entries=chunk_entries)
    with tr.span("bfs.bottomup", source=source, num_vertices=n) as root:
        result = traverse(
            graph, source, forced(Direction.BOTTOM_UP), Steps(None, step),
            workspace=workspace, tracer=tr,
            observers=sanitizers(graph, source, bool(sanitize)),
        )
        root.set("levels", len(result.directions))
    return result
