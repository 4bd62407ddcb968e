"""Masked bitmap-tile kernels: SpMV bottom-up step, its full traversal
(:func:`bfs_bottom_up_tiles`) and MS-BFS SpMM.

Both kernels compute ``frontier_next = (Aᵀ ⊗ frontier) ⊙ ¬visited``
over the Boolean semiring, operating on whole ``uint64`` words of the
:class:`~repro.linalg.tiles.BitmapTileMatrix` and the packed
:class:`~repro.graph.bitmap.Bitmap` frontier — one AND probes up to 64
adjacency entries at once.

``bottom_up_tiles_step`` is the masked *SpMV*: each unvisited row ANDs
its stored words against the frontier's words and claims the lowest set
bit of the first non-zero intersection as its parent.  Because a row's
words ascend by column block and bit ``j`` of a word is vertex
``cb * 64 + j``, that bit is exactly the minimum-id frontier neighbour
— the same vertex the reference scan
(:func:`repro.bfs.bottomup.bottom_up_step`) claims, which is what makes
the two engines bit-identical on ``parent``/``level``.  The scan is
two-phase like the reference: a fixed *window* of words first, then a
full-tail pass only for rows with no hit (the paper's Algorithm 2
early exit, at word granularity).

``edges_examined`` accounting (tile family): the number of *stored
adjacency bits* in the words a row probes, terminating at the first
hitting word.  Word-granular early termination means a winner charges
its whole winning word (the AND inspects all 64 lanes at once) where
the entry-level reference charges only the prefix up to the hit, so the
two engines' counts agree in total order of magnitude but not exactly
— the figure is defined here and pinned by tests, not inherited.

``msbfs_tiles_step`` is the masked *SpMM*: the 64-query MS-BFS batch is
a dense ``uint64`` column block, and one pass over the stored words
computes ``incoming[v] = OR_{u ∈ adj(v)} frontier[u]`` for every
vertex.  A scatter (``np.bitwise_or.at``) is pathologically slow in
NumPy, so the kernel uses the four-Russians trick: per level it builds
a table ``T[cb, p, b] = OR`` of the frontier masks of the vertices in
byte-lane ``p`` of column block ``cb`` selected by bit pattern ``b``,
then each stored word is resolved with 8 byte-indexed gathers — ``O(64
· num_blocks · 256)`` table work plus ``O(8 · words)`` gathers, all
streaming.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from repro.bfs._gather import _iota
from repro.bfs.engine import Steps, forced, sanitizers, traverse
from repro.bfs.result import BFSResult, Direction
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.bitmap import WORD_BITS, Bitmap
from repro.graph.csr import CSRGraph
from repro.linalg.tiles import BitmapTileMatrix, tile_matrix
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "DEFAULT_WORD_WINDOW",
    "bfs_bottom_up_tiles",
    "bottom_up_tiles_step",
    "msbfs_tiles_step",
]

#: Stored words of each row probed in the first scan phase.  One word
#: covers up to 64 adjacency entries, so the word window is much
#: narrower than the entry-level ``DEFAULT_SCAN_WINDOW``: mid-traversal
#: rows overwhelmingly hit within their first couple of words.
DEFAULT_WORD_WINDOW = 2

_WORD_SHIFT = 6  # log2(WORD_BITS)

# The byte views below assume bit p*8+j of a word lives in byte p,
# which holds only for little-endian word storage (same invariant as
# Bitmap.test_many's fast path).
_LITTLE_ENDIAN = sys.byteorder == "little"

#: ctz lookup for byte values 1..255 (index 0 unused), driving the
#: four-Russians table recurrence ``T[b] = T[b & (b-1)] | F[ctz(b)]``.
_CTZ8 = tuple((b & -b).bit_length() - 1 for b in range(256))


def _cumsum0(
    counts: np.ndarray,
    workspace: BFSWorkspace | None,
    name: str,
) -> np.ndarray:
    """Cumulative segment starts ``[0, c0, c0+c1, ...]`` of ``counts``."""
    if workspace is not None:
        seg = workspace.buffer(name, counts.size + 1, np.int64)
    else:
        seg = np.empty(counts.size + 1, dtype=np.int64)  # repro: noqa[RPR007] — cold path, O(rows) bookkeeping
    seg[0] = 0
    np.cumsum(counts, out=seg[1:])
    return seg


def _parent_of(hit_words: np.ndarray, hit_cols: np.ndarray) -> np.ndarray:
    """Vertex id of the lowest set bit of each hit word.

    ``hit_words`` are non-zero frontier∧adjacency intersections and
    ``hit_cols`` their column blocks; the lowest set bit is the
    minimum-id frontier neighbour (branch-free ctz:
    ``popcount(lsb - 1)``).
    """
    lsb = hit_words & (~hit_words + np.uint64(1))
    ctz = np.bitwise_count(lsb - np.uint64(1))
    return (hit_cols << np.int64(_WORD_SHIFT)) + ctz.astype(np.int64)


def _probe(
    tiles: BitmapTileMatrix,
    starts: np.ndarray,
    counts: np.ndarray,
    seg: np.ndarray,
    total: int,
    fwords: np.ndarray,
    workspace: BFSWorkspace | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather ``counts[i]`` words from ``starts[i]`` per row and AND
    them against the frontier words.

    Returns ``(hw, cols, pops)``: the per-word intersections, their
    column blocks, and the popcounts of the *stored* words (for the
    examined accounting).
    """
    pos = np.repeat(starts - seg[:-1], counts)
    pos += _iota(total, workspace)
    w = tiles.words[pos]
    cols = tiles.word_cols[pos]
    hw = w & fwords[cols]
    return hw, cols, np.bitwise_count(w)


def _examined(
    pops: np.ndarray,
    seg: np.ndarray,
    mins: np.ndarray,
    found: np.ndarray,
    workspace: BFSWorkspace | None,
    name: str,
) -> int:
    """Stored bits in the probed words, stopping at each winning word.

    ``mins`` holds the global position of each row's first hit (valid
    where ``found``); losers charge their whole probe range ``seg[i] ..
    seg[i+1]``.
    """
    cps = _cumsum0(pops, workspace, name)
    end = np.where(found, mins + 1, seg[1:])
    return int((cps[end] - cps[seg[:-1]]).sum())


def _word_scan(
    tiles: BitmapTileMatrix,
    wstarts: np.ndarray,
    wcounts: np.ndarray,
    fwords: np.ndarray,
    *,
    window: int,
    workspace: BFSWorkspace | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Scan each row's stored words for its first frontier intersection.

    Returns ``(found, parent_vertex, examined)`` where ``found[i]``
    says whether row ``i`` intersects the frontier, ``parent_vertex[i]``
    is the claimed parent id (undefined where not found) and
    ``examined`` is the tile-family edge accounting.  Every row must
    have ``wcounts > 0``.
    """
    # Phase 1: probe only the first `window` words of each row.
    c1 = np.minimum(wcounts, window)
    seg1 = _cumsum0(c1, workspace, "lin-seg1")
    k1 = int(seg1[-1])
    hw1, cols1, pops1 = _probe(
        tiles, wstarts, c1, seg1, k1, fwords, workspace
    )
    big = np.int64(k1)
    mins = np.minimum.reduceat(
        np.where(hw1 != 0, _iota(k1, workspace), big), seg1[:-1]
    )
    found = mins < big
    examined = _examined(pops1, seg1, mins, found, workspace, "lin-pc1")
    if workspace is not None:
        pvert = workspace.buffer("lin-pvert", wcounts.size, np.int64)
    else:
        pvert = np.empty(wcounts.size, dtype=np.int64)  # repro: noqa[RPR007] — cold path, O(rows) output
    win = mins[found]
    pvert[found] = _parent_of(hw1[win], cols1[win])
    # Phase 2: rows with no hit in the window scan their remaining tail.
    surv = np.flatnonzero(~found & (wcounts > window))
    if surv.size:
        scnt = wcounts[surv] - window
        sstarts = wstarts[surv] + window
        seg2 = _cumsum0(scnt, workspace, "lin-seg2")
        k2 = int(seg2[-1])
        hw2, cols2, pops2 = _probe(
            tiles, sstarts, scnt, seg2, k2, fwords, workspace
        )
        big2 = np.int64(k2)
        mins2 = np.minimum.reduceat(
            np.where(hw2 != 0, _iota(k2, workspace), big2), seg2[:-1]
        )
        found2 = mins2 < big2
        examined += _examined(
            pops2, seg2, mins2, found2, workspace, "lin-pc2"
        )
        found[surv] = found2
        sv = surv[found2]
        win2 = mins2[found2]
        pvert[sv] = _parent_of(hw2[win2], cols2[win2])
    return found, pvert, examined


def bottom_up_tiles_step(
    graph: CSRGraph,
    in_frontier: Bitmap,
    parent: np.ndarray,
    level: np.ndarray,
    depth: int,
    *,
    tiles: BitmapTileMatrix | None = None,
    unvisited: np.ndarray | None = None,
    workspace: BFSWorkspace | None = None,
    window: int = DEFAULT_WORD_WINDOW,
) -> tuple[np.ndarray, int]:
    """Execute one bottom-up level as a masked tile SpMV.

    Drop-in for :func:`repro.bfs.bottomup.bottom_up_step` (same
    contract: mutates ``parent``/``level`` in place, returns ascending
    ``(next_frontier_ids, edges_examined)``) with two differences: the
    frontier *must* be a packed :class:`~repro.graph.bitmap.Bitmap`
    (the kernel ANDs its words directly — a dense mask has no words),
    and ``edges_examined`` follows the word-granular tile accounting
    defined in the module docstring.

    ``tiles`` defaults to the graph's cached
    :class:`~repro.linalg.tiles.BitmapTileMatrix` (built on first use).
    ``unvisited`` follows the reference kernel's trust contract: claimed
    entries must have been retired by the caller.
    """
    if window <= 0:
        raise BFSError(f"window must be positive, got {window}")
    if not isinstance(in_frontier, Bitmap):
        raise BFSError(
            "tile kernel needs a packed Bitmap frontier, got "
            f"{type(in_frontier).__name__}; use BFSWorkspace.load_frontier"
        )
    if in_frontier.size != graph.num_vertices:
        raise BFSError(
            f"frontier bitmap sized {in_frontier.size} for a graph of "
            f"{graph.num_vertices} vertices"
        )
    if tiles is None:
        tiles = tile_matrix(graph)
    if unvisited is None:
        unvisited = np.nonzero(parent < 0)[0]  # repro: noqa[RPR007] — cold path, no unvisited list supplied
    if unvisited.size == 0:
        return np.zeros(0, dtype=np.int64), 0

    # Zero-degree rows store no words; filter like the reference kernel.
    deg = graph.degrees[unvisited]
    nz = deg > 0
    if not nz.all():
        unvisited = unvisited[nz]
        if unvisited.size == 0:
            return np.zeros(0, dtype=np.int64), 0
    wstarts = tiles.row_ptr[unvisited]
    wcounts = tiles.row_ptr[unvisited + 1] - wstarts

    found, pvert, examined = _word_scan(
        tiles,
        wstarts,
        wcounts,
        in_frontier.words,
        window=window,
        workspace=workspace,
    )
    winners = unvisited[found]
    if winners.size:
        parent[winners] = pvert[found]
        level[winners] = depth + 1
    # `unvisited` is ascending, so the winners are too.
    return winners, examined


def bfs_bottom_up_tiles(
    graph: CSRGraph,
    source: int,
    *,
    sanitize: bool = False,
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
    window: int = DEFAULT_WORD_WINDOW,
) -> BFSResult:
    """Full bottom-up traversal from ``source`` on the tile kernel.

    The measurement vehicle for the tile family: like
    :func:`repro.bfs.bottomup.bfs_bottom_up` (same ``sanitize``,
    ``workspace`` and ``tracer`` contract) with
    :func:`bottom_up_tiles_step` as its bottom-up kernel, so
    ``parent``/``level`` are bit-identical and ``edges_examined``
    follows the word-granular accounting above.  Levels become
    ``bfs.level`` spans under a ``bfs.bottomup`` root, both carrying
    ``kernel="tiles"``.
    """
    step = partial(bottom_up_tiles_step, tiles=tile_matrix(graph),
                   window=window)
    tr = tracer if tracer is not None else get_tracer()
    with tr.span(
        "bfs.bottomup", source=source, num_vertices=graph.num_vertices,
        kernel="tiles",
    ) as root:
        result = traverse(
            graph, source, forced(Direction.BOTTOM_UP),
            Steps(None, step, "tiles"), workspace=workspace, tracer=tr,
            observers=sanitizers(graph, source, bool(sanitize)),
        )
        root.set("levels", len(result.directions))
    tr.count("linalg.tile_passes", len(result.directions))
    return result


def _word_byte(words: np.ndarray, byte_view: np.ndarray | None, p: int) -> np.ndarray:
    """Byte lane ``p`` of every word (values 0..255)."""
    if byte_view is not None:
        return byte_view[:, p]
    return (
        (words >> np.uint64(8 * p)) & np.uint64(0xFF)
    ).astype(np.uint8)


def msbfs_tiles_step(
    tiles: BitmapTileMatrix,
    frontier: np.ndarray,
    incoming: np.ndarray,
    *,
    row_mask: np.ndarray | None = None,
    workspace: BFSWorkspace | None = None,
) -> int:
    """One MS-BFS sweep as a masked tile SpMM.

    Computes ``incoming[v] = OR_{u ∈ adj(v)} frontier[u]`` for every
    vertex in one pass over the stored words (four-Russians byte
    tables; see the module docstring), writing ``incoming`` in place.
    ``frontier``/``incoming`` are the per-vertex ``uint64`` search
    masks of :func:`repro.bfs.multisource.msbfs`.  Returns the number
    of adjacency words streamed.

    Sparsity masks: a stored word whose frontier column block is
    all-zero across the 64 lanes ANDs to nothing, so the kernel skips
    it (and its block's table) up front.  ``row_mask`` — the caller's
    per-vertex *visited* masks — additionally skips rows already seen
    by all 64 searches: their output is annihilated by the caller's
    ``⊙ ¬visited`` regardless (such rows keep ``incoming == 0``).
    Early and late levels have few live blocks and rows, so the
    streamed word count — the returned figure — tracks the live
    support rather than ``num_words``.
    """
    n = tiles.num_vertices
    if frontier.shape != (n,) or frontier.dtype != np.uint64:
        raise BFSError(
            f"frontier must be uint64[{n}], got "
            f"dtype={frontier.dtype} shape={frontier.shape}"
        )
    if incoming.shape != (n,) or incoming.dtype != np.uint64:
        raise BFSError(
            f"incoming must be uint64[{n}], got "
            f"dtype={incoming.dtype} shape={incoming.shape}"
        )
    if row_mask is not None and (
        row_mask.shape != (n,) or row_mask.dtype != np.uint64
    ):
        raise BFSError(
            f"row_mask must be uint64[{n}], got "
            f"dtype={row_mask.dtype} shape={row_mask.shape}"
        )
    incoming[:] = 0
    nwords = tiles.num_words
    if nwords == 0:
        return 0
    nblocks = tiles.num_blocks
    padded_n = nblocks << _WORD_SHIFT

    # Frontier masks, padded to a whole number of 64-vertex blocks and
    # viewed as (block, byte-lane, bit): F[cb, p, j] is the mask of
    # vertex cb*64 + p*8 + j.
    if workspace is not None:
        pad = workspace.buffer("lin-spmm-pad", padded_n, np.uint64)
    else:
        pad = np.empty(padded_n, dtype=np.uint64)  # repro: noqa[RPR007] — cold path, no workspace supplied
    pad[:n] = frontier
    pad[n:] = 0
    lanes = pad.reshape(nblocks, 8, 8)

    # Block support of the frontier: OR each block's 64 masks; blocks
    # that come out zero cannot contribute to any intersection.
    if workspace is not None:
        blkor = workspace.buffer("lin-spmm-blkor", nblocks, np.uint64)
    else:
        blkor = np.empty(nblocks, dtype=np.uint64)  # repro: noqa[RPR007] — cold path, no workspace supplied
    np.bitwise_or.reduce(
        pad.reshape(nblocks, WORD_BITS), axis=1, out=blkor
    )
    active = blkor != 0
    nact = int(np.count_nonzero(active))
    if nact == 0:
        return 0

    words = tiles.words
    cols = tiles.word_cols
    row_ptr = tiles.row_ptr
    # Rows already visited by every search produce nothing the caller
    # keeps; drop their words from the stream.
    unsat = None
    if row_mask is not None:
        unsat = row_mask != ~np.uint64(0)
        if unsat.all():
            unsat = None
    if unsat is None and nact == nblocks:
        # Dense frontier support, no saturated rows: every stored word
        # survives, the whole filter machinery would be pure overhead.
        k = nwords
        sel: np.ndarray | slice = slice(None)
        tcols = cols
        lanes_a = lanes
        seg_starts = row_ptr[:-1]
        seg_ends = row_ptr[1:]
    else:
        keep = active[cols]
        if unsat is not None:
            keep &= np.repeat(unsat, row_ptr[1:] - row_ptr[:-1])
        if workspace is not None:
            kcum = workspace.buffer("lin-spmm-kcum", nwords + 1, np.int64)
        else:
            kcum = np.empty(nwords + 1, dtype=np.int64)  # repro: noqa[RPR007] — cold path, no workspace supplied
        kcum[0] = 0
        np.cumsum(keep, out=kcum[1:])
        k = int(kcum[-1])
        if k == 0:
            return 0
        sel = np.flatnonzero(keep)
        # Compact the table to active blocks; cmap sends a surviving
        # word's column block to its slot in the compacted table.
        if workspace is not None:
            cmap = workspace.buffer("lin-spmm-cmap", nblocks, np.int64)
        else:
            cmap = np.empty(nblocks, dtype=np.int64)  # repro: noqa[RPR007] — cold path, no workspace supplied
        np.cumsum(active, out=cmap)
        tcols = cmap[cols[sel]] - 1
        lanes_a = lanes[active]
        # Row segments in filtered coordinates: rows partition the word
        # array, so prefix-counts of `keep` at the row boundaries are
        # exactly the filtered boundaries.
        seg_starts = kcum[row_ptr[:-1]]
        seg_ends = kcum[row_ptr[1:]]

    # Four-Russians table: T[cb, p, b] = OR of lanes_a[cb, p, j] over
    # the set bits j of b, built with one OR per byte value.
    if workspace is not None:
        table = workspace.buffer(
            "lin-spmm-table", nact * 8 * 256, np.uint64
        )
    else:
        table = np.empty(nact * 8 * 256, dtype=np.uint64)  # repro: noqa[RPR007] — cold path, no workspace supplied
    t = table.reshape(nact, 8, 256)
    t[:, :, 0] = 0
    for b in range(1, 256):
        np.bitwise_or(
            t[:, :, b & (b - 1)], lanes_a[:, :, _CTZ8[b]], out=t[:, :, b]
        )

    # Resolve every surviving word with 8 byte-indexed gathers.
    if _LITTLE_ENDIAN:
        byte_rows = words.view(np.uint8).reshape(nwords, 8)[sel]
        wsel = None
    else:
        byte_rows = None
        wsel = words[sel]
    if workspace is not None:
        acc = workspace.buffer("lin-spmm-acc", k, np.uint64)
    else:
        acc = np.empty(k, dtype=np.uint64)  # repro: noqa[RPR007] — cold path, no workspace supplied
    acc[:] = t[tcols, 0, _word_byte(wsel, byte_rows, 0)]
    for p in range(1, 8):
        np.bitwise_or(
            acc, t[tcols, p, _word_byte(wsel, byte_rows, p)], out=acc
        )

    # Per-row OR of the surviving words.  Empty segments have start ==
    # end, so consecutive non-empty starts delimit exactly one row each
    # and reduceat never sees an empty segment.
    nonempty = seg_starts < seg_ends
    incoming[nonempty] = np.bitwise_or.reduceat(acc, seg_starts[nonempty])
    return k
