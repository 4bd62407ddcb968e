"""Batched multi-source BFS.

Analytics workloads (the distance distributions of the social-network
example, centrality estimation, landmark routing) need BFS from many
roots.  Running them one at a time repeats the graph scan per root;
this module runs up to 64 roots *simultaneously* by packing per-root
visited state into one ``uint64`` word per vertex (the MS-BFS bit-
parallel technique), so each adjacency inspection advances every
search at once.

The per-level sweep is a vectorized word-OR propagation: a vertex's
next-visit mask is the union of its neighbours' current frontier masks,
minus what it has already seen — effectively running the bottom-up rule
for 64 searches per memory pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs._gather import expand_rows
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["MSBFS_KERNELS", "MultiSourceResult", "msbfs"]

MAX_BATCH = 64


@dataclass(frozen=True)
class MultiSourceResult:
    """Distances from up to 64 sources.

    ``levels`` is ``(num_sources, num_vertices)`` with ``-1`` marking
    unreachable vertices.
    """

    sources: np.ndarray
    levels: np.ndarray

    @property
    def num_sources(self) -> int:
        """Batch width."""
        return int(self.sources.size)

    def distance(self, source_index: int, v: int) -> int:
        """Distance from ``sources[source_index]`` to ``v``."""
        return int(self.levels[source_index, v])

    def distance_histogram(self) -> np.ndarray:
        """Pooled histogram of finite distances across all sources."""
        finite = self.levels[self.levels >= 0]
        if finite.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(finite)

    def mean_distance(self) -> float:
        """Mean finite distance (excluding the zero self-distances)."""
        finite = self.levels[self.levels > 0]
        if finite.size == 0:
            raise BFSError("no reachable pairs beyond the sources")
        return float(finite.mean())


#: Recognized sweep kernels for :func:`msbfs`.
MSBFS_KERNELS = ("scatter", "tiles")


def msbfs(
    graph: CSRGraph,
    sources: np.ndarray,
    *,
    kernel: str = "scatter",
    workspace: BFSWorkspace | None = None,
    tracer: Tracer | None = None,
) -> MultiSourceResult:
    """Run BFS from every vertex in ``sources`` simultaneously.

    At most :data:`MAX_BATCH` sources per call (one bit each in the
    per-vertex state word).  Duplicate sources are allowed and produce
    identical rows.

    ``kernel`` selects the per-level sweep: ``"scatter"`` expands the
    active adjacency and ORs frontier masks into ``incoming`` with
    ``np.bitwise_or.at``; ``"tiles"`` runs the whole level as one
    masked bitmap-matrix SpMM over the graph's
    :class:`~repro.linalg.tiles.BitmapTileMatrix`
    (:func:`repro.linalg.kernels.msbfs_tiles_step`), which streams the
    stored words instead of scattering per edge.  Both kernels produce
    identical ``levels``.

    With a ``workspace`` the three per-vertex ``uint64`` state words
    come from its scratch buffers, so repeated batches on one graph
    allocate only the ``levels`` output.

    ``tracer`` overrides the process-global tracer: each bit-parallel
    sweep becomes a ``bfs.level`` span under a ``bfs.msbfs`` root.
    """
    raw = np.asarray(sources)
    if raw.size and raw.dtype.kind not in "iu":
        # A float id such as 3.5 is refused, never truncated to 3.
        raise BFSError(
            f"msbfs sources must be integer vertex ids, got {raw.dtype}"
        )
    sources = raw.astype(np.int64).ravel()
    n = graph.num_vertices
    if kernel not in MSBFS_KERNELS:
        raise BFSError(
            f"unknown msbfs kernel {kernel!r}; expected one of "
            f"{MSBFS_KERNELS}"
        )
    if sources.size == 0:
        raise BFSError("msbfs needs at least one source")
    if sources.size > MAX_BATCH:
        raise BFSError(
            f"msbfs batch limited to {MAX_BATCH} sources, got {sources.size}"
        )
    if sources.min() < 0 or sources.max() >= n:
        raise BFSError("source out of range")
    tiles = None
    if kernel == "tiles":
        # Lazy import: repro.linalg builds on repro.bfs, so the reverse
        # dependency stays out of module scope.
        from repro.linalg.kernels import msbfs_tiles_step
        from repro.linalg.tiles import tile_matrix

        tiles = tile_matrix(graph)

    k = sources.size
    if workspace is not None:
        seen = workspace.buffer("ms-seen", n, np.uint64)
        frontier = workspace.buffer("ms-frontier", n, np.uint64)
        incoming = workspace.buffer("ms-incoming", n, np.uint64)
        seen.fill(0)
        frontier.fill(0)
    else:
        seen = np.zeros(n, dtype=np.uint64)     # bit b: visited by search b
        frontier = np.zeros(n, dtype=np.uint64)  # bit b: in search b's frontier
        incoming = np.empty(n, dtype=np.uint64)
    levels = np.full((k, n), -1, dtype=np.int64)
    for b, src in enumerate(sources):
        bit = np.uint64(1) << np.uint64(b)
        seen[src] |= bit
        frontier[src] |= bit
        levels[b, src] = 0

    tr = tracer if tracer is not None else get_tracer()
    depth = 0
    words_streamed = 0
    active = np.nonzero(frontier)[0]
    with tr.span(
        "bfs.msbfs", batch=k, num_vertices=n, kernel=kernel
    ) as root:
        while active.size:
            with tr.span("bfs.level", depth=depth) as sp:
                # Propagate frontier masks over the adjacency of the
                # frontier: scatter over the active rows' edges, or one
                # tile-SpMM pass over the stored words.
                if tiles is not None:
                    # `seen` lets the kernel drop rows every search has
                    # already visited — their fresh mask is 0 anyway.
                    words_streamed += msbfs_tiles_step(
                        tiles,
                        frontier,
                        incoming,
                        row_mask=seen,
                        workspace=workspace,
                    )
                    examined = tiles.num_entries
                else:
                    neighbours, owners, _ = expand_rows(
                        graph, active, workspace
                    )
                    incoming.fill(0)
                    np.bitwise_or.at(incoming, neighbours, frontier[owners])
                    examined = neighbours.size
                # fresh = incoming & ~seen, written into the frontier
                # buffer (its old masks were consumed by the gather
                # above).
                np.bitwise_not(seen, out=frontier)
                np.bitwise_and(incoming, frontier, out=frontier)
                fresh = frontier
                np.bitwise_or(seen, fresh, out=seen)
                depth += 1
                newly = np.nonzero(fresh)[0]
                if newly.size:
                    # Record the level for each (search, vertex) pair
                    # discovered.
                    masks = fresh[newly]
                    for b in range(k):
                        bit = np.uint64(1) << np.uint64(b)
                        hit = (masks & bit).astype(bool)
                        levels[b, newly[hit]] = depth
                sp.set("active_vertices", int(active.size))
                sp.set("edges_examined", int(examined))
                sp.set("claimed", int(newly.size))
            active = newly
        root.set("levels", depth)
    tr.count("bfs.levels", depth)
    if tiles is not None:
        tr.count("linalg.tile_passes", depth)
        tr.count("linalg.tile_words", words_streamed)
    return MultiSourceResult(sources=sources.copy(), levels=levels)
