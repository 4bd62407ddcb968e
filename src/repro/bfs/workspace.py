"""Reusable per-traversal scratch state for the BFS engines.

Repeated traversals are the dominant workload of this library: Graph 500
runs 64 roots on one graph, :func:`repro.apps.components` sweeps every
seed, benchmarks loop the same kernel thousands of times.  Before this
module each traversal allocated its parent/level maps, a dense frontier
mask and per-level index scratch from scratch; :class:`BFSWorkspace`
owns all of that state so a warm engine allocates nothing proportional
to ``V`` or ``E`` per traversal (NumPy ufunc temporaries of the
per-level candidate sets remain — they are inherent to vectorized
kernels and proportional to the *frontier*, not the graph).

The pieces:

* ``parent`` / ``level`` — the persistent ``int64`` output maps,
  reset with :meth:`begin` (results returned from a traversal run with
  an explicit workspace *alias* these arrays; call
  :meth:`repro.bfs.result.BFSResult.detach` to keep one).
* a ``bool[V]`` frontier mask for the bottom-up membership test
  (the paper's frontier bitmap, one byte per vertex), cleared by
  writing ``False`` at the previously loaded ids instead of a
  ``fill(False)`` over ``V``.
* an incrementally maintained unvisited id list for bottom-up levels:
  built once per traversal with a single ``flatnonzero`` (the paper's
  top-down→bottom-up representation-conversion cost) and shrunk by the
  claimed vertices each level instead of rescanning ``parent < 0``.
* a grow-only read-only ``arange`` cache (:meth:`iota`) shared by the
  gather kernels and the O(k) claim step.
* named per-thread scratch buffers (:meth:`buffer`) so the
  thread-parallel engine's workers never contend for scratch.

Thread-safety: :meth:`iota` may be called concurrently from
:class:`~repro.bfs.parallel.ParallelBFS` workers — the cache is
published read-only and a racing grow is benign (each thread keeps a
valid view).  :meth:`buffer` keys scratch by thread id.  Everything
else (``begin``, claim slots, unvisited maintenance) is main-thread
state driven by the level loop.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.bfs.result import check_source
from repro.errors import BFSError
from repro.graph.csr import CSRGraph

__all__ = ["BFSWorkspace"]

#: Floor for grown scratch so tiny first requests don't thrash.
_MIN_GROW = 1024


class BFSWorkspace:
    """Owns every reusable array one BFS traversal needs.

    Create once per graph size (``BFSWorkspace.for_graph(graph)``) and
    pass ``workspace=`` to any engine; the engine calls :meth:`begin`
    to reset the output maps and drives the frontier/unvisited helpers
    level by level.  Without an explicit workspace the engines create a
    private one per call, which keeps the historical each-result-owns-
    its-arrays behavior.
    """

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise BFSError(
                f"num_vertices must be non-negative, got {num_vertices}"
            )
        self.num_vertices = int(num_vertices)
        self.parent = np.full(self.num_vertices, -1, dtype=np.int64)
        self.level = np.full(self.num_vertices, -1, dtype=np.int64)
        self._in_frontier = np.zeros(self.num_vertices, dtype=np.bool_)
        self._frontier_loaded: np.ndarray | None = None
        self._claim_slot: np.ndarray | None = None
        self._iota: np.ndarray | None = None
        # Unvisited tracking: current view, its backing array, and a
        # spare backing of equal capacity for the compress ping-pong.
        self._unv: np.ndarray | None = None
        self._unv_backing: np.ndarray | None = None
        self._unv_spare: np.ndarray | None = None
        self._buffers: dict[tuple[str, str, int], np.ndarray] = {}

    @classmethod
    def for_graph(cls, graph: CSRGraph) -> "BFSWorkspace":
        """Workspace sized for ``graph``."""
        return cls(graph.num_vertices)

    # -- traversal lifecycle ------------------------------------------------

    def begin(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Reset for a new traversal rooted at ``source``.

        Returns the ``(parent, level)`` maps with the source stamped in.
        """
        source = check_source(source, self.num_vertices)
        self.parent.fill(-1)
        self.level.fill(-1)
        self.parent[source] = source
        self.level[source] = 0
        self.clear_frontier()
        self.invalidate_unvisited()
        return self.parent, self.level

    # -- frontier mask ------------------------------------------------------

    def clear_frontier(self) -> None:
        """Clear the frontier mask by writing ``False`` at only the ids
        the previous :meth:`load_frontier` set."""
        loaded = self._frontier_loaded
        if loaded is not None:
            self._in_frontier[loaded] = False
        self._frontier_loaded = None

    @property
    def frontier_mask(self) -> np.ndarray:
        """The ``bool[V]`` mask :meth:`load_frontier` last loaded."""
        return self._in_frontier

    def load_frontier(self, ids: np.ndarray) -> np.ndarray:
        """Load ``ids`` as the current frontier and return the mask.

        The previous frontier's entries are cleared first, so the cost
        is ``O(|previous| + |ids|)`` rather than ``O(V)``.
        """
        self.clear_frontier()
        ids = np.asarray(ids, dtype=np.int64)
        self._in_frontier[ids] = True
        self._frontier_loaded = ids
        return self._in_frontier

    # -- incremental unvisited tracking -------------------------------------

    def unvisited_ids(self, graph: CSRGraph, parent: np.ndarray) -> np.ndarray:
        """Ids of unvisited vertices with at least one edge, ascending.

        Built lazily with one full scan of the parent map — this is the
        top-down→bottom-up representation-conversion cost the paper
        charges once per direction switch — then maintained by
        :meth:`retire_claimed` in ``O(|list|)`` per level.  Zero-degree
        vertices are excluded up front: they can never be claimed by a
        bottom-up scan and would only pad every segmented kernel.
        """
        if self._unv is None:
            ids = np.flatnonzero((parent < 0) & (graph.degrees > 0))
            self._unv_backing = ids
            self._unv = ids
        return self._unv

    def retire_claimed(self, parent: np.ndarray) -> None:
        """Shrink the unvisited list to the still-unvisited prefix.

        No-op when the list has not been built (pure top-down phases
        keep it lazy).  Must be called after every level that claims
        vertices while the list is live — the bottom-up kernel trusts
        the list and does not re-check ``parent``.
        """
        cur = self._unv
        if cur is None or cur.size == 0:
            return
        gathered = self.buffer("unv-gather", cur.size, np.int64)
        np.take(parent, cur, out=gathered)
        keep = self.buffer("unv-keep", cur.size, np.bool_)
        np.less(gathered, 0, out=keep)
        k = int(np.count_nonzero(keep))
        if k == cur.size:
            return
        spare = self._unv_spare
        if spare is None or spare.size < cur.size:
            spare = np.empty(max(cur.size, _MIN_GROW), dtype=np.int64)
        np.compress(keep, cur, out=spare[:k])
        self._unv_spare = self._unv_backing
        self._unv_backing = spare
        self._unv = spare[:k]

    def invalidate_unvisited(self) -> None:
        """Drop the unvisited list (next use rebuilds it from ``parent``)."""
        self._unv = None
        self._unv_backing = None

    # -- scratch ------------------------------------------------------------

    def iota(self, k: int) -> np.ndarray:
        """Read-only view of ``arange(k)`` from a grow-only cache."""
        cur = self._iota
        if cur is None or cur.size < k:
            grown = np.arange(
                max(k, _MIN_GROW, 0 if cur is None else 2 * cur.size),
                dtype=np.int64,
            )
            grown.flags.writeable = False
            self._iota = cur = grown
        return cur[:k]

    def claim_slots(self) -> np.ndarray:
        """The ``int64[V]`` slot array for the O(k) first-writer claim.

        Never initialized: the claim step writes every slot it reads
        within a level, so stale contents are unobservable.
        """
        slot = self._claim_slot
        if slot is None:
            self._claim_slot = slot = np.empty(
                self.num_vertices, dtype=np.int64
            )
        return slot

    def buffer(self, name: str, size: int, dtype: np.dtype) -> np.ndarray:
        """A named grow-only scratch buffer, private to the calling thread.

        Returns a writable view of exactly ``size`` elements.  Contents
        are unspecified; callers must fully overwrite what they read.

        Ownership note: the key includes ``threading.get_ident()``, so
        two pool workers asking for the same ``name`` get *disjoint*
        backing arrays — this is what makes workspace scratch a
        permitted write target inside ``ParallelBFS`` worker closures
        (ownership protocol rule 2).
        """
        key = (name, np.dtype(dtype).str, threading.get_ident())
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(max(size, _MIN_GROW), dtype=dtype)
            self._buffers[key] = buf
        return buf[:size]
