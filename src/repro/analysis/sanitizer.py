"""Runtime BFS sanitizer.

An opt-in harness around the traversal engines (pass ``sanitize=True``
to :func:`repro.bfs.bfs_top_down` / ``bfs_bottom_up`` / ``bfs_hybrid``)
that turns silent traversal corruption into a structured
:class:`~repro.errors.SanitizerError`.  Both classes here are level
observers (:class:`~repro.bfs.engine.LevelObserver`) driven by the one
level loop, :func:`repro.bfs.engine.traverse`.  Two mechanisms:

**Freezing** — for the duration of a sanitized traversal the graph's CSR
arrays are marked ``writeable=False``, so any kernel that writes through
an alias of ``offsets``/``targets`` (the bug class lint rule ``RPR005``
looks for statically) fails loudly at the write site instead of
corrupting the graph for every later traversal.

**Per-level invariants** — after every level the sanitizer checks:

1. every newly claimed vertex is recorded at depth ``d + 1`` and its
   parent sits at exactly depth ``d`` (one level shallower);
2. no vertex is ever claimed twice across the traversal;
3. when the level ran bottom-up, the frontier mask the kernel consumed
   agrees exactly with the queue representation;
4. the unvisited count is strictly decreasing while the traversal makes
   progress, and always agrees with the parent map.

**Write tracking (race mode)** — :class:`RaceTracker` backs the
parallel engine's ``sanitize="race"`` mode.  It snapshots the
``parent``/``level`` maps before each level, lets worker threads stamp
the segments they process, and after the level verifies that the set
of modified vertices is *exactly* the claimed next frontier — any
write outside the claimed set is a cross-thread write that bypassed
the main-thread merge (the ownership protocol the static rules
``RPR013``/``RPR014`` enforce at the AST level), and raises
:class:`~repro.errors.SanitizerError` naming the rogue vertices.

Violations raise :class:`~repro.errors.SanitizerError` carrying the
level and the offending vertex ids.  The checks are vectorized and add
``O(frontier)`` work per level (``O(V)`` per level in race mode), so
sanitized runs remain usable on Graph 500-scale inputs (the acceptance
bar is a clean R-MAT scale-14 hybrid run).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.bfs.engine import LevelObserver
from repro.bfs.result import check_source
from repro.errors import SanitizerError
from repro.graph.csr import CSRGraph

__all__ = ["Sanitizer", "RaceTracker", "frozen_arrays"]


class frozen_arrays:
    """Context manager marking a graph's CSR arrays read-only.

    Restores the previous ``writeable`` flags on exit, so graphs that
    were deliberately writable (via :meth:`CSRGraph.copy_writable`) come
    back as they were.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph
        self._saved: tuple[bool, bool] | None = None

    def __enter__(self) -> "frozen_arrays":
        g = self._graph
        self._saved = (
            bool(g.offsets.flags.writeable),
            bool(g.targets.flags.writeable),
        )
        g.offsets.flags.writeable = False
        g.targets.flags.writeable = False
        return self

    def __exit__(self, *exc: object) -> None:
        g = self._graph
        if self._saved is not None:
            g.offsets.flags.writeable = self._saved[0]
            g.targets.flags.writeable = self._saved[1]
        self._saved = None


class Sanitizer(LevelObserver):
    """Tracks one traversal and checks its per-level invariants.

    :func:`repro.bfs.engine.traverse` drives it as an observer: entered
    for the traversal, :meth:`after_level` after every level,
    :meth:`finish` at the end.  ``levels_checked`` and
    ``vertices_checked`` summarize a clean run.
    """

    def __init__(self, graph: CSRGraph, source: int) -> None:
        n = graph.num_vertices
        source = check_source(source, n)
        self.graph = graph
        self.source = int(source)
        self._visited = np.zeros(n, dtype=bool)
        self._visited[source] = True
        self._unvisited = n - 1
        self.levels_checked = 0
        self.vertices_checked = 1
        self._frozen = frozen_arrays(graph)

    # -- context manager (array freezing) ---------------------------------

    def __enter__(self) -> "Sanitizer":
        self._frozen.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._frozen.__exit__(*exc)

    # -- per-level checks ---------------------------------------------------

    def after_level(
        self,
        depth: int,
        frontier: np.ndarray,
        next_frontier: np.ndarray,
        parent: np.ndarray,
        level: np.ndarray,
        *,
        in_frontier: np.ndarray | None = None,
    ) -> None:
        """Validate the state left behind by the level at ``depth``.

        ``frontier`` is the queue the level consumed, ``next_frontier``
        the vertices it claimed; ``in_frontier`` is the ``bool[V]``
        frontier mask the kernel consumed when the level ran bottom-up
        (``None`` for top-down levels).
        """
        nf = np.asarray(next_frontier, dtype=np.int64)

        if in_frontier is not None:
            mask_ids = np.flatnonzero(in_frontier)
            queue_ids = np.sort(np.asarray(frontier, dtype=np.int64))
            if not np.array_equal(mask_ids, queue_ids):
                extra = np.setdiff1d(mask_ids, queue_ids)
                missing = np.setdiff1d(queue_ids, mask_ids)
                bad = np.concatenate([extra, missing])
                raise SanitizerError(
                    "frontier mask and queue disagree "
                    f"({extra.size} extra, {missing.size} missing)",
                    level=depth,
                    vertices=tuple(bad[:16]),
                )

        if nf.size:
            wrong_level = nf[level[nf] != depth + 1]
            if wrong_level.size:
                raise SanitizerError(
                    "claimed vertex not recorded one level below the "
                    "frontier",
                    level=depth + 1,
                    vertices=tuple(wrong_level[:16]),
                )
            parents = parent[nf]
            bad_parent = (parents < 0) | (parents >= level.size)
            if bad_parent.any():
                raise SanitizerError(
                    "claimed vertex has an out-of-range parent",
                    level=depth + 1,
                    vertices=tuple(nf[bad_parent][:16]),
                )
            not_shallower = nf[level[parents] != depth]
            if not_shallower.size:
                raise SanitizerError(
                    "claimed vertex's parent is not exactly one level "
                    "shallower",
                    level=depth + 1,
                    vertices=tuple(not_shallower[:16]),
                )
            revisited = nf[self._visited[nf]]
            if revisited.size:
                raise SanitizerError(
                    "vertex visited twice",
                    level=depth + 1,
                    vertices=tuple(revisited[:16]),
                )
            self._visited[nf] = True

        expected_unvisited = self._unvisited - int(nf.size)
        actual_unvisited = int((parent < 0).sum())
        if actual_unvisited != expected_unvisited:
            raise SanitizerError(
                "unvisited count does not match the parent map "
                f"(expected {expected_unvisited}, parent map says "
                f"{actual_unvisited})",
                level=depth,
            )
        if nf.size and expected_unvisited >= self._unvisited:
            raise SanitizerError(
                "unvisited count failed to decrease on a claiming level",
                level=depth,
            )
        self._unvisited = expected_unvisited
        self.levels_checked += 1
        self.vertices_checked += int(nf.size)

    # -- whole-traversal checks ------------------------------------------

    def finish(self, parent: np.ndarray, level: np.ndarray) -> None:
        """Final cross-checks once the traversal terminates."""
        reached_p = parent >= 0
        reached_l = level >= 0
        if not np.array_equal(reached_p, reached_l):
            bad = np.nonzero(reached_p != reached_l)[0]
            raise SanitizerError(
                "parent map and level map disagree on the reached set",
                vertices=tuple(bad[:16]),
            )
        if not np.array_equal(reached_p, self._visited):
            bad = np.nonzero(reached_p != self._visited)[0]
            raise SanitizerError(
                "reached set disagrees with the per-level claim history",
                vertices=tuple(bad[:16]),
            )

    def summary(self) -> str:
        """One-line report for a clean run."""
        return (
            f"sanitizer: {self.levels_checked} levels, "
            f"{self.vertices_checked} vertices checked, 0 violations"
        )


class RaceTracker(LevelObserver):
    """Thread-ownership write tracking for ``ParallelBFS`` race mode.

    The parallel engine's ownership protocol says all ``parent``/
    ``level`` writes happen on the main thread, as the first-writer
    claim of the next frontier, after the worker pool has joined.  The
    tracker enforces that dynamically:

    * :meth:`begin_level` snapshots both maps (into reused buffers —
      two O(V) copies per level, only in race mode);
    * workers call :meth:`stamp_chunk` to record which thread touched
      which segment (pure bookkeeping, used for diagnostics);
    * :meth:`verify_level` diffs the maps against the snapshot and
      raises :class:`~repro.errors.SanitizerError` if any vertex
      changed that is **not** in the claimed next frontier — a write
      that bypassed the main-thread merge — or if a claimed vertex was
      never actually written.

    Because the legitimate write set is exactly the claimed frontier,
    the check is independent of how the level function is implemented:
    a worker scribbling on shared state is caught even if it races the
    snapshot, since its target vertices are not claimed.
    """

    def __init__(self, graph: CSRGraph, source: int) -> None:
        n = graph.num_vertices
        check_source(source, n)
        self._snap_parent = np.empty(n, dtype=np.int64)
        self._snap_level = np.empty(n, dtype=np.int64)
        self._stamps: list[tuple[int, str]] = []
        self._lock = threading.Lock()
        self.levels_verified = 0
        self.writes_verified = 0

    def before_level(self, state, frontier, parent, level, span) -> None:
        """Observer hook: snapshot before the level's kernel."""
        self.begin_level(parent, level)

    def after_level(self, depth, frontier, next_frontier, parent, level,
                    *, in_frontier=None) -> None:
        """Observer hook: verify the level's writes."""
        self.verify_level(depth, parent, level, next_frontier)

    def begin_level(self, parent: np.ndarray, level: np.ndarray) -> None:
        """Snapshot the maps before the level's kernels run."""
        np.copyto(self._snap_parent, parent)
        np.copyto(self._snap_level, level)
        self._stamps.clear()

    def stamp_chunk(self, note: str = "") -> None:
        """Record that the calling thread processed one work chunk."""
        with self._lock:
            self._stamps.append((threading.get_ident(), note))

    def verify_level(
        self,
        depth: int,
        parent: np.ndarray,
        level: np.ndarray,
        claimed: np.ndarray,
    ) -> None:
        """Check that this level's writes are exactly the claimed set."""
        claimed = np.sort(np.asarray(claimed, dtype=np.int64))
        threads = sorted({tid for tid, _ in self._stamps})
        for name, current, snapshot in (
            ("parent", parent, self._snap_parent),
            ("level", level, self._snap_level),
        ):
            changed = np.flatnonzero(current != snapshot)
            rogue = np.setdiff1d(changed, claimed)
            if rogue.size:
                raise SanitizerError(
                    f"{rogue.size} write(s) to the {name} map outside "
                    f"the claimed next frontier at depth {depth} — a "
                    "cross-thread write bypassed the main-thread merge "
                    f"(worker threads this level: {threads})",
                    level=depth,
                    vertices=tuple(rogue[:16]),
                )
            unwritten = np.setdiff1d(claimed, changed)
            if unwritten.size:
                raise SanitizerError(
                    f"{unwritten.size} claimed vertex(es) never written "
                    f"to the {name} map at depth {depth}",
                    level=depth,
                    vertices=tuple(unwritten[:16]),
                )
            self.writes_verified += int(changed.size)
        self.levels_verified += 1

    def summary(self) -> str:
        """One-line report for a clean run."""
        return (
            f"race tracker: {self.levels_verified} levels, "
            f"{self.writes_verified} writes verified, 0 rogue writes"
        )
