"""Thread-parallel BFS kernels.

The paper's OpenMP loops parallelize the level's outer loop control
(Section III-A): top-down over the current queue, bottom-up over the
unvisited vertices.  The same decomposition is applied here with a
thread pool: the work array is split into per-thread chunks, each chunk
runs the vectorized kernel (NumPy releases the GIL inside its ufunc
loops, so chunks genuinely overlap), and the claims are merged.

Bottom-up partitioning is conflict-free by construction — each
unvisited vertex is owned by exactly one thread — mirroring why the
paper calls bottom-up's parallelism Θ(V/lg V) against top-down's
Θ(Vcq/lg Vcq).  Top-down chunks can race to discover the same vertex,
resolved in the merge step exactly like the sequential first-writer
rule (the O(k) reversed-scatter claim over the concatenated proposals).

These kernels power the *real-machine* strong-scaling benchmark that
accompanies the simulated Fig. 10.

Ownership protocol
------------------
The engine's thread-safety contract, enforced statically by the deep
lint rules ``RPR013`` (a worker's own write), ``RPR014`` (a write
through a helper in the worker's module) and ``RPR017`` (through
another module), and dynamically by ``run(..., sanitize="race")``:

1. worker closures may **read** shared state freely (``parent``,
   ``level``, CSR arrays, the frontier mask);
2. a worker may **write** only (a) arrays it allocated itself, (b) its
   per-thread workspace scratch (:meth:`BFSWorkspace.buffer` is keyed
   by thread id), and (c) the disjoint chunk it was handed
   (``np.array_split`` partitions are non-overlapping);
3. every write to the shared ``parent``/``level`` maps happens on the
   **main thread after the pool has joined**: top-down merges the
   concatenated proposals through the first-writer claim, bottom-up
   scatters the winners of the partitioned unvisited scan.

A deliberate exception is suppressed where the rule reports it, with
``# repro: noqa[<code>]`` and a reason.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from repro.bfs._gather import expand_rows
from repro.bfs.bottomup import _row_scan
from repro.bfs.engine import (
    DirectionPolicy,
    Steps,
    forced,
    sanitizers,
    traverse,
)
from repro.bfs.hybrid import MNPolicy
from repro.bfs.result import BFSResult, Direction
from repro.bfs.topdown import claim_first_writer
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer

__all__ = ["ParallelBFS"]


def _split(values: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split ``values`` into at most ``parts`` contiguous chunks."""
    parts = min(parts, max(1, values.size))
    return [c for c in np.array_split(values, parts) if c.size]


def _level_span(tracer: Tracer) -> int | None:
    """Id of the calling thread's open ``bfs.level`` span.  Worker spans
    open on pool threads whose span stacks are empty; parenting them
    under it keeps the trace tree connected (a disabled tracer stays
    parent-free and free of cost)."""
    return tracer.current_span_id() if tracer.enabled else None


class ParallelBFS:
    """A reusable thread-parallel BFS engine.

    Parameters
    ----------
    num_threads:
        Worker threads for both directions (the "cores" of the scaling
        experiment).
    policy:
        Optional direction policy; defaults to always top-down unless an
        ``MNPolicy`` is supplied, making the engine usable for plain
        top-down, plain bottom-up and hybrid scaling runs.

    The pool is created per engine and shared across traversals; use as
    a context manager or call :meth:`close`.  Running a traversal on a
    closed engine raises :class:`~repro.errors.BFSError`.
    """

    def __init__(
        self,
        num_threads: int = 4,
        policy: DirectionPolicy | None = None,
    ) -> None:
        if num_threads < 1:
            raise BFSError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads
        self.policy = policy
        self._pool = ThreadPoolExecutor(
            max_workers=num_threads, thread_name_prefix="repro-bfs"
        )
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool.  Idempotent.

        Safe to call while work from an aborted traversal is still
        queued (the context manager calls it when the body raises
        mid-traversal): queued-but-unstarted chunks are cancelled so
        the shutdown cannot hang behind them, then the join waits only
        for chunks already executing.
        """
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "ParallelBFS":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- level kernels -------------------------------------------------------

    def _top_down_level(
        self,
        graph: CSRGraph,
        frontier: np.ndarray,
        parent: np.ndarray,
        level: np.ndarray,
        depth: int,
        workspace: BFSWorkspace,
        tracer: Tracer = NULL_TRACER,
        race=None,
        parent_span: int | None = None,
    ) -> tuple[np.ndarray, int]:
        if parent_span is None:
            parent_span = _level_span(tracer)
        chunks = _split(frontier, self.num_threads)

        def expand(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
            """One thread's share of the frontier expansion.

            Read-only over shared state: proposals are returned to the
            main thread for the first-writer merge (ownership protocol
            rule 3).  The span lands on the worker thread's own track
            (thread name) but parents under the coordinating
            ``bfs.level`` span, so the exported trace shows one row per
            worker with real parent links instead of orphan stacks.
            """
            with tracer.span(
                "worker.expand",
                parent=parent_span,
                depth=depth,
                chunk_vertices=int(chunk.size),
            ):
                if race is not None:
                    race.stamp_chunk(f"expand@{depth}")
                neighbours, owners, _ = expand_rows(graph, chunk, workspace)
                fresh = parent[neighbours] < 0
                return neighbours[fresh], owners[fresh], int(neighbours.size)

        results = list(self._pool.map(expand, chunks))
        examined = sum(r[2] for r in results)
        if not results:
            return np.zeros(0, dtype=np.int64), 0
        cand = np.concatenate([r[0] for r in results])
        cand_parent = np.concatenate([r[1] for r in results])
        if cand.size == 0:
            return np.zeros(0, dtype=np.int64), examined
        next_frontier = claim_first_writer(
            cand, cand_parent, parent, level, depth, workspace
        )
        return next_frontier, examined

    def _bottom_up_level(
        self,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        parent: np.ndarray,
        level: np.ndarray,
        depth: int,
        unvisited: np.ndarray,
        workspace: BFSWorkspace,
        tracer: Tracer = NULL_TRACER,
        race=None,
        parent_span: int | None = None,
    ) -> tuple[np.ndarray, int]:
        if parent_span is None:
            parent_span = _level_span(tracer)
        # The caller maintains `unvisited` (degree > 0, retired each
        # level); each thread owns a contiguous slice, so claims are
        # conflict-free.
        chunks = _split(unvisited, self.num_threads)
        targets = graph.targets
        degrees = graph.degrees
        offsets = graph.offsets

        def scan(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
            """One thread's share of the unvisited scan.

            Workspace scratch is safe here: :meth:`BFSWorkspace.buffer`
            is keyed by thread id and the iota cache grow is benign
            under races (each thread keeps a valid read-only view).
            The span lands on the worker thread's own trace track.
            """
            with tracer.span(
                "worker.scan",
                parent=parent_span,
                depth=depth,
                chunk_vertices=int(chunk.size),
            ):
                if race is not None:
                    race.stamp_chunk(f"scan@{depth}")
                deg = degrees[chunk]
                starts = offsets[chunk]
                found, first_local, inspected = _row_scan(
                    graph,
                    chunk,
                    deg,
                    starts,
                    in_frontier,
                    workspace=workspace,
                )
                return (
                    chunk[found],
                    targets[(starts + first_local)[found]],
                    inspected,
                )

        results = list(self._pool.map(scan, chunks))
        checked = sum(r[2] for r in results)
        winners_list = [r[0] for r in results if r[0].size]
        if not winners_list:
            return np.zeros(0, dtype=np.int64), checked
        # Chunks partition the ascending unvisited list, so the
        # concatenated winners are already sorted.
        winners = np.concatenate(winners_list)
        parents = np.concatenate([r[1] for r in results if r[0].size])
        # Main-thread merge (ownership protocol rule 3): the pool has
        # joined, so these are the level's only shared-map writes.
        parent[winners] = parents
        level[winners] = depth + 1
        return winners, checked

    # -- traversal --------------------------------------------------------------

    def run(
        self,
        graph: CSRGraph,
        source: int,
        *,
        direction: str | None = None,
        workspace: BFSWorkspace | None = None,
        tracer: Tracer | None = None,
        sanitize: bool | str = False,
    ) -> BFSResult:
        """Traverse from ``source``.

        ``direction='td'``/``'bu'`` forces one kernel; otherwise the
        engine's policy decides per level (top-down without one).
        ``workspace`` and ``tracer`` are as for
        :func:`~repro.bfs.engine.traverse`: levels are ``bfs.level``
        spans under a ``bfs.parallel`` root, each worker chunk a
        ``worker.expand``/``worker.scan`` span on its thread's track.

        ``sanitize=True`` runs under the invariant
        :class:`~repro.analysis.sanitizer.Sanitizer`; ``"race"`` adds
        :class:`~repro.analysis.sanitizer.RaceTracker` write tracking,
        which raises :class:`~repro.errors.SanitizerError` if any
        vertex outside the claimed next frontier was written — a
        cross-thread write that bypassed the main-thread merge.
        """
        if self._closed:
            raise BFSError("ParallelBFS engine is closed; create a new one")
        if direction is not None:
            policy = forced(direction)
        elif self.policy is not None:
            policy = self.policy
        else:
            policy = forced(Direction.TOP_DOWN)
        tr = tracer if tracer is not None else get_tracer()
        observers = sanitizers(graph, source, sanitize)
        race = observers[0] if sanitize == "race" else None
        # This engine's pool-chunked kernels, bound to the run.
        steps = Steps(
            partial(self._top_down_level, tracer=tr, race=race),
            partial(self._bottom_up_level, tracer=tr, race=race),
        )
        with tr.span(
            "bfs.parallel", source=source, num_vertices=graph.num_vertices,
            num_threads=self.num_threads,
        ) as root:
            result = traverse(
                graph, source, policy, steps, workspace=workspace,
                tracer=tr, observers=observers,
            )
            root.set("levels", len(result.directions))
        return result

    @classmethod
    def hybrid(
        cls, num_threads: int, m: float, n: float
    ) -> "ParallelBFS":
        """Engine with the paper's (M, N) switching rule."""
        return cls(num_threads=num_threads, policy=MNPolicy(m, n))
