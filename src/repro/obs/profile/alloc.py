"""Allocation attribution: ``tracemalloc`` windows per span.

PR 2's workspace design claims that *warm* traversals perform no
graph-sized allocations — every ``O(V)`` array is drawn from the
:class:`~repro.bfs.workspace.BFSWorkspace`.  This module proves (or
falsifies) that claim on real runs: an :class:`AllocationProfiler`
attaches to the tracer as a :class:`~repro.obs.tracer.TraceListener`,
opens a ``tracemalloc`` window when a watched span (``bfs.level``)
opens, and on close attributes what was allocated.

Two accounting modes:

* **detailed** (default) — snapshot diff between window open and close,
  filtered by ``size_floor``: only allocation *sites* whose net growth
  meets the floor are reported.  The floor is the definition of
  "graph-sized": pass ``8 * num_vertices`` (one machine word per
  vertex) and per-level frontier churn — small arrays of claimed ids,
  strictly below one word per vertex — stays invisible, while any
  rebuilt parent map, bitmap or scratch buffer is caught at its exact
  allocation site.
* **cheap** — net ``tracemalloc.get_traced_memory()`` delta only; no
  snapshots, near-zero cost, but includes every surviving temporary
  (so nonzero values are *not* evidence against the claim; use
  detailed mode to adjudicate).

Results land in three places: per-window observations in the
``alloc.bytes``/``alloc.blocks`` registry histograms, per-span
``alloc_bytes``/``alloc_blocks`` attrs on the closed span record, and
an aggregated per-kernel :meth:`AllocationProfiler.report`.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc

from repro.errors import ProfileError
from repro.obs.tracer import SpanRecord, Span, TraceListener, Tracer

__all__ = ["DEFAULT_WATCHED_SPANS", "DEFAULT_SIZE_FLOOR", "AllocationProfiler"]

#: Span names whose windows are measured by default: the per-level
#: kernels of every engine (the allocation-freedom claim is per level).
DEFAULT_WATCHED_SPANS = ("bfs.level",)

#: Default "graph-sized" floor for detailed mode; callers that know the
#: graph should pass ``8 * num_vertices`` instead.
DEFAULT_SIZE_FLOOR = 65536

#: The observability stack's own allocations are excluded from every
#: window: the concurrent :class:`~repro.obs.profile.sampler.
#: StackSampler` thread stores samples *during* kernel windows, and
#: without this filter its sample buffer would be misattributed to the
#: kernel under measurement (the profiler falsifying its own claim).
_SELF_FILTERS = (
    tracemalloc.Filter(False, "*repro/obs/*"),
    tracemalloc.Filter(False, tracemalloc.__file__),
)


class AllocationProfiler(TraceListener):
    """Attributes allocations to spans via tracemalloc windows.

    Use as a context manager::

        tracer = Tracer()
        with AllocationProfiler(tracer, size_floor=8 * graph.num_vertices):
            bfs_hybrid(graph, 0, m=14, n=14, workspace=ws, tracer=tracer)

    Entering starts ``tracemalloc`` (unless already running — then the
    profiler leaves its lifecycle alone) and registers the listener;
    exiting detaches and stops what it started.  Windows nest: each
    watched span gets its own open-state keyed by span id, so
    ``bfs.level`` inside ``graph500.bfs`` measures only its own slice.
    """

    def __init__(
        self,
        tracer: Tracer,
        *,
        spans: tuple[str, ...] = DEFAULT_WATCHED_SPANS,
        detailed: bool = True,
        size_floor: int = DEFAULT_SIZE_FLOOR,
    ) -> None:
        if size_floor < 1:
            raise ProfileError(f"size_floor must be >= 1, got {size_floor}")
        self.tracer = tracer
        self.watched = tuple(spans)
        self.detailed = bool(detailed)
        self.size_floor = int(size_floor)
        self._lock = threading.Lock()
        self._open: dict[int, tuple[int, object | None]] = {}
        self._per_kernel: dict[str, dict] = {}
        self._started_tracemalloc = False
        self.windows = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "AllocationProfiler":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self.tracer.add_listener(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer.remove_listener(self)
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- listener callbacks --------------------------------------------------

    def on_span_open(self, span: Span) -> None:
        """Open a tracemalloc window for a watched span."""
        if span.name not in self.watched or not tracemalloc.is_tracing():
            return
        current, _peak = tracemalloc.get_traced_memory()
        snap = None
        if self.detailed:
            gc.collect()
            snap = tracemalloc.take_snapshot().filter_traces(_SELF_FILTERS)
        with self._lock:
            self._open[span.span_id] = (current, snap)

    def on_span_close(self, record: SpanRecord) -> None:
        """Close the window and attribute the allocations."""
        with self._lock:
            state = self._open.pop(record.span_id, None)
        if state is None:
            return
        bytes0, snap0 = state
        if self.detailed and snap0 is not None:
            grown_bytes = 0
            grown_blocks = 0
            # Frames captured by the concurrent sampler's
            # ``sys._current_frames`` walk can escape into reference
            # cycles and keep a *returned* kernel's locals (its large
            # temporaries) alive until the next GC pass — which would
            # show up here as kernel-site retention.  Collect first so
            # the snapshot sees only genuinely retained memory.
            gc.collect()
            snap1 = tracemalloc.take_snapshot().filter_traces(_SELF_FILTERS)
            for diff in snap1.compare_to(snap0, "traceback"):
                if diff.size_diff >= self.size_floor:
                    grown_bytes += diff.size_diff
                    grown_blocks += max(diff.count_diff, 1)
        else:
            current, _peak = tracemalloc.get_traced_memory()
            grown_bytes = max(0, current - bytes0)
            grown_blocks = 0
        record.attrs["alloc_bytes"] = int(grown_bytes)
        record.attrs["alloc_blocks"] = int(grown_blocks)
        self.tracer.observe("alloc.bytes", float(grown_bytes))
        self.tracer.observe("alloc.blocks", float(grown_blocks))
        kernel = str(record.attrs.get("kernel", record.name))
        with self._lock:
            self.windows += 1
            agg = self._per_kernel.setdefault(
                kernel, {"windows": 0, "bytes": 0, "blocks": 0}
            )
            agg["windows"] += 1
            agg["bytes"] += int(grown_bytes)
            agg["blocks"] += int(grown_blocks)

    # -- reading -------------------------------------------------------------

    def report(self) -> dict:
        """Aggregated attribution: per-kernel windows/bytes/blocks plus
        the mode parameters (JSON-ready)."""
        with self._lock:
            per_kernel = {k: dict(v) for k, v in self._per_kernel.items()}
        return {
            "mode": "detailed" if self.detailed else "cheap",
            "size_floor": self.size_floor,
            "windows": self.windows,
            "per_kernel": per_kernel,
            "clean": all(
                v["bytes"] == 0 and v["blocks"] == 0
                for v in per_kernel.values()
            ),
        }
