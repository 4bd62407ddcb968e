"""Allocation attribution: ``tracemalloc`` windows per span.

PR 2's workspace design claims that *warm* traversals perform no
graph-sized allocations — every ``O(V)`` array is drawn from the
:class:`~repro.bfs.workspace.BFSWorkspace`.  This module proves (or
falsifies) that claim on real runs: an :class:`AllocationProfiler`
attaches to the tracer as a :class:`~repro.obs.tracer.TraceListener`,
opens a ``tracemalloc`` window when a ``bfs.level`` span opens, and on
close attributes what was allocated.

Each window is a snapshot diff between window open and close, filtered
by ``size_floor``: only allocation *sites* whose net growth meets the
floor are reported.  The floor is the definition of "graph-sized":
pass ``8 * num_vertices`` (one machine word per vertex) and per-level
frontier churn — small arrays of claimed ids, strictly below one word
per vertex — stays invisible, while any rebuilt parent map or
word-per-vertex scratch buffer is caught at its exact allocation site.

A window opens after its span's start is stamped, and ``tracemalloc``
taxes every allocation while it traces, so a windowed traversal's level
seconds time the profiler, not the kernels: time a traversal outside
the windows (tracemalloc off) when the seconds matter.

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

#: Span names whose windows are measured: the per-level kernels of
#: every engine (the allocation-freedom claim is per level).
DEFAULT_WATCHED_SPANS = ("bfs.level",)

#: Default "graph-sized" floor; callers that know the graph should
#: pass ``8 * num_vertices`` instead.
DEFAULT_SIZE_FLOOR = 65536

#: The observability stack's own allocations are excluded from every
#: window: the window-open snapshot (allocated by ``tracemalloc``) stays
#: alive until the window closes, and the tracer appends span records
#: and metric observations while the kernel runs.  Without this filter
#: that bookkeeping would be misattributed to the kernel under
#: measurement (the profiler falsifying its own claim).
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
    exiting detaches and stops what it started.  Each window is keyed
    by span id, so level spans on several threads keep separate state.
    """

    def __init__(
        self, tracer: Tracer, *, size_floor: int = DEFAULT_SIZE_FLOOR
    ) -> None:
        if size_floor < 1:
            raise ProfileError(f"size_floor must be >= 1, got {size_floor}")
        self.tracer = tracer
        self.size_floor = int(size_floor)
        self._lock = threading.Lock()
        self._open: dict[int, tracemalloc.Snapshot] = {}
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
        if span.name not in DEFAULT_WATCHED_SPANS:
            return
        if not tracemalloc.is_tracing():
            return
        gc.collect()
        snap = tracemalloc.take_snapshot().filter_traces(_SELF_FILTERS)
        with self._lock:
            self._open[span.span_id] = snap

    def on_span_close(self, record: SpanRecord) -> None:
        """Close the window and attribute the allocations."""
        with self._lock:
            snap0 = self._open.pop(record.span_id, None)
        if snap0 is None:
            return
        grown_bytes = 0
        grown_blocks = 0
        # A kernel temporary that ended up in a reference cycle stays
        # allocated after the kernel returns, until the next GC pass —
        # which would show up here as kernel-site retention.  Collect
        # first so the snapshot sees only genuinely retained memory.
        gc.collect()
        snap1 = tracemalloc.take_snapshot().filter_traces(_SELF_FILTERS)
        for diff in snap1.compare_to(snap0, "traceback"):
            if diff.size_diff >= self.size_floor:
                grown_bytes += diff.size_diff
                grown_blocks += max(diff.count_diff, 1)
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
        the size floor (JSON-ready)."""
        with self._lock:
            per_kernel = {k: dict(v) for k, v in self._per_kernel.items()}
        return {
            "size_floor": self.size_floor,
            "windows": self.windows,
            "per_kernel": per_kernel,
            "clean": all(
                v["bytes"] == 0 and v["blocks"] == 0
                for v in per_kernel.values()
            ),
        }
