"""The Graph 500 benchmark flow (the paper's evaluation protocol).

Implements the specification's structure end to end on this library:

* **kernel 1** — build the graph from the Kronecker edge list (timed);
* **kernel 2** — BFS from ``num_roots`` random search keys (the
  official run uses 64), each *validated* with the five specification
  checks;
* **output** — the statistics block the benchmark reports: min /
  firstquartile / median / thirdquartile / max / mean / stddev /
  harmonic mean for both times and TEPS.

Engines are pluggable: any callable ``(graph, source) -> BFSResult``
works, so the same driver measures top-down, bottom-up, the hybrid, or
the thread-parallel engine — which is how the Section V-D comparisons
against the reference code are framed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.profiler import pick_sources
from repro.bfs.result import BFSResult
from repro.bfs.workspace import BFSWorkspace
from repro.errors import BenchError
from repro.graph.csr import CSRGraph
from repro.graph.generators import GRAPH500_PARAMS, RMATParams, rmat_edges
from repro.obs.clock import now
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "Stats",
    "Graph500Result",
    "HybridEngine",
    "run_graph500",
    "default_engine",
]

Engine = Callable[[CSRGraph, int], BFSResult]


@dataclass(frozen=True)
class Stats:
    """The Graph 500 statistics block for one series of measurements."""

    minimum: float
    firstquartile: float
    median: float
    thirdquartile: float
    maximum: float
    mean: float
    stddev: float
    harmonic_mean: float

    @classmethod
    def of(cls, values: np.ndarray) -> "Stats":
        """Compute the block for ``values`` (must be positive)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise BenchError("no measurements")
        if (values <= 0).any():
            raise BenchError("measurements must be positive")
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        return cls(
            minimum=float(values.min()),
            firstquartile=float(q1),
            median=float(med),
            thirdquartile=float(q3),
            maximum=float(values.max()),
            mean=float(values.mean()),
            stddev=float(values.std(ddof=1)) if values.size > 1 else 0.0,
            harmonic_mean=float(values.size / (1.0 / values).sum()),
        )

    def as_dict(self) -> dict:
        """Plain-dict view (for reporting)."""
        return {
            "min": self.minimum,
            "q1": self.firstquartile,
            "median": self.median,
            "q3": self.thirdquartile,
            "max": self.maximum,
            "mean": self.mean,
            "stddev": self.stddev,
            "harmonic_mean": self.harmonic_mean,
        }


@dataclass
class Graph500Result:
    """Everything one benchmark run produces."""

    scale: int
    edgefactor: int
    num_roots: int
    construction_seconds: float
    bfs_seconds: np.ndarray
    teps: np.ndarray
    roots: np.ndarray
    validated: bool
    #: The kernel-1 graph the roots were traversed on.
    graph: CSRGraph = field(repr=False, compare=False)
    time_stats: Stats = field(init=False)
    teps_stats: Stats = field(init=False)

    def __post_init__(self) -> None:
        self.time_stats = Stats.of(self.bfs_seconds)
        self.teps_stats = Stats.of(self.teps)

    @property
    def harmonic_mean_teps(self) -> float:
        """The benchmark's headline number."""
        return self.teps_stats.harmonic_mean

    def summary(self) -> str:
        """The reference-output-style text block."""
        lines = [
            f"SCALE: {self.scale}",
            f"edgefactor: {self.edgefactor}",
            f"NBFS: {self.num_roots}",
            f"construction_time: {self.construction_seconds:.4f}",
            f"validated: {self.validated}",
        ]
        for prefix, stats in (
            ("time", self.time_stats),
            ("TEPS", self.teps_stats),
        ):
            for key, value in stats.as_dict().items():
                lines.append(f"{prefix}_{key}: {value:.6g}")
        return "\n".join(lines)


def default_engine(graph: CSRGraph, source: int) -> BFSResult:
    """The library's recommended engine: the hybrid with the moderate
    (M, N) defaults used across the examples."""
    return bfs_hybrid(graph, source, m=20.0, n=100.0)


class HybridEngine:
    """A workspace-caching hybrid engine for repeated traversals.

    The benchmark's 64-root loop is exactly the workload
    :class:`~repro.bfs.workspace.BFSWorkspace` exists for: one instance
    of this engine keeps a warm workspace and reuses it across roots,
    so only the first traversal pays the graph-sized allocations.  The
    workspace is rebuilt automatically when the graph size changes.

    Results alias the workspace arrays; the driver consumes each result
    (validation + TEPS) before the next traversal, which is the
    intended usage.  Call ``result.detach()`` to keep one longer.
    """

    def __init__(self, m: float = 20.0, n: float = 100.0) -> None:
        self.m = float(m)
        self.n = float(n)
        self._workspace: BFSWorkspace | None = None

    def __call__(self, graph: CSRGraph, source: int) -> BFSResult:
        ws = self._workspace
        if ws is None or ws.num_vertices != graph.num_vertices:
            ws = BFSWorkspace.for_graph(graph)
            self._workspace = ws
        return bfs_hybrid(graph, source, m=self.m, n=self.n, workspace=ws)


def run_graph500(
    scale: int,
    edgefactor: int = 16,
    *,
    num_roots: int = 64,
    engine: Engine = default_engine,
    params: RMATParams = GRAPH500_PARAMS,
    seed: int = 0,
    validate: bool = True,
    tracer: Tracer | None = None,
) -> Graph500Result:
    """Execute the full benchmark flow.

    Returns the timed, validated result; raises
    :class:`~repro.errors.ValidationError` if any traversal fails the
    specification checks (when ``validate`` is on).

    ``tracer`` overrides the process-global tracer: kernel 1
    (construction) and every per-root kernel-2 traversal become spans,
    and each root's time and TEPS feed the ``graph500.bfs_seconds`` /
    ``teps`` histograms.
    """
    if num_roots < 1:
        raise BenchError(f"num_roots must be >= 1, got {num_roots}")
    tr = tracer if tracer is not None else get_tracer()
    src, dst = rmat_edges(scale, edgefactor, params, seed=seed)
    with tr.span("graph500.construction", scale=scale):
        t0 = now()
        graph = CSRGraph.from_edges(src, dst, 1 << scale, symmetrize=True)
        construction = now() - t0

    roots = pick_sources(graph, num_roots, seed=seed + 1)
    times = np.empty(num_roots, dtype=np.float64)
    teps = np.empty(num_roots, dtype=np.float64)
    for i, root in enumerate(roots):
        with tr.span("graph500.bfs", root=int(root), index=i) as sp:
            t0 = now()
            result = engine(graph, int(root))
            times[i] = now() - t0
            if validate:
                result.validate(graph)
            teps[i] = result.traversed_edges(graph) / times[i]
            sp.set("seconds", float(times[i]))
            sp.set("teps", float(teps[i]))
        tr.observe("graph500.bfs_seconds", float(times[i]))
        tr.observe("teps", float(teps[i]))
    return Graph500Result(
        scale=scale,
        edgefactor=edgefactor,
        num_roots=num_roots,
        construction_seconds=construction,
        bfs_seconds=times,
        teps=teps,
        roots=roots,
        validated=validate,
        graph=graph,
    )
