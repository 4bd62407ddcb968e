#!/usr/bin/env python3
"""End-to-end Graph 500 benchmark with a per-layer breakdown.

One invocation measures one workload in a fresh interpreter::

    python3 benchmarks/e2e/run.py --workload rmat-s17 --seed 0 --seconds 30 --trace 0

Without ``--workload`` every workload runs, one after another, each in
its own child process (a second run in the same process starts with a
warm allocator and reads faster than what a user pays).

A run has three parts:

1. **The Graph 500 run**, timed as ``run_s``.  It drives the flow
   through public library calls, one per phase, step for step as
   :func:`repro.graph500.run_graph500` does: ``rmat_edges``/``grid2d``
   -> ``CSRGraph.from_edges`` -> ``BFSWorkspace.for_graph`` (->
   ``ParallelBFS``) -> per search key from ``pick_sources(graph, k,
   seed=seed + 1)``: engine -> ``check_bfs`` ->
   ``BFSResult.traversed_edges``.
2. **The timing panel.**  Traversal-only passes over a fixed panel of
   roots fill the rest of ``--seconds`` (at least two passes); each
   root's time is the median over passes.  TEPS and per-root traversal
   times come from here, because which roots a seed draws moves the p90
   of R-MAT traversal time by a quarter (see README.md).
3. **More set-ups**, so that ``setup_s`` is a median.

The graph is the same for every seed; ``--seed`` picks the search keys.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` (or ``--traced``) first times an untraced run of the same
workload in a child process, then prints the per-layer metrics of one
traced Graph 500 run: the ``bench.*`` spans this script opens around
each call, plus the ``bfs.level`` and ``worker.*`` spans the engines
emit.  It also writes the Chrome trace to
``benchmarks/e2e/out/<workload>.trace.json``.

Every metric is printed as ``workload name value unit``; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--jsonl PATH`` appends that
object, tagged with workload, seed and trace, to ``PATH`` for
``compare.py``.  Exit status: 0 when every traversal succeeded, 1 when
one failed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

if not (SRC / "repro").is_dir():
    print(f"run.py: library not found: no directory {SRC / 'repro'}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.bfs import (  # noqa: E402
    BFSResult,
    BFSWorkspace,
    ParallelBFS,
    bfs_hybrid,
    pick_sources,
)
from repro.errors import ExportError  # noqa: E402
from repro.graph import (  # noqa: E402
    GRAPH500_PARAMS,
    CSRGraph,
    check_bfs,
    grid2d,
    rmat_edges,
)
from repro.obs import (  # noqa: E402
    NULL_TRACER,
    Tracer,
    now,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)

#: The switching point of the library's default engine
#: (``repro.graph500.default_engine``).
M, N = 20.0, 100.0
EDGEFACTOR = 16
#: R-MAT generator seed.  Fixed: across generator seeds the median
#: traversal time at scale 17 ranges from 12 to 16 ms.
GRAPH_SEED = 0
#: ``pick_sources`` seed of the timing panel.
PANEL_SEED = 0
#: Default measuring time; equals ``run_seconds`` in BENCHMARK.json.
#: It leaves room for two panel passes on grid-hd.
RUN_SECONDS = 30.0
#: Panel passes per run, at the least.  With one, a burst of host noise
#: during that pass shows in the grid-hd p90 (ten runs: 60 to 86 ms).
MIN_PASSES = 2
#: Set-ups per run.  ``setup_s`` is their median; the first one is cold
#: and belongs to the Graph 500 run.
SETUPS = 3
#: A child run may take this long before it is killed.
CHILD_TIMEOUT_S = 170.0
OUT_DIR = HERE / "out"
#: The benchmark's own spans, one per public call; together they cover
#: the Graph 500 run except for root picking and loop bookkeeping.
PHASES = (
    "bench.generate",
    "bench.csr",
    "bench.workspace",
    "bench.pool",
    "bench.traverse",
    "bench.validate",
    "bench.teps",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: graph family and size, and the engine.

    ``size`` is the R-MAT scale for ``graph="rmat"`` and the side of the
    square grid for ``graph="grid"``.  ``num_roots`` is both the number
    of Graph 500 search keys and the size of the timing panel.
    """

    name: str
    why: str
    graph: str
    size: int
    parallel: bool = False
    num_roots: int = 128


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rmat-s17",
            "Graph 500 R-MAT at scale 17 with the serial hybrid: the paper's "
            "protocol and the library default; validation dominates",
            "rmat",
            17,
        ),
        Workload(
            "rmat-s17-par",
            "same graph and roots traversed by ParallelBFS with one thread "
            "per CPU, so only the traversal layer differs from rmat-s17",
            "rmat",
            17,
            parallel=True,
        ),
        Workload(
            "grid-hd",
            "512x512 grid, ~760 top-down levels per root: fixed per-level "
            "cost dominates and bottom-up never runs",
            "grid",
            512,
        ),
    )
}


@dataclass
class Testbed:
    """What one set-up builds: the graph and an engine bound to its
    workspace (and thread pool).  A context manager that closes the
    pool."""

    graph: CSRGraph
    engine: Callable[[CSRGraph, int], BFSResult]
    pool: ParallelBFS | None
    seconds: float

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.pool is not None:
            self.pool.close()


@dataclass
class PanelRoot:
    """One timing-panel root: its traversed edges, fixed by the first
    traversal, and the time of every traversal that matched them."""

    root: int
    edges: int = -1
    giant: bool = False
    seconds: list[float] = field(default_factory=list)


@dataclass
class Run:
    """Everything one benchmark run measured."""

    setup_s: list[float] = field(default_factory=list)
    run_s: float = 0.0
    #: ``(root, traversed edges)`` of each validated Graph 500 search.
    searches: list[tuple[int, int]] = field(default_factory=list)
    panel: list[PanelRoot] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    entries: int = 0
    nbytes: int = 0

    def fail(self, root: int, why: str) -> None:
        print(f"root {root}: {why}", file=sys.stderr)
        self.failed += 1


def make_engine(
    workspace: BFSWorkspace, pool: ParallelBFS | None
) -> Callable[[CSRGraph, int], BFSResult]:
    """The traversal under test, reusing ``workspace`` across roots."""
    if pool is not None:
        return lambda graph, root: pool.run(graph, root, workspace=workspace)
    return lambda graph, root: bfs_hybrid(
        graph, root, m=M, n=N, workspace=workspace
    )


def set_up(workload: Workload, graph_seed: int, tracer: Tracer) -> Testbed:
    """Generate the graph, build its CSR, workspace and engine."""
    t0 = now()
    if workload.graph == "rmat":
        with tracer.span("bench.generate"):
            src, dst = rmat_edges(
                workload.size, EDGEFACTOR, GRAPH500_PARAMS, seed=graph_seed
            )
        with tracer.span("bench.csr"):
            graph = CSRGraph.from_edges(
                src, dst, 1 << workload.size, symmetrize=True
            )
    else:
        # grid2d builds its CSR itself, so one span covers both phases.
        with tracer.span("bench.generate"):
            graph = grid2d(workload.size, workload.size)
    with tracer.span("bench.workspace"):
        workspace = BFSWorkspace.for_graph(graph)
    pool = None
    if workload.parallel:
        with tracer.span("bench.pool"):
            pool = ParallelBFS.hybrid(os.cpu_count() or 1, M, N)
    return Testbed(graph, make_engine(workspace, pool), pool, now() - t0)


def _traverse(bed: Testbed, root: int, run: Run) -> BFSResult | None:
    """One engine call; a raise is counted as a failed root."""
    run.attempted += 1
    try:
        return bed.engine(bed.graph, root)
    except Exception as exc:  # counted; the run goes on
        run.fail(root, f"engine raised {type(exc).__name__}: {exc}")
        return None


def graph500_searches(
    bed: Testbed, roots: np.ndarray, tracer: Tracer, run: Run
) -> None:
    """Kernel 2 of Graph 500: traverse, validate and count the
    traversed edges of each search key."""
    graph = bed.graph
    for root in roots.tolist():
        with tracer.span("bench.traverse", root=root):
            result = _traverse(bed, root, run)
        if result is None:
            continue
        with tracer.span("bench.validate", root=root):
            problems = check_bfs(graph, root, result.parent, result.level)
        if problems:
            run.fail(root, "; ".join(problems))
            continue
        with tracer.span("bench.teps", root=root):
            run.searches.append((root, result.traversed_edges(graph)))


def panel_pass(bed: Testbed, run: Run) -> None:
    """Traverse every panel root once, timing the engine call alone.

    A traversal whose traversed-edge count differs from the root's
    first one is counted as failed and its time dropped.
    """
    graph = bed.graph
    for entry in run.panel:
        t0 = now()
        result = _traverse(bed, entry.root, run)
        elapsed = now() - t0
        if result is None:
            continue
        edges = result.traversed_edges(graph)
        if entry.edges < 0:
            entry.edges = edges
            entry.giant = 2 * result.num_reached > graph.num_vertices
        elif edges != entry.edges:
            run.fail(entry.root, f"traversed {edges} edges, before {entry.edges}")
            continue
        entry.seconds.append(elapsed)


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    setups: int = SETUPS,
    graph_seed: int = GRAPH_SEED,
    tracer: Tracer = NULL_TRACER,
) -> Run:
    """Measure ``workload`` with the search keys of ``seed``.

    The first set-up and the validated searches form the Graph 500 run
    (``run_s``), cold as a user meets it.  With ``seconds > 0``, passes
    over the timing panel follow while the next one is expected to end
    within ``seconds`` of the start (at least ``MIN_PASSES``).  Then the set-up
    alone repeats until there are ``setups`` set-up times.
    """
    run = Run()
    start = now()
    with set_up(workload, graph_seed, tracer) as bed:
        run.setup_s.append(bed.seconds)
        run.entries = int(bed.graph.targets.size)
        run.nbytes = int(bed.graph.offsets.nbytes + bed.graph.targets.nbytes)
        roots = pick_sources(bed.graph, workload.num_roots, seed=seed + 1)
        graph500_searches(bed, roots, tracer, run)
        run.run_s = now() - start
        if seconds > 0:
            panel = pick_sources(bed.graph, workload.num_roots, seed=PANEL_SEED)
            run.panel = [PanelRoot(root) for root in panel.tolist()]
            for done in itertools.count(1):
                t0 = now()
                panel_pass(bed, run)
                t1 = now()
                if done >= MIN_PASSES and t1 + (t1 - t0) > start + seconds:
                    break
    while len(run.setup_s) < setups:
        with set_up(workload, graph_seed, tracer) as bed:
            run.setup_s.append(bed.seconds)
    return run


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """What a user of the library sees, by name: ``(value, unit)``."""
    metrics = {
        "run_s": (run.run_s, "s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
    }
    timed = [p for p in run.panel if p.seconds]
    if timed:
        # Roots outside the giant component traverse a handful of edges
        # in fixed per-call time; one of them divides the harmonic mean
        # by ~30, so it is taken over giant-component roots.
        teps = [p.edges / statistics.median(p.seconds) for p in timed if p.giant]
        ms = [1e3 * statistics.median(p.seconds) for p in timed]
        if teps:
            metrics["teps_hmean"] = (statistics.harmonic_mean(teps), "edges/s")
        metrics["bfs_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
        metrics["bfs_ms_p90"] = (float(np.percentile(ms, 90)), "ms")
    # ru_maxrss is in KiB on Linux.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MiB")
    return metrics


def per_layer_metrics(
    tracer: Tracer, run: Run, workload: Workload, untraced_run_s: float
) -> dict[str, tuple[float, str]]:
    """Layer metrics of one traced Graph 500 run, from its spans."""
    spans = tracer.spans()
    seconds = tracer.span_seconds()

    def total(name: str) -> float:
        return seconds.get(name, 0.0)

    levels = [s for s in spans if s.name == "bfs.level"]
    td = [s.duration for s in levels if s.attrs.get("direction") == "td"]
    bu = [s.duration for s in levels if s.attrs.get("direction") == "bu"]
    td_s, bu_s = sum(td, 0.0), sum(bu, 0.0)
    examined = sum(s.attrs.get("edges_examined", 0) for s in levels)
    claimed = sum(s.attrs.get("claimed", 0) for s in levels)
    busy = sum((s.duration for s in spans if s.name.startswith("worker.")), 0.0)
    threads = (os.cpu_count() or 1) if workload.parallel else 0
    validate_ms = [1e3 * s.duration for s in spans if s.name == "bench.validate"]
    traverse = total("bench.traverse")
    validate = total("bench.validate")
    return {
        "graph.generators.s": (total("bench.generate"), "s"),
        "graph.csr.from_edges_s": (total("bench.csr"), "s"),
        "graph.csr.entries": (run.entries, "count"),
        "graph.csr.nbytes": (run.nbytes, "bytes"),
        "bfs.workspace.for_graph_s": (total("bench.workspace"), "s"),
        "graph.validate.s": (validate, "s"),
        # No validation ran if every traversal raised.
        "graph.validate.ms_p50": (
            statistics.median(validate_ms) if validate_ms else 0.0,
            "ms",
        ),
        "graph.validate.per_traverse": (validate / traverse, "ratio"),
        "bfs.traverse_s": (traverse, "s"),
        "bfs.level_s.td": (td_s, "s"),
        "bfs.level_s.bu": (bu_s, "s"),
        "bfs.levels.td": (len(td), "count"),
        "bfs.levels.bu": (len(bu), "count"),
        "bfs.loop_overhead_s": (traverse - td_s - bu_s, "s"),
        "bfs.edges_examined": (examined, "count"),
        "bfs.claims_per_examined": (claimed / max(examined, 1), "ratio"),
        # The serial engines have no workers: 0 on those workloads.
        "bfs.parallel.worker_busy_s": (busy, "s"),
        "bfs.parallel.busy_frac": (
            busy / (threads * (td_s + bu_s)) if threads else 0.0,
            "fraction",
        ),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_frac": (run.run_s / untraced_run_s - 1.0, "fraction"),
        "trace.phase_coverage": (
            sum(total(name) for name in PHASES) / run.run_s,
            "fraction",
        ),
    }


def _child_command(
    workload: str, seed: int, seconds: float, trace: int
) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]


def untraced_run_s(workload: Workload, seed: int) -> float:
    """``run_s`` of the same workload, untraced, in a fresh process."""
    proc = subprocess.run(
        # Only run_s is needed, so the child makes the fewest panel passes.
        _child_command(workload.name, seed, 1e-3, 0),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"untraced run of {workload.name} exited {proc.returncode}"
        )
    return float(json.loads(lines[-1])["metrics"]["run_s"]["value"])


def traced_run(
    workload: Workload, seed: int
) -> tuple[Run, dict[str, tuple[float, str]], bool]:
    """Per-layer metrics of one traced Graph 500 run, and whether its
    Chrome trace validated."""
    baseline = untraced_run_s(workload, seed)
    tracer = Tracer()
    with use_tracer(tracer):
        run = run_workload(workload, seed, 0.0, setups=1, tracer=tracer)
    metrics = per_layer_metrics(tracer, run, workload, baseline)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}.trace.json"
    write_chrome_trace(tracer, path, workload=workload.name, seed=seed)
    try:
        validate_chrome_trace(path)
    except ExportError as exc:
        print(f"{path}: invalid Chrome trace: {exc}", file=sys.stderr)
        return run, metrics, False
    return run, metrics, True


def report(
    workload: Workload, run: Run, metrics: dict[str, tuple[float, str]], ok: bool
) -> dict:
    """Print every metric by name and unit; return the result object."""
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<13} {name:<28} {value:>16.6g} {unit}")
    failed_frac = run.failed / max(run.attempted, 1)
    print(f"{workload.name:<13} {'failed_frac':<28} {failed_frac:>16.6g} fraction")
    return {
        "correct": ok and run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {
                "value": value if isinstance(value, int) else float(value),
                "unit": unit,
            }
            for name, (value, unit) in metrics.items()
        },
    }


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        try:
            run, metrics, ok = traced_run(workload, args.seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
    else:
        run = run_workload(workload, args.seed, args.seconds)
        metrics, ok = end_to_end_metrics(run), True
    result = report(workload, run, metrics, ok)
    if args.jsonl is not None:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            **result,
        }
        with open(args.jsonl, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        command = _child_command(name, args.seed, args.seconds, args.trace)
        if args.jsonl is not None:
            command += ["--jsonl", str(args.jsonl)]
        try:
            code = subprocess.run(
                command, timeout=CHILD_TIMEOUT_S, check=False
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"run.py: {name} took over {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
            code = 1
        status = max(status, code)
    return status


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit status 2."""

    def error(self, message: str):  # type: ignore[override]
        self.exit(2, f"{self.prog}: {message}\n")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = _Parser(
        prog="run.py",
        description="End-to-end Graph 500 benchmark with a per-layer breakdown.",
    )
    parser.add_argument(
        "--workload",
        help=f"one of {', '.join(WORKLOADS)}; every workload when omitted",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="picks the Graph 500 search keys"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help="measuring time; at least two passes over the timing panel run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--jsonl", type=Path, help="append each result to this JSONL file"
    )
    args = parser.parse_args(argv)
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error(f"--seconds must be a finite number > 0, got {args.seconds}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
