"""Every engine emits the observability schema when a tracer is on."""

import numpy as np
import pytest

from repro.arch.machine import SimulatedMachine
from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X
from repro.bfs import (
    ParallelBFS,
    bfs_bottom_up,
    bfs_hybrid,
    bfs_top_down,
    timed_bfs,
)
from repro.bfs.multisource import msbfs
from repro.bfs.profiler import profile_bfs
from repro.graph500 import HybridEngine, run_graph500
from repro.hetero import cross_plan, execute_plan
from repro.linalg import bfs_bottom_up_tiles
from repro.obs import Tracer, use_tracer

#: The attributes every ``bfs.level`` span carries, whatever the engine.
LEVEL_ATTRS = {
    "depth",
    "direction",
    "kernel",
    "frontier_vertices",
    "frontier_edges",
    "edges_examined",
    "claimed",
}


def _parallel(graph, source, tracer):
    with ParallelBFS.hybrid(2, 14.0, 24.0) as engine:
        return engine.run(graph, source, tracer=tracer)


def _plan(graph, source, tracer):
    machine = SimulatedMachine({"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X})
    profile, _ = profile_bfs(graph, source)
    plan = cross_plan(profile, 50, 50, 50, 50)
    result, _ = execute_plan(machine, graph, source, plan, tracer=tracer)
    return result


#: The eight traversal entry points: root span name and a runner
#: ``(graph, source, tracer) -> BFSResult``.
ENTRY_POINTS = {
    "bfs_top_down": (
        "bfs.topdown", lambda g, s, t: bfs_top_down(g, s, tracer=t)
    ),
    "bfs_bottom_up": (
        "bfs.bottomup", lambda g, s, t: bfs_bottom_up(g, s, tracer=t)
    ),
    "bfs_hybrid": (
        "bfs.hybrid",
        lambda g, s, t: bfs_hybrid(g, s, m=14.0, n=24.0, tracer=t),
    ),
    "timed_bfs": (
        "bfs.timed",
        lambda g, s, t: timed_bfs(g, s, m=14.0, n=24.0, tracer=t).result,
    ),
    "profile_bfs": (
        "bfs.profile", lambda g, s, t: profile_bfs(g, s, tracer=t)[1]
    ),
    "ParallelBFS.run": ("bfs.parallel", _parallel),
    "bfs_bottom_up_tiles": (
        "bfs.bottomup", lambda g, s, t: bfs_bottom_up_tiles(g, s, tracer=t)
    ),
    "execute_plan": ("hetero.execute_plan", _plan),
}


@pytest.fixture()
def tracer():
    return Tracer()


class TestLevelSpans:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_level_span_schema(self, rmat_small, rmat_source, entry, tracer):
        root_name, run = ENTRY_POINTS[entry]
        result = run(rmat_small, rmat_source, tracer)
        (root,) = tracer.spans(root_name)
        levels = tracer.spans("bfs.level")
        assert root.attrs["levels"] == result.num_levels
        assert len(levels) == result.num_levels
        assert all(r.parent_id == root.span_id for r in levels)
        for rec in levels:
            assert LEVEL_ATTRS <= set(rec.attrs), rec.attrs
        attrs = {key: [r.attrs[key] for r in levels] for key in LEVEL_ATTRS}
        assert attrs["depth"] == list(range(result.num_levels))
        assert attrs["direction"] == list(result.directions)
        assert attrs["edges_examined"] == list(result.edges_examined)
        assert all(
            (kernel == "td") == (direction == "td")
            for kernel, direction in zip(attrs["kernel"], attrs["direction"])
        )
        # Frontier sizes and degree mass per level follow from the
        # level map alone, whichever engine produced it.
        sizes = result.frontier_sizes()
        assert attrs["frontier_vertices"] == list(sizes)
        assert attrs["claimed"] == list(sizes[1:]) + [0]
        mass = np.bincount(
            result.level[result.level >= 0],
            weights=rmat_small.degrees[result.level >= 0],
        )
        assert attrs["frontier_edges"] == [int(x) for x in mass]
        snap = tracer.metrics.snapshot()
        assert snap["bfs.levels"]["value"] == result.num_levels
        assert snap["bfs.edges_examined"]["value"] == sum(
            result.edges_examined
        )

    def test_timed_totals_equal_level_span_sums(
        self, rmat_small, rmat_source, tracer
    ):
        run = timed_bfs(rmat_small, rmat_source, m=14.0, n=24.0, tracer=tracer)
        levels = tracer.spans("bfs.level")
        assert [lv.seconds for lv in run.levels] == [
            r.duration for r in levels
        ]
        assert run.total_seconds == sum(r.duration for r in levels)


class TestSingleThreadEngines:
    def test_hybrid_emits_direction_decisions(
        self, rmat_small, rmat_source, tracer
    ):
        result = bfs_hybrid(
            rmat_small, rmat_source, m=14.0, n=24.0, tracer=tracer
        )
        decisions = tracer.events("bfs.direction")
        assert [e.attrs["direction"] for e in decisions] == list(
            result.directions
        )
        assert all(
            "frontier_edges" in e.attrs and "unvisited_vertices" in e.attrs
            for e in decisions
        )
        snap = tracer.metrics.snapshot()
        assert snap["frontier.claim_ratio"]["count"] >= 1

    def test_ambient_tracer_used_when_not_passed(
        self, rmat_small, rmat_source, tracer
    ):
        with use_tracer(tracer):
            bfs_hybrid(rmat_small, rmat_source, m=14.0, n=24.0)
        assert len(tracer.spans("bfs.hybrid")) == 1

    def test_untraced_run_records_nothing_globally(
        self, rmat_small, rmat_source
    ):
        from repro.obs import get_tracer

        ambient = get_tracer()
        before = len(ambient.spans()) if ambient.enabled else 0
        bfs_hybrid(rmat_small, rmat_source, m=14.0, n=24.0)
        after = len(ambient.spans()) if ambient.enabled else 0
        assert after == before


class TestParallelEngine:
    def test_worker_spans_on_worker_threads(
        self, rmat_small, rmat_source, tracer
    ):
        engine = ParallelBFS(num_threads=3)
        result = engine.run(rmat_small, rmat_source, tracer=tracer)
        (root,) = tracer.spans("bfs.parallel")
        assert root.attrs["num_threads"] == 3
        assert root.attrs["levels"] == result.num_levels
        workers = tracer.spans("worker.expand") + tracer.spans(
            "worker.scan"
        )
        assert workers, "worker chunks must produce spans"
        names = {r.thread_name for r in workers}
        assert all(n.startswith("repro-bfs") for n in names)
        # Worker spans are recorded on the workers' own threads, which
        # become their own tracks in the Chrome export.
        assert all(r.thread_id != root.thread_id for r in workers)


class TestMultiSource:
    def test_sweep_spans(self, rmat_small, tracer):
        sources = [0, 1, 2, 3]
        msbfs(rmat_small, sources, tracer=tracer)
        (root,) = tracer.spans("bfs.msbfs")
        assert root.attrs["batch"] == len(sources)
        sweeps = tracer.spans("bfs.level")
        assert sweeps
        assert all(r.parent_id == root.span_id for r in sweeps)


class TestGraph500:
    def test_construction_and_per_root_spans(self, tracer):
        result = run_graph500(
            8, 8, num_roots=3, engine=HybridEngine(), tracer=tracer
        )
        assert len(tracer.spans("graph500.construction")) == 1
        roots = tracer.spans("graph500.bfs")
        assert len(roots) == 3
        for i, rec in enumerate(roots):
            assert rec.attrs["index"] == i
            assert rec.attrs["seconds"] > 0
            assert rec.attrs["teps"] > 0
        snap = tracer.metrics.snapshot()
        assert snap["graph500.bfs_seconds"]["count"] == 3
        assert snap["teps"]["count"] == 3
        # The engine's own hybrid spans nest under each root span.
        hybrid = tracer.spans("bfs.hybrid")
        assert len(hybrid) == 0  # engine resolves the ambient tracer
        with use_tracer(tracer):
            run_graph500(
                8, 8, num_roots=1, engine=HybridEngine(), seed=1
            )
        assert len(tracer.spans("bfs.hybrid")) == 1
        assert result.validated
