"""Scale stress tests and concurrency properties.

The vectorized and thread-parallel engines must agree with the scalar
reference at sizes where chunking, threading and int32/int64 seams
actually engage — not just on toy graphs.
"""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.bottomup import bfs_bottom_up
from repro.bfs.hybrid import bfs_hybrid
from repro.bfs.parallel import ParallelBFS
from repro.bfs.profiler import pick_sources
from repro.bfs.topdown import bfs_top_down
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat


@pytest.fixture(scope="module")
def big_graph():
    """SCALE 16: 65k vertices, ~1M edges — chunking and threading real."""
    return rmat(16, 16, seed=99)


class TestScaleStress:
    def test_engines_agree_at_scale(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=0)[0])
        td = bfs_top_down(big_graph, src)
        bu = bfs_bottom_up(big_graph, src)
        hy = bfs_hybrid(big_graph, src, m=20, n=100)
        assert np.array_equal(td.level, bu.level)
        assert np.array_equal(td.level, hy.level)
        hy.validate(big_graph)

    def test_chunked_bottom_up_at_scale(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=1)[0])
        full = bfs_bottom_up(big_graph, src)
        chunked = bfs_bottom_up(big_graph, src, chunk_entries=10_000)
        assert np.array_equal(full.level, chunked.level)
        assert full.edges_examined == chunked.edges_examined

    def test_parallel_engine_at_scale(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=2)[0])
        serial = bfs_hybrid(big_graph, src, m=20, n=100)
        with ParallelBFS.hybrid(8, 20, 100) as eng:
            par = eng.run(big_graph, src)
        assert np.array_equal(serial.level, par.level)
        par.validate(big_graph)

    def test_multiple_sources_at_scale(self, big_graph):
        for src in pick_sources(big_graph, 3, seed=3):
            bfs_hybrid(big_graph, int(src), m=20, n=100).validate(big_graph)

    def test_profile_at_scale_consistent(self, big_graph):
        from repro.bfs.profiler import profile_bfs

        src = int(pick_sources(big_graph, 1, seed=4)[0])
        profile, result = profile_bfs(big_graph, src)
        assert profile.total_reached() == result.num_reached
        # Total TD work over all levels = degree mass of the component.
        reached = result.level >= 0
        assert profile.frontier_edges().sum() == int(
            big_graph.degrees[reached].sum()
        )


class TestConcurrencyProperties:
    """Thread count must never affect the answer."""

    @given(
        seed=st.integers(min_value=0, max_value=50),
        threads=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_thread_count_invariance(self, seed, threads):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        m = int(rng.integers(0, 400))
        graph = CSRGraph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), n
        )
        source = int(rng.integers(0, n))
        serial = bfs_top_down(graph, source)
        with ParallelBFS(num_threads=threads) as eng:
            par_td = eng.run(graph, source, direction="td")
            par_bu = eng.run(graph, source, direction="bu")
        assert np.array_equal(serial.level, par_td.level)
        assert np.array_equal(serial.level, par_bu.level)

    def test_engine_reusable_across_graphs(self):
        """One pool, many traversals, no state bleed."""
        with ParallelBFS(num_threads=4) as eng:
            for seed in range(4):
                g = rmat(10, 8, seed=seed)
                src = int(pick_sources(g, 1, seed=seed)[0])
                ref = bfs_top_down(g, src)
                got = eng.run(g, src)
                assert np.array_equal(ref.level, got.level)

    def test_concurrent_results_independent(self, big_graph):
        """Two traversals interleaved on one engine don't corrupt maps
        (each run owns its arrays; the pool is the only shared state)."""
        srcs = pick_sources(big_graph, 2, seed=5)
        with ParallelBFS(num_threads=4) as eng:
            a1 = eng.run(big_graph, int(srcs[0]))
            b1 = eng.run(big_graph, int(srcs[1]))
            a2 = eng.run(big_graph, int(srcs[0]))
        assert np.array_equal(a1.level, a2.level)
        assert not np.array_equal(a1.level, b1.level)


class BrokenParallelBFS(ParallelBFS):
    """An engine whose worker violates ownership protocol rule 3: it
    writes the shared parent map from the pool thread instead of
    returning proposals for the main-thread merge.

    The scribble fires once, at depth 0: un-claiming the frontier every
    level would let vertices be re-discovered forever and the traversal
    would never terminate — one rogue write is all the race tracker
    needs, and it keeps the unsanitized run finite."""

    def _top_down_level(self, graph, frontier, parent, level, depth,
                        workspace, tracer=None, race=None,
                        parent_span=None):
        def scribble(chunk):
            if race is not None:
                race.stamp_chunk(f"scribble@{depth}")
            parent[chunk] = -7  # cross-thread write, never claimed
            return chunk

        if depth == 0:
            list(self._pool.map(scribble, [frontier]))
        from repro.obs.tracer import NULL_TRACER

        return super()._top_down_level(
            graph, frontier, parent, level, depth, workspace,
            tracer if tracer is not None else NULL_TRACER, race,
            parent_span,
        )


def _claimed_anyway_engine() -> type[ParallelBFS]:
    """A ``ParallelBFS`` whose top-down worker also stores the parents it
    proposes, ``parent[neighbours[fresh]] = owners[fresh]``.

    Every vertex that worker writes is one the main-thread merge claims
    anyway, so the vertices that change in a level are still exactly
    its claimed frontier.  The engine is the library's own
    ``_top_down_level`` with that one line added after the worker's
    ``fresh`` test, so every other line, race checks included, is the
    library's."""
    import repro.bfs.parallel as parallel

    source = textwrap.dedent(inspect.getsource(ParallelBFS._top_down_level))
    probe = "fresh = parent[neighbours] < 0\n"
    assert source.count(probe) == 1, "the worker's fresh test moved"
    indent = source.split(probe)[0].rsplit("\n", 1)[1]
    mutant = source.replace(
        probe, probe + indent + "parent[neighbours[fresh]] = owners[fresh]\n"
    )
    namespace = dict(vars(parallel))
    exec(compile(mutant, parallel.__file__, "exec"), namespace)
    return type(
        "ClaimedAnywayBFS",
        (ParallelBFS,),
        {"_top_down_level": namespace["_top_down_level"]},
    )


class TestRaceSanitizer:
    """sanitize='race' write tracking on the parallel engine: clean
    protocol-following runs verify silently, a worker that scribbles on
    shared state is caught at the level where it raced."""

    def test_race_mode_clean_on_rmat(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=7)[0])
        serial = bfs_hybrid(big_graph, src, m=20, n=100)
        with ParallelBFS.hybrid(8, 20, 100) as eng:
            traced = eng.run(big_graph, src, sanitize="race")
        assert np.array_equal(serial.level, traced.level)
        assert "bu" in traced.directions  # both kernels ran under tracking

    def test_race_mode_forced_directions_clean(self, big_graph):
        src = int(pick_sources(big_graph, 1, seed=8)[0])
        with ParallelBFS(num_threads=4) as eng:
            td = eng.run(big_graph, src, direction="td", sanitize="race")
            bu = eng.run(big_graph, src, direction="bu", sanitize="race")
        assert np.array_equal(td.level, bu.level)

    def test_race_mode_catches_broken_worker(self, big_graph):
        from repro.errors import SanitizerError

        src = int(pick_sources(big_graph, 1, seed=9)[0])
        with BrokenParallelBFS(num_threads=4) as eng:
            with pytest.raises(SanitizerError) as exc:
                eng.run(big_graph, src, direction="td", sanitize="race")
        assert "bypassed the main-thread merge" in str(exc.value)
        assert exc.value.level == 0  # caught at the first racy level

    @pytest.mark.parametrize("threads", [1, 2])
    def test_race_mode_catches_worker_write_to_claimed_vertex(self, threads):
        """A worker write the merge would have made anyway leaves the
        changed set equal to the claimed frontier; race mode must still
        see it, at the first level, before the merge."""
        from repro.errors import SanitizerError

        graph = rmat(12, 16, seed=7)
        src = int(pick_sources(graph, 1, seed=3)[0])
        with _claimed_anyway_engine().hybrid(threads, 20, 100) as eng:
            with pytest.raises(SanitizerError) as exc:
                eng.run(graph, src, sanitize="race")
        assert "bypassed the main-thread merge" in str(exc.value)
        assert exc.value.level == 0

    def test_broken_worker_undetected_without_race_mode(self, big_graph):
        """The defect is silent under sanitize=False — exactly why the
        write-tracking mode exists (the scribble targets already-
        visited vertices, so plain invariant checks can miss it)."""
        src = int(pick_sources(big_graph, 1, seed=9)[0])
        with BrokenParallelBFS(num_threads=4) as eng:
            result = eng.run(big_graph, src, direction="td")
        # The corruption really happened: a correct traversal roots the
        # tree at the source (parent[src] == src); after the rogue
        # write the source's self-parent is gone — either still -7, or
        # re-claimed from a neighbour one level too deep.
        assert result.parent[src] != src
