"""Unit tests for the thread-parallel BFS engine."""

import numpy as np
import pytest

from repro.bfs.parallel import ParallelBFS
from repro.bfs.reference import bfs_reference
from repro.bfs.result import Direction
from repro.errors import BFSError
from repro.graph.generators import grid2d, rmat, star


@pytest.fixture(scope="module")
def engine():
    with ParallelBFS(num_threads=4) as eng:
        yield eng


class TestCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 4, 7])
    def test_matches_reference_all_thread_counts(
        self, threads, rmat_small, rmat_source
    ):
        ref = bfs_reference(rmat_small, rmat_source)
        with ParallelBFS(num_threads=threads) as eng:
            res = eng.run(rmat_small, rmat_source)
        assert np.array_equal(res.level, ref.level)
        res.validate(rmat_small)

    def test_forced_bottom_up(self, engine, rmat_small, rmat_source):
        ref = bfs_reference(rmat_small, rmat_source)
        res = engine.run(rmat_small, rmat_source, direction="bu")
        assert np.array_equal(res.level, ref.level)
        assert set(res.directions) == {Direction.BOTTOM_UP}

    def test_forced_top_down(self, engine, rmat_small, rmat_source):
        res = engine.run(rmat_small, rmat_source, direction="td")
        assert set(res.directions) == {Direction.TOP_DOWN}

    def test_hybrid_factory(self, rmat_medium):
        from repro.bfs.profiler import pick_sources

        source = int(pick_sources(rmat_medium, 1, seed=2)[0])
        ref = bfs_reference(rmat_medium, source)
        with ParallelBFS.hybrid(4, 20, 100) as eng:
            res = eng.run(rmat_medium, source)
        assert np.array_equal(res.level, ref.level)
        assert Direction.BOTTOM_UP in res.directions

    def test_grid(self, engine):
        g = grid2d(20, 20)
        ref = bfs_reference(g, 0)
        res = engine.run(g, 0)
        assert np.array_equal(res.level, ref.level)

    def test_star(self, engine):
        g = star(100)
        res = engine.run(g, 50)
        assert res.num_levels == 3  # leaf -> hub -> other leaves


class TestValidation:
    def test_bad_threads(self):
        with pytest.raises(BFSError):
            ParallelBFS(num_threads=0)

    def test_bad_source(self, engine, rmat_small):
        with pytest.raises(BFSError):
            engine.run(rmat_small, -1)
        with pytest.raises(BFSError):
            engine.run(rmat_small, 3.5)

    def test_bad_direction(self, engine, rmat_small, rmat_source):
        with pytest.raises(BFSError):
            engine.run(rmat_small, rmat_source, direction="up")

    def test_work_counters_match_sequential(
        self, engine, rmat_small, rmat_source
    ):
        from repro.bfs.topdown import bfs_top_down

        seq = bfs_top_down(rmat_small, rmat_source)
        par = engine.run(rmat_small, rmat_source, direction="td")
        assert seq.edges_examined == par.edges_examined


class TestLifecycle:
    """close() is idempotent and safe even when a traversal aborts."""

    def test_double_close_is_idempotent(self):
        eng = ParallelBFS(num_threads=2)
        eng.close()
        eng.close()  # second close must be a no-op, not an error
        assert eng.closed

    def test_run_after_close_raises_structured_error(self, rmat_small):
        eng = ParallelBFS(num_threads=2)
        eng.close()
        with pytest.raises(BFSError, match="closed"):
            eng.run(rmat_small, 0)

    def test_exit_after_mid_traversal_raise_closes_cleanly(self, rmat_small):
        """A raise inside the with-body (as from a failing run) must not
        hang the pool shutdown or leave the engine reusable."""
        with pytest.raises(BFSError):
            with ParallelBFS(num_threads=2) as eng:
                eng.run(rmat_small, -1)  # raises mid-block
        assert eng.closed
        with pytest.raises(BFSError, match="closed"):
            eng.run(rmat_small, 0)

    def test_close_then_exit_via_context_manager(self, rmat_small):
        with ParallelBFS(num_threads=2) as eng:
            res = eng.run(rmat_small, 0)
            eng.close()  # explicit close inside the block
        assert eng.closed  # __exit__'s close was the harmless second one
        assert res.num_levels >= 1
