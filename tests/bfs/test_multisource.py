"""Unit tests for batched multi-source BFS."""

import numpy as np
import pytest

from repro.bfs.multisource import MAX_BATCH, msbfs
from repro.bfs.profiler import pick_sources
from repro.bfs.reference import bfs_reference
from repro.errors import BFSError
from repro.graph.csr import CSRGraph
from repro.graph.generators import path, ring, star


class TestCorrectness:
    def test_rows_match_single_source(self, rmat_small):
        sources = pick_sources(rmat_small, 16, seed=2)
        out = msbfs(rmat_small, sources)
        assert out.levels.shape == (16, rmat_small.num_vertices)
        for i, src in enumerate(sources):
            ref = bfs_reference(rmat_small, int(src))
            assert np.array_equal(out.levels[i], ref.level), i

    def test_single_source(self):
        g = star(10)
        out = msbfs(g, np.array([0]))
        assert out.levels[0, 0] == 0
        assert (out.levels[0, 1:] == 1).all()

    def test_full_batch_width(self):
        g = ring(64)
        out = msbfs(g, np.arange(64))
        for i in range(64):
            ref = bfs_reference(g, i)
            assert np.array_equal(out.levels[i], ref.level)

    def test_duplicate_sources(self):
        g = path(8)
        out = msbfs(g, np.array([3, 3]))
        assert np.array_equal(out.levels[0], out.levels[1])

    def test_disconnected_minus_one(self):
        g = CSRGraph.from_edges([0], [1], 4)
        out = msbfs(g, np.array([0]))
        assert out.levels[0, 2] == -1 and out.levels[0, 3] == -1


class TestHelpers:
    def test_distance(self):
        g = path(6)
        out = msbfs(g, np.array([0, 5]))
        assert out.distance(0, 5) == 5
        assert out.distance(1, 0) == 5
        assert out.num_sources == 2

    def test_distance_histogram(self):
        g = star(5)
        out = msbfs(g, np.array([0]))
        hist = out.distance_histogram()
        assert hist.tolist() == [1, 4]

    def test_mean_distance(self, rmat_small):
        sources = pick_sources(rmat_small, 4, seed=1)
        out = msbfs(rmat_small, sources)
        assert 1.0 < out.mean_distance() < 10.0

    def test_mean_distance_no_pairs(self):
        g = CSRGraph.empty(3)
        out = msbfs(g, np.array([0]))
        with pytest.raises(BFSError):
            out.mean_distance()


class TestValidation:
    def test_empty_sources(self, rmat_small):
        with pytest.raises(BFSError):
            msbfs(rmat_small, np.array([], dtype=np.int64))

    def test_too_many_sources(self, rmat_small):
        with pytest.raises(BFSError):
            msbfs(rmat_small, np.arange(MAX_BATCH + 1))

    def test_out_of_range(self, rmat_small):
        with pytest.raises(BFSError):
            msbfs(rmat_small, np.array([-1]))
        with pytest.raises(BFSError):
            msbfs(rmat_small, np.array([10**7]))
        with pytest.raises(BFSError):
            msbfs(rmat_small, [3.5])
