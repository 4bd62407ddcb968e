"""Unit tests for MatrixMarket graph I/O."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.io import load_matrix_market, save_matrix_market


class TestRoundtrip:
    def test_symmetric(self, rmat_small, tmp_path):
        path = tmp_path / "g.mtx"
        save_matrix_market(rmat_small, path)
        back = load_matrix_market(path)
        assert np.array_equal(back.offsets, rmat_small.offsets)
        assert np.array_equal(back.targets, rmat_small.targets)
        assert back.symmetric

    def test_directed(self, tmp_path):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3, symmetrize=False)
        path = tmp_path / "d.mtx"
        save_matrix_market(g, path)
        text = path.read_text()
        assert "general" in text.splitlines()[0]
        back = load_matrix_market(path)
        assert not back.symmetric
        assert back.has_edge(0, 1) and not back.has_edge(1, 0)

    def test_header_qualifier(self, rmat_small, tmp_path):
        path = tmp_path / "g.mtx"
        save_matrix_market(rmat_small, path)
        first = path.read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate pattern symmetric"

    def test_one_indexed(self, tmp_path):
        g = CSRGraph.from_edges([0], [1], 2)
        path = tmp_path / "g.mtx"
        save_matrix_market(g, path)
        entries = [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("%") and len(line.split()) == 2
        ]
        assert entries == ["2 1"]  # lower triangle, 1-based


class TestParsing:
    def test_external_file(self, tmp_path):
        """A hand-written file in the SuiteSparse style."""
        path = tmp_path / "ext.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% a comment\n"
            "4 4 3\n"
            "2 1\n"
            "3 2\n"
            "4 3\n"
        )
        g = load_matrix_market(path)
        assert g.num_vertices == 4
        assert g.num_edges == 3  # a path graph
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_weighted_entries_ignored(self, tmp_path):
        path = tmp_path / "w.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 2 3.5\n"
        )
        g = load_matrix_market(path)
        assert g.has_edge(0, 1)

    def test_not_matrix_market(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("hello world\n")
        with pytest.raises(GraphFormatError):
            load_matrix_market(path)

    def test_unsupported_qualifier(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern hermitian\n1 1 0\n"
        )
        with pytest.raises(GraphFormatError):
            load_matrix_market(path)

    def test_non_square(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 3 0\n"
        )
        with pytest.raises(GraphFormatError):
            load_matrix_market(path)

    def test_bad_size_line(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\nnope\n"
        )
        with pytest.raises(GraphFormatError):
            load_matrix_market(path)

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n"
        )
        with pytest.raises(GraphFormatError):
            load_matrix_market(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n"
        )
        with pytest.raises(GraphFormatError):
            load_matrix_market(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_matrix_market(tmp_path / "nope.mtx")

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 x\n"
        )
        with pytest.raises(GraphFormatError, match="x.mtx"):
            load_matrix_market(path)

    def test_one_column_entry_line(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n"
        )
        with pytest.raises(GraphFormatError, match="x.mtx"):
            load_matrix_market(path)

    def test_index_beyond_size(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n"
            "1 2\n2 7\n"
        )
        # names the file and the 1-based index as written, not the
        # CSR builder's 0-based endpoint
        with pytest.raises(GraphFormatError, match=r"x\.mtx: index 7 "):
            load_matrix_market(path)

    def test_fractional_index_not_truncated(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n"
            "1.5 2\n"
        )
        with pytest.raises(GraphFormatError, match="x.mtx"):
            load_matrix_market(path)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 0\n"
        )
        g = load_matrix_market(path)
        assert g.num_vertices == 3 and g.num_edges == 0

    def test_bfs_on_loaded_graph(self, tmp_path, rmat_small):
        """End to end: save, load, traverse, validate."""
        from repro.bfs import bfs_hybrid, pick_sources

        path = tmp_path / "g.mtx"
        save_matrix_market(rmat_small, path)
        g = load_matrix_market(path)
        src = int(pick_sources(g, 1, seed=0)[0])
        bfs_hybrid(g, src, m=20, n=100).validate(g)
