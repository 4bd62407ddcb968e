"""Unit tests for repro.graph.io."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.io import load_edgelist, load_npz, save_edgelist, save_npz


class TestNpz:
    def test_roundtrip(self, tmp_path, rmat_small):
        path = tmp_path / "g.npz"
        save_npz(rmat_small, path)
        g = load_npz(path)
        assert np.array_equal(g.offsets, rmat_small.offsets)
        assert np.array_equal(g.targets, rmat_small.targets)
        assert g.symmetric == rmat_small.symmetric
        assert g.meta["family"] == "rmat"

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_npz(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a npz at all")
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_meta_survives_json(self, tmp_path):
        g = CSRGraph.from_edges([0], [1], 2, meta={"note": "hello"})
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert load_npz(path).meta["note"] == "hello"


class TestEdgeList:
    def test_roundtrip_symmetric(self, tmp_path):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], 4)
        path = tmp_path / "g.txt"
        save_edgelist(g, path)
        g2 = load_edgelist(path, num_vertices=4)
        assert np.array_equal(g2.offsets, g.offsets)
        assert np.array_equal(g2.targets, g.targets)

    def test_roundtrip_rmat(self, tmp_path, rmat_small):
        path = tmp_path / "g.txt"
        save_edgelist(rmat_small, path)
        g2 = load_edgelist(path, num_vertices=rmat_small.num_vertices)
        assert np.array_equal(g2.targets, rmat_small.targets)

    def test_header_comment_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n1 2\n")
        g = load_edgelist(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_infer_num_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 7\n")
        assert load_edgelist(path).num_vertices == 8

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_edgelist(tmp_path / "nope.txt")

    def test_id_beyond_int64(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(f"0 {2**63}\n")
        with pytest.raises(GraphFormatError, match="g.txt"):
            load_edgelist(path)

    def test_id_beyond_num_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 5\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:2: vertex id 5"):
            load_edgelist(path, num_vertices=3)
        assert load_edgelist(path).num_vertices == 6

    def test_no_header_option(self, tmp_path):
        g = CSRGraph.from_edges([0], [1], 2)
        path = tmp_path / "g.txt"
        save_edgelist(g, path, header=False)
        assert not path.read_text().startswith("#")
