"""Unit tests for edge-list and binary (RPDC disk CSR) graph IO."""

import pytest

from repro.errors import GraphError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph
from repro.graphs.disk_csr import open_disk_csr, write_graph_disk_csr
from repro.graphs.io import read_edge_list, write_edge_list


class TestEdgeListRoundTrip:
    def test_round_trip(self, tmp_path):
        g = barabasi_albert_graph(60, 2, seed=1, name="rt")
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path, name="rt")
        assert g == g2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% other comment\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_non_contiguous_ids_are_compacted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 20\n20 30\n")
        g = read_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_extra_columns_tolerated(self, tmp_path):
        # SNAP files sometimes carry weights/timestamps in column 3.
        path = tmp_path / "g.txt"
        path.write_text("0 1 42\n1 2 7\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        g = read_edge_list(path)
        assert g.num_vertices == 0

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_negative_id_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestBinaryRoundTrip:
    """The copying read a spool's ``gen-*.graph`` sidecar goes through."""

    def test_round_trip_preserves_graph_and_name(self, tmp_path):
        g = barabasi_albert_graph(80, 3, seed=2, name="binary-test")
        path = tmp_path / "g.graph"
        write_graph_disk_csr(g, path)
        g2 = open_disk_csr(path, mmap=False)
        assert g2.name == "binary-test"
        assert g == g2

    def test_empty_graph(self, tmp_path):
        g = Graph(0, [], name="empty")
        path = tmp_path / "g.graph"
        write_graph_disk_csr(g, path)
        assert open_disk_csr(path, mmap=False).num_vertices == 0

    def test_bad_magic_raises(self, tmp_path):
        """A sidecar in the retired RPRG layout is refused, not misread."""
        path = tmp_path / "g.graph"
        path.write_bytes(b"RPRG" + b"\x00" * 60)
        with pytest.raises(GraphError, match="not a repro disk-CSR"):
            open_disk_csr(path, mmap=False)
