"""Tests for HL index serialization (save/load round trips)."""

import struct

import numpy as np
import pytest

from repro.core.query import HighwayCoverOracle
from repro.core.serialization import load_oracle, save_oracle
from repro.errors import NotBuiltError, ReproError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.sampling import sample_vertex_pairs


class TestRoundTrip:
    def test_loaded_oracle_answers_identically(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=8).build(ba_graph)
        path = tmp_path / "index.hl"
        written = save_oracle(oracle, path)
        assert written == path.stat().st_size > 0

        loaded = load_oracle(ba_graph, path)
        pairs = sample_vertex_pairs(ba_graph, 120, seed=1)
        for s, t in pairs:
            assert loaded.query(int(s), int(t)) == oracle.query(int(s), int(t))

    def test_state_identical(self, ws_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=5).build(ws_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        loaded = load_oracle(ws_graph, path)
        assert loaded.labelling == oracle.labelling
        assert np.array_equal(loaded.highway.matrix, oracle.highway.matrix)
        assert np.array_equal(loaded.highway.landmarks, oracle.highway.landmarks)

    def test_disconnected_highway_entries_survive(self, tmp_path):
        from repro.graphs.graph import Graph

        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        oracle = HighwayCoverOracle(landmarks=[1, 4]).build(g)
        assert oracle.highway.distance(1, 4) == float("inf")
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        loaded = load_oracle(g, path)
        assert loaded.highway.distance(1, 4) == float("inf")
        assert loaded.query(0, 5) == float("inf")
        assert loaded.query(0, 2) == 2.0


def _write_v1_snapshot(oracle, path):
    """Write ``oracle`` in the retired v1 layout: the bare 32-byte header
    with version 1, then the v2 sections packed back to back."""
    from repro.core.serialization import _HEADER_STRUCT, _section_offsets

    save_oracle(oracle, path)
    blob = path.read_bytes()
    _, flags, n, k, entries = struct.unpack(
        _HEADER_STRUCT, blob[4 : 4 + struct.calcsize(_HEADER_STRUCT)]
    )
    id_width = 1 if flags & 1 else 4
    sizes = (8 * k, 2 * k * k, 8 * (n + 1), id_width * entries, entries)
    starts = _section_offsets(n, k, entries, bool(flags & 1))
    packed = b"".join(blob[at : at + size] for at, size in zip(starts, sizes))
    header = struct.pack(_HEADER_STRUCT, 1, flags, n, k, entries)
    path.write_bytes(blob[:4] + header + packed)


class TestVersionsAndMmap:
    def test_v2_sections_are_aligned(self, ba_graph, tmp_path):
        from repro.core.serialization import _section_offsets

        oracle = HighwayCoverOracle(num_landmarks=6).build(ba_graph)
        labelling = oracle.labelling.as_vertex_major()
        sections = _section_offsets(
            labelling.num_vertices, 6, labelling.size(), narrow=True
        )
        assert all(start % 64 == 0 for start in sections[:-1])

    def test_mmap_load_is_zero_copy_and_query_correct(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=8).build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        mapped = load_oracle(ba_graph, path, mmap=True)
        labelling = mapped.labelling
        assert isinstance(labelling.offsets, np.memmap)
        assert isinstance(labelling.landmark_indices, np.memmap)
        assert isinstance(labelling.distances, np.memmap)
        for s, t in sample_vertex_pairs(ba_graph, 80, seed=2):
            assert mapped.query(int(s), int(t)) == oracle.query(int(s), int(t))
        # Batch path snapshots the mapped arrays without modification.
        pairs = sample_vertex_pairs(ba_graph, 50, seed=3)
        assert np.array_equal(mapped.query_many(pairs), oracle.query_many(pairs))

    def test_mmap_long_distances_do_not_wrap(self, tmp_path):
        """Regression: u8 memmap label distances summed past 255.

        On a long path the common-landmark bound adds two label legs
        whose sum exceeds the u8 range; the mmap-backed store must
        promote before summing instead of wrapping to a too-small (and
        inadmissible) bound.
        """
        from repro.graphs.generators import path_graph

        g = path_graph(256)
        oracle = HighwayCoverOracle(landmarks=[0]).build(g)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        mapped = load_oracle(g, path, mmap=True)
        assert mapped.upper_bound(100, 250) == oracle.upper_bound(100, 250)
        assert mapped.query(100, 250) == 150.0
        pairs = np.array([[100, 250], [3, 255], [0, 200]])
        assert np.array_equal(mapped.query_many(pairs), oracle.query_many(pairs))

    def test_mmap_requires_v2(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        _write_v1_snapshot(oracle, path)
        with pytest.raises(ReproError, match="version 1"):
            load_oracle(ba_graph, path, mmap=True)

    def test_landmark_store_oracle_saves(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=5, store="landmark").build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        assert load_oracle(ba_graph, path).labelling == oracle.labelling


class TestValidation:
    def test_unbuilt_oracle_rejected(self, tmp_path):
        with pytest.raises(NotBuiltError):
            save_oracle(HighwayCoverOracle(), tmp_path / "x.hl")

    def test_bad_magic_rejected(self, ba_graph, tmp_path):
        path = tmp_path / "junk.hl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ReproError):
            load_oracle(ba_graph, path)

    def test_wrong_graph_size_rejected(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        other = barabasi_albert_graph(50, 2, seed=9)
        with pytest.raises(ReproError):
            load_oracle(other, path)

    def test_unsupported_save_version_rejected(self, ba_graph, tmp_path):
        """No save entry point takes a format version any more."""
        from repro.core.serialization import SnapshotSpool

        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        spool = SnapshotSpool(tmp_path / "spool")
        for save in (
            lambda **kw: save_oracle(oracle, tmp_path / "x.hl", **kw),
            lambda **kw: oracle.save(tmp_path / "x.hl", **kw),
            lambda **kw: spool.publish(oracle, **kw),
        ):
            with pytest.raises(TypeError, match="version"):
                save(version=2)
        assert not (tmp_path / "x.hl").exists()
        assert spool.generations() == []

    def test_v1_snapshot_refused_by_load_and_fsck(self, ba_graph, tmp_path, capsys):
        """A v1 header is a typed load error and an fsck ``bad-version``."""
        from repro.cli import main

        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        _write_v1_snapshot(oracle, path)
        with pytest.raises(ReproError, match="unsupported index version 1"):
            load_oracle(ba_graph, path)
        capsys.readouterr()
        assert main(["fsck", str(path)]) == 1
        assert "[bad-version]" in capsys.readouterr().err

    def test_unsupported_load_version_rejected(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="version 9"):
            load_oracle(ba_graph, path)

    def test_unknown_flag_bits_rejected(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 0x80)
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="flag"):
            load_oracle(ba_graph, path)

    @pytest.mark.parametrize("keep", [2, 10, 31, 40, 200])
    def test_truncated_file_gives_clear_error(self, ba_graph, tmp_path, keep):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ReproError):
            load_oracle(ba_graph, path)

    def test_trailing_garbage_rejected(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(ReproError, match="truncated or oversized"):
            load_oracle(ba_graph, path)

    def test_inconsistent_offsets_rejected(self, ba_graph, tmp_path):
        from repro.core.serialization import _section_offsets

        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        labelling = oracle.labelling.as_vertex_major()
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        sections = _section_offsets(
            labelling.num_vertices, 4, labelling.size(), narrow=True
        )
        blob = bytearray(path.read_bytes())
        # Corrupt the final offset so offsets[-1] != entries.
        last_offset_at = sections[2] + 8 * labelling.num_vertices
        blob[last_offset_at : last_offset_at + 8] = struct.pack(
            "<q", labelling.size() + 1
        )
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="offsets"):
            load_oracle(ba_graph, path)

    def test_non_monotone_interior_offsets_rejected(self, ba_graph, tmp_path):
        from repro.core.serialization import _section_offsets

        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        labelling = oracle.labelling.as_vertex_major()
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        sections = _section_offsets(
            labelling.num_vertices, 4, labelling.size(), narrow=True
        )
        blob = bytearray(path.read_bytes())
        # Corrupt an interior offset (endpoints stay valid).
        mid = sections[2] + 8 * (labelling.num_vertices // 2)
        blob[mid : mid + 8] = struct.pack("<q", -5)
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="non-decreasing"):
            load_oracle(ba_graph, path)
