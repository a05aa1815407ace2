"""Tests for ``repro fsck``: every corruption is flagged precisely."""

import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.dynamic import DynamicHighwayCoverOracle
from repro.core.fsck import fsck_disk_csr, fsck_path, fsck_snapshot, fsck_wal
from repro.core.query import HighwayCoverOracle
from repro.core.serialization import (
    _HEADER_STRUCT,
    _MAGIC,
    SnapshotSpool,
    _section_offsets,
    load_oracle,
    save_oracle,
)
from repro.core.wal import WriteAheadLog
from repro.errors import ReproError
from repro.graphs.generators import barabasi_albert_graph

SECTION_NAMES = ("landmarks", "highway", "offsets", "label ids", "label distances")


def _codes(report, severity="error"):
    return [f.code for f in report.findings if f.severity == severity]


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A small clean v2 snapshot plus its header-derived section layout."""
    graph = barabasi_albert_graph(120, 2, seed=31)
    oracle = HighwayCoverOracle(num_landmarks=8).build(graph)
    path = tmp_path_factory.mktemp("fsck") / "index.hl"
    save_oracle(oracle, path)
    header_bytes = 4 + struct.calcsize(_HEADER_STRUCT)
    _, flags, n, k, entries = struct.unpack(
        _HEADER_STRUCT, path.read_bytes()[4:header_bytes]
    )
    sections = _section_offsets(n, k, entries, bool(flags & 1))
    return graph, path, sections


class TestSnapshotFsck:
    def test_clean_snapshot_is_ok(self, snapshot):
        _, path, _ = snapshot
        report = fsck_path(path)
        assert report.kind == "snapshot"
        assert report.ok
        assert "clean" in _codes(report, "info")

    def test_truncation_at_every_section_boundary(self, snapshot, tmp_path):
        # Cut the file to end exactly at each section start: fsck must
        # flag the truncation and name precisely the sections that
        # survive in front of the cut.
        graph, path, sections = snapshot
        data = path.read_bytes()
        for index, boundary in enumerate(sections[:-1]):
            clipped = tmp_path / f"cut-{index}.hl"
            clipped.write_bytes(data[:boundary])
            report = fsck_snapshot(clipped)
            assert not report.ok
            assert "truncated-file" in _codes(report)
            salvage = [
                f.message
                for f in report.findings
                if f.severity == "info" and f.code == "salvage"
            ]
            assert len(salvage) == 1
            intact = SECTION_NAMES[:index]
            if intact:
                assert salvage[0] == "intact sections: " + ", ".join(intact)
            else:
                assert salvage[0] == "intact sections: none"
            # load_oracle must refuse the same file with a clear error.
            with pytest.raises(ReproError, match="truncated"):
                load_oracle(graph, clipped)

    def test_mid_section_truncation(self, snapshot, tmp_path):
        graph, path, sections = snapshot
        data = path.read_bytes()
        clipped = tmp_path / "cut-mid.hl"
        clipped.write_bytes(data[: sections[2] + 8])  # 8 bytes into offsets
        report = fsck_snapshot(clipped)
        assert "truncated-file" in _codes(report)
        with pytest.raises(ReproError):
            load_oracle(graph, clipped)

    def test_oversized_file(self, snapshot, tmp_path):
        _, path, _ = snapshot
        bloated = tmp_path / "bloat.hl"
        bloated.write_bytes(path.read_bytes() + b"\x00" * 17)
        report = fsck_snapshot(bloated)
        assert "oversized-file" in _codes(report)
        assert any("17" in f.message for f in report.findings if f.code == "salvage")

    def test_truncated_header(self, tmp_path):
        stub = tmp_path / "stub.hl"
        stub.write_bytes(_MAGIC + b"\x01")
        report = fsck_snapshot(stub)
        assert _codes(report) == ["truncated-header"]

    def test_bad_magic_version_and_flags(self, snapshot, tmp_path):
        _, path, _ = snapshot
        data = bytearray(path.read_bytes())

        bad = tmp_path / "magic.hl"
        bad.write_bytes(b"XXXX" + bytes(data[4:]))
        assert _codes(fsck_snapshot(bad)) == ["bad-magic"]
        # Sniffing cannot classify an unknown magic at all:
        assert fsck_path(bad).kind == "unknown"

        struct.pack_into("<I", data, 4, 73)  # version field
        vers = tmp_path / "version.hl"
        vers.write_bytes(bytes(data))
        assert _codes(fsck_snapshot(vers)) == ["bad-version"]

        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 0x80)  # unknown flag bit
        flags = tmp_path / "flags.hl"
        flags.write_bytes(bytes(data))
        assert _codes(fsck_snapshot(flags)) == ["unknown-flags"]

    def test_highway_invariants(self, snapshot, tmp_path):
        _, path, sections = snapshot
        data = bytearray(path.read_bytes())
        # Corrupt one off-diagonal highway cell -> asymmetry.
        struct.pack_into("<H", data, sections[1] + 2, 999)
        bad = tmp_path / "highway.hl"
        bad.write_bytes(bytes(data))
        codes = _codes(fsck_snapshot(bad))
        assert "highway-asymmetric" in codes
        # Corrupt the [0, 0] diagonal cell.
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, sections[1], 5)
        bad.write_bytes(bytes(data))
        assert "highway-diagonal" in _codes(fsck_snapshot(bad))

    def test_offsets_invariants(self, snapshot, tmp_path):
        graph, path, sections = snapshot
        bad = tmp_path / "offsets.hl"

        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, sections[2], 3)  # offsets[0] != 0
        bad.write_bytes(bytes(data))
        assert "offsets-base" in _codes(fsck_snapshot(bad))

        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, sections[2] + 8, 2**31)  # spike
        bad.write_bytes(bytes(data))
        assert "offsets-order" in _codes(fsck_snapshot(bad))

        data = bytearray(path.read_bytes())
        last = sections[2] + 8 * graph.num_vertices  # offsets[-1] == offsets[n]
        struct.pack_into("<q", data, last, 2**31)
        bad.write_bytes(bytes(data))
        assert "offsets-entries" in _codes(fsck_snapshot(bad))

    def test_id_range_invariant(self, snapshot, tmp_path):
        _, path, sections = snapshot
        data = bytearray(path.read_bytes())
        data[sections[3]] = 200  # narrow id far beyond k=8
        bad = tmp_path / "ids.hl"
        bad.write_bytes(bytes(data))
        assert "id-range" in _codes(fsck_snapshot(bad))


class TestDiskCsrFsck:
    DISK_SECTIONS = ("indptr", "adjacency")

    @pytest.fixture(scope="class")
    def disk_csr(self, tmp_path_factory):
        """A clean .rpdc file plus its header-derived section layout."""
        from repro.graphs.disk_csr import (
            disk_csr_sections,
            read_disk_csr_header,
            write_graph_disk_csr,
        )

        graph = barabasi_albert_graph(90, 3, seed=41, name="fsck-csr")
        path = tmp_path_factory.mktemp("fsck-csr") / "graph.rpdc"
        write_graph_disk_csr(graph, path)
        header = read_disk_csr_header(path)
        sections = disk_csr_sections(
            header.num_vertices,
            header.num_directed_edges,
            header.wide,
            len(header.name.encode("utf-8")),
        )
        return graph, path, sections

    def test_clean_disk_csr_is_ok(self, disk_csr):
        _, path, _ = disk_csr
        report = fsck_path(path)
        assert report.kind == "disk-csr"
        assert report.ok
        assert "clean" in _codes(report, "info")

    def test_truncation_at_every_section_boundary(self, disk_csr, tmp_path):
        # Cut the file to end exactly at each section start: fsck must
        # flag the truncation and name precisely the surviving sections.
        from repro.graphs.disk_csr import open_disk_csr

        graph, path, sections = disk_csr
        data = path.read_bytes()
        for index, boundary in enumerate(sections[:-1]):
            clipped = tmp_path / f"cut-{index}.rpdc"
            clipped.write_bytes(data[:boundary])
            report = fsck_disk_csr(clipped)
            assert not report.ok
            assert "truncated-file" in _codes(report)
            salvage = [
                f.message
                for f in report.findings
                if f.severity == "info" and f.code == "salvage"
            ]
            assert len(salvage) == 1
            intact = self.DISK_SECTIONS[:index]
            if intact:
                assert salvage[0] == "intact sections: " + ", ".join(intact)
            else:
                assert salvage[0] == "intact sections: none"
            # open_disk_csr must refuse the same file with a clear error.
            with pytest.raises(ReproError):
                open_disk_csr(clipped)

    def test_mid_adjacency_truncation(self, disk_csr, tmp_path):
        from repro.graphs.disk_csr import open_disk_csr

        _, path, sections = disk_csr
        clipped = tmp_path / "cut-mid.rpdc"
        clipped.write_bytes(path.read_bytes()[: sections[1] + 6])
        report = fsck_disk_csr(clipped)
        assert "truncated-file" in _codes(report)
        salvage = [f.message for f in report.findings if f.code == "salvage"]
        assert salvage == ["intact sections: indptr"]
        with pytest.raises(ReproError):
            open_disk_csr(clipped)

    def test_oversized_file(self, disk_csr, tmp_path):
        _, path, _ = disk_csr
        bloated = tmp_path / "bloat.rpdc"
        bloated.write_bytes(path.read_bytes() + b"\x00" * 23)
        report = fsck_disk_csr(bloated)
        assert "oversized-file" in _codes(report)
        assert any("23" in f.message for f in report.findings if f.code == "salvage")

    def test_truncated_header_and_name(self, disk_csr, tmp_path):
        from repro.graphs.disk_csr import DISK_CSR_MAGIC

        stub = tmp_path / "stub.rpdc"
        stub.write_bytes(DISK_CSR_MAGIC + b"\x01")
        assert _codes(fsck_disk_csr(stub)) == ["truncated-header"]

        _, path, _ = disk_csr
        named = tmp_path / "name.rpdc"
        named.write_bytes(path.read_bytes()[:36])  # inside the name blob
        assert _codes(fsck_disk_csr(named)) == ["truncated-name"]

    def test_bad_magic_version_and_flags(self, disk_csr, tmp_path):
        _, path, _ = disk_csr
        data = bytearray(path.read_bytes())

        bad = tmp_path / "magic.rpdc"
        bad.write_bytes(b"XXXX" + bytes(data[4:]))
        assert _codes(fsck_disk_csr(bad)) == ["bad-magic"]
        assert fsck_path(bad).kind == "unknown"

        struct.pack_into("<I", data, 4, 73)  # version field
        vers = tmp_path / "version.rpdc"
        vers.write_bytes(bytes(data))
        assert _codes(fsck_disk_csr(vers)) == ["bad-version"]

        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 0x80)  # unknown flag bit
        flags = tmp_path / "flags.rpdc"
        flags.write_bytes(bytes(data))
        assert _codes(fsck_disk_csr(flags)) == ["unknown-flags"]

    def test_indptr_invariants(self, disk_csr, tmp_path):
        graph, path, sections = disk_csr
        indptr_start = sections[0]
        bad = tmp_path / "indptr.rpdc"

        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, indptr_start, 5)  # indptr[0] != 0
        bad.write_bytes(bytes(data))
        assert "indptr-base" in _codes(fsck_disk_csr(bad))

        data = bytearray(path.read_bytes())
        last = indptr_start + 8 * graph.num_vertices
        struct.pack_into("<q", data, last, 2**40)  # indptr[-1] != directed
        bad.write_bytes(bytes(data))
        assert "indptr-entries" in _codes(fsck_disk_csr(bad))

        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, indptr_start + 8, 2**40)  # spike
        bad.write_bytes(bytes(data))
        assert "indptr-order" in _codes(fsck_disk_csr(bad))

    def test_adjacency_invariants(self, disk_csr, tmp_path):
        graph, path, sections = disk_csr
        indices_start = sections[1]
        bad = tmp_path / "adjacency.rpdc"

        data = bytearray(path.read_bytes())
        struct.pack_into("<i", data, indices_start, graph.num_vertices + 7)
        bad.write_bytes(bytes(data))
        report = fsck_disk_csr(bad)
        assert "index-range" in _codes(report)

        # Swap the first adjacency row's first two entries: row no
        # longer strictly increasing, and the message names the vertex.
        data = bytearray(path.read_bytes())
        first = data[indices_start : indices_start + 4]
        second = data[indices_start + 4 : indices_start + 8]
        assert first != second
        data[indices_start : indices_start + 4] = second
        data[indices_start + 4 : indices_start + 8] = first
        bad.write_bytes(bytes(data))
        report = fsck_disk_csr(bad)
        assert "row-order" in _codes(report)
        assert any(
            "vertex 0" in f.message for f in report.findings if f.code == "row-order"
        )


class TestWalFsck:
    def _log(self, tmp_path, count=3):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for i in range(count):
                wal.append("insert_edge", i, i + 10)
        return path

    def test_clean_wal(self, tmp_path):
        report = fsck_path(self._log(tmp_path))
        assert report.kind == "wal"
        assert report.ok
        assert any("3 records" in f.message for f in report.findings)

    def test_torn_tail_flagged_with_salvage(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:-9])  # mid-record
        report = fsck_wal(path)
        assert _codes(report) == ["torn-tail"]
        assert any(
            "2 complete records" in f.message
            for f in report.findings
            if f.code == "salvage"
        )

    def test_checksum_mismatch_flagged(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        report = fsck_wal(path)
        assert _codes(report) == ["bad-checksum"]
        assert any(
            "2 complete records" in f.message
            for f in report.findings
            if f.code == "salvage"
        )

    def test_impossible_length_flagged(self, tmp_path):
        path = self._log(tmp_path, count=1)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 4096)
        path.write_bytes(bytes(data))
        assert _codes(fsck_wal(path)) == ["bad-length"]

    def test_bad_header_flagged(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"RPWL" + struct.pack("<I", 9))
        assert _codes(fsck_wal(path)) == ["bad-version"]


class TestCommittedFixtures:
    """The corrupt files under tests/fixtures/durability stay flagged.

    The fixtures are generated by ``tools/make_durability_fixtures.py``
    and committed, so fsck's verdicts are pinned against bytes that
    never change — the CI ``durability-smoke`` job runs the CLI over
    the same set.
    """

    FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "durability"

    def _manifest(self):
        with (self.FIXTURE_DIR / "manifest.json").open() as handle:
            return json.load(handle)

    def test_manifest_covers_every_fixture(self):
        manifest = self._manifest()
        files = {
            p.name for p in self.FIXTURE_DIR.iterdir() if p.name != "manifest.json"
        }
        assert files == set(manifest)

    def test_every_fixture_gets_its_expected_verdict(self):
        for name, expected_code in self._manifest().items():
            report = fsck_path(self.FIXTURE_DIR / name)
            if expected_code is None:
                assert report.ok, f"{name}: {report.findings}"
            else:
                assert expected_code in _codes(report), (
                    f"{name}: expected {expected_code!r}, "
                    f"got {_codes(report)!r}"
                )

    def test_cli_exits_nonzero_on_each_corrupt_fixture(self):
        for name, expected_code in self._manifest().items():
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "fsck",
                    str(self.FIXTURE_DIR / name),
                ],
                capture_output=True,
                text=True,
            )
            if expected_code is None:
                assert result.returncode == 0, result.stderr
            else:
                assert result.returncode == 1, (name, result.stdout)
                assert expected_code in result.stderr  # names the invariant


class TestFsckCli:
    def _run(self, *paths):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "fsck", *map(str, paths)],
            capture_output=True,
            text=True,
        )

    def test_exit_zero_on_clean_files(self, tmp_path):
        graph = barabasi_albert_graph(60, 2, seed=32)
        oracle = DynamicHighwayCoverOracle(num_landmarks=4).build(graph)
        index = tmp_path / "index.hl"
        save_oracle(oracle, index)
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append("insert_edge", 0, 50)
        result = self._run(index, tmp_path / "wal.log")
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("OK") == 2

    def test_spool_with_graph_sidecars_is_clean(self, tmp_path):
        """Every file a ``graph=True`` spool publishes passes fsck — the
        ``gen-*.graph`` sidecars are disk CSRs fsck knows how to check."""
        graph = barabasi_albert_graph(60, 2, seed=34)
        oracle = DynamicHighwayCoverOracle(num_landmarks=4).build(graph)
        spool = SnapshotSpool(tmp_path / "spool")
        spool.publish(oracle, graph=True)
        non_neighbour = next(w for w in range(1, 60) if not graph.has_edge(0, w))
        oracle.insert_edge(0, non_neighbour)
        spool.publish(oracle, graph=True)
        files = sorted(spool.directory.iterdir())
        assert [p.suffix for p in files] == [".graph", ".hl"] * 2
        result = self._run(*files)
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("OK (disk-csr") == 2
        assert result.stdout.count("OK (snapshot") == 2

    def test_exit_one_on_corruption(self, tmp_path):
        graph = barabasi_albert_graph(60, 2, seed=33)
        oracle = HighwayCoverOracle(num_landmarks=4).build(graph)
        index = tmp_path / "index.hl"
        save_oracle(oracle, index)
        index.write_bytes(index.read_bytes()[:100])
        result = self._run(index)
        assert result.returncode == 1
        assert "CORRUPT" in result.stdout
        assert "truncated-file" in result.stderr

    def test_exit_two_on_unreadable(self, tmp_path):
        result = self._run(tmp_path / "missing.hl")
        assert result.returncode == 2
        assert "unreadable" in result.stderr
