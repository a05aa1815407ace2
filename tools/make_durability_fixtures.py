"""Regenerate the committed corrupt-file fixtures for ``repro fsck`` tests.

Run from the repository root::

    PYTHONPATH=src python tools/make_durability_fixtures.py

Every fixture is derived deterministically (fixed graph seed, fixed
corruption offsets) from one clean snapshot and one clean WAL, so the
files are stable across regenerations and safe to commit. The manifest
maps each fixture to the fsck finding code it must trigger (``null``
for the clean files, which must pass); ``tests/test_fsck.py`` and the
CI ``durability-smoke`` job both consume it.
"""

import json
import struct
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.query import HighwayCoverOracle  # noqa: E402
from repro.core.serialization import save_oracle  # noqa: E402
from repro.core.wal import WriteAheadLog  # noqa: E402
from repro.graphs.disk_csr import (  # noqa: E402
    disk_csr_sections,
    read_disk_csr_header,
    write_graph_disk_csr,
)
from repro.graphs.generators import barabasi_albert_graph  # noqa: E402

FIXTURE_DIR = REPO_ROOT / "tests" / "fixtures" / "durability"


def main() -> None:
    """Write the clean bases and every corrupted derivative + manifest."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    manifest = {}

    graph = barabasi_albert_graph(60, 2, seed=97)
    oracle = HighwayCoverOracle(num_landmarks=4).build(graph)
    clean_hl = FIXTURE_DIR / "clean.hl"
    save_oracle(oracle, clean_hl)
    manifest["clean.hl"] = None
    snapshot = clean_hl.read_bytes()

    wal_path = FIXTURE_DIR / "clean.wal"
    wal_path.unlink(missing_ok=True)
    with WriteAheadLog(wal_path) as wal:
        wal.append("insert_edge", 0, 50)
        wal.append("insert_edge", 3, 40)
        wal.append("delete_edge", 0, 50)
    manifest["clean.wal"] = None
    log = wal_path.read_bytes()

    def put(name: str, data: bytes, code: str) -> None:
        (FIXTURE_DIR / name).write_bytes(data)
        manifest[name] = code

    # Snapshot corruptions — one per invariant fsck checks.
    put("truncated.hl", snapshot[: len(snapshot) // 2], "truncated-file")
    put("bad-magic.hl", b"XXXX" + snapshot[4:], "bad-magic")
    bad_version = bytearray(snapshot)
    struct.pack_into("<I", bad_version, 4, 73)
    put("bad-version.hl", bytes(bad_version), "bad-version")
    bad_offsets = bytearray(snapshot)
    # offsets is the third 64-byte-aligned section; recompute its start.
    from repro.core.serialization import _HEADER_STRUCT, _section_offsets

    header_end = 4 + struct.calcsize(_HEADER_STRUCT)
    _, flags, n, k, entries = struct.unpack(_HEADER_STRUCT, snapshot[4:header_end])
    sections = _section_offsets(n, k, entries, bool(flags & 1))
    struct.pack_into("<q", bad_offsets, sections[2], 7)
    put("bad-offsets.hl", bytes(bad_offsets), "offsets-base")

    # Disk-CSR corruptions — one per invariant fsck_disk_csr checks.
    clean_rpdc = FIXTURE_DIR / "clean.rpdc"
    write_graph_disk_csr(graph, clean_rpdc)
    manifest["clean.rpdc"] = None
    rpdc = clean_rpdc.read_bytes()
    header = read_disk_csr_header(clean_rpdc)
    indptr_start, indices_start, _ = disk_csr_sections(
        header.num_vertices,
        header.num_directed_edges,
        header.wide,
        len(header.name.encode("utf-8")),
    )

    put("truncated.rpdc", rpdc[: indices_start + 6], "truncated-file")
    put("bad-magic.rpdc", b"XXXX" + rpdc[4:], "bad-magic")
    bad_rpdc_version = bytearray(rpdc)
    struct.pack_into("<I", bad_rpdc_version, 4, 73)
    put("bad-version.rpdc", bytes(bad_rpdc_version), "bad-version")
    bad_indptr = bytearray(rpdc)
    struct.pack_into("<q", bad_indptr, indptr_start, 5)
    put("bad-indptr-base.rpdc", bytes(bad_indptr), "indptr-base")
    bad_range = bytearray(rpdc)
    struct.pack_into("<i", bad_range, indices_start, header.num_vertices + 9)
    put("bad-index-range.rpdc", bytes(bad_range), "index-range")
    # Reverse one multi-entry adjacency row to violate strict ordering.
    unsorted = bytearray(rpdc)
    row_lo = struct.unpack_from("<i", rpdc, indices_start)[0]
    unsorted_row = bytearray(rpdc[indices_start : indices_start + 8])
    unsorted[indices_start : indices_start + 4] = unsorted_row[4:8]
    unsorted[indices_start + 4 : indices_start + 8] = unsorted_row[0:4]
    assert row_lo != struct.unpack_from("<i", bytes(unsorted), indices_start)[0]
    put("unsorted-row.rpdc", bytes(unsorted), "row-order")

    # WAL corruptions.
    put("torn-tail.wal", log[:-9], "torn-tail")
    flipped = bytearray(log)
    flipped[-1] ^= 0xFF
    put("bad-checksum.wal", bytes(flipped), "bad-checksum")
    bad_length = bytearray(log)
    struct.pack_into("<I", bad_length, 8, 4096)
    put("bad-length.wal", bytes(bad_length), "bad-length")

    with (FIXTURE_DIR / "manifest.json").open("w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(manifest)} fixtures + manifest to {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
