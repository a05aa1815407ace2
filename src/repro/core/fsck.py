"""Integrity checking for snapshots and write-ahead logs (``repro fsck``).

:func:`load_oracle` already refuses corrupt snapshots and
:class:`~repro.core.wal.WriteAheadLog` refuses corrupt logs — but a
refusal names the *first* violation it trips over and needs a graph in
hand. This module is the operator's diagnostic pass: it validates every
invariant of a file **without** loading it into an oracle, collects
*all* findings instead of stopping at the first, and reports what is
salvageable (which sections of a truncated snapshot are intact, how
many records of a torn log survive).

Snapshot invariants checked (see :mod:`repro.core.serialization` for
the format):

* magic, version, known flag bits, 8-bit ids only when ``k <= 256``;
* file size exactly matches the section layout the header implies
  (with per-section salvage reporting when truncated);
* sections start on 64-byte boundaries;
* label offsets: ``offsets[0] == 0``, ``offsets[-1] == entries``,
  non-decreasing;
* label landmark ids in ``[0, k)`` (the u8/u16 id-width contract);
* highway matrix: zero diagonal, symmetric, and the ``0xFFFF``
  unreachable sentinel used consistently (a sentinel in one direction
  of a pair means unreachable — the mirror cell must agree).

WAL invariants checked (see :mod:`repro.core.wal`): magic, version,
record length, per-record checksum, known opcodes — and a torn tail is
reported with the count of salvageable records in front of it.

Disk-CSR invariants checked (see :mod:`repro.graphs.disk_csr`): magic,
version, flags, the size/layout equation with per-section salvage,
indptr base/terminal/monotonicity, adjacency id range and per-row
strict ordering.

Programmatic use returns a :class:`FsckReport`; the CLI command
``repro fsck`` prints findings and exits non-zero on any error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.core import serialization as _ser
from repro.core import wal as _wal
from repro.errors import WalError
from repro.graphs import disk_csr as _disk

__all__ = [
    "Finding",
    "FsckReport",
    "fsck_path",
    "fsck_snapshot",
    "fsck_wal",
    "fsck_disk_csr",
]

PathLike = Union[str, Path]

_SECTION_NAMES = ("landmarks", "highway", "offsets", "label ids", "label distances")
_DISK_SECTION_NAMES = ("indptr", "adjacency")


@dataclass(frozen=True)
class Finding:
    """One fsck observation.

    ``severity`` is ``"error"`` (the file violates an invariant and
    must not be served), ``"warning"`` (suspicious but loadable), or
    ``"info"`` (salvage guidance). ``code`` is a stable machine-readable
    slug; ``message`` names the violated invariant precisely.
    """

    severity: str
    code: str
    message: str


@dataclass
class FsckReport:
    """Everything fsck learned about one file."""

    path: Path
    kind: str  # "snapshot" | "wal" | "unknown"
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not any(f.severity == "error" for f in self.findings)

    def error(self, code: str, message: str) -> None:
        """Record an invariant violation."""
        self.findings.append(Finding("error", code, message))

    def warn(self, code: str, message: str) -> None:
        """Record a suspicious-but-loadable observation."""
        self.findings.append(Finding("warning", code, message))

    def info(self, code: str, message: str) -> None:
        """Record salvage guidance."""
        self.findings.append(Finding("info", code, message))


def fsck_path(path: PathLike) -> FsckReport:
    """Check one file, sniffing whether it is a snapshot or a WAL.

    Unreadable files and unrecognized magic are reported as errors on
    a ``kind="unknown"`` report rather than raised, so a batch fsck
    over a directory never aborts half-way.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            magic = handle.read(4)
    except OSError as exc:
        report = FsckReport(path, "unknown")
        report.error("unreadable", f"cannot read file: {exc}")
        return report
    if magic == _ser._MAGIC:
        return fsck_snapshot(path)
    if magic == _wal.WAL_MAGIC:
        return fsck_wal(path)
    if magic == _disk.DISK_CSR_MAGIC:
        return fsck_disk_csr(path)
    report = FsckReport(path, "unknown")
    report.error(
        "bad-magic",
        f"unrecognized magic {magic!r} — not a snapshot "
        f"({_ser._MAGIC!r}), WAL ({_wal.WAL_MAGIC!r}) or disk CSR "
        f"({_disk.DISK_CSR_MAGIC!r})",
    )
    return report


# -- Snapshot checks ---------------------------------------------------------


def fsck_snapshot(path: PathLike) -> FsckReport:
    """Validate every invariant of a snapshot file.

    Checks are layered: header sanity first, then the size/layout
    equation, then — for each array section that is fully present —
    the content invariants. A truncated file therefore still gets its
    intact prefix validated, and the report says exactly which sections
    survive (what a recovery can salvage).
    """
    path = Path(path)
    report = FsckReport(path, "snapshot")
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.error("unreadable", f"cannot read file: {exc}")
        return report

    header_bytes = 4 + struct.calcsize(_ser._HEADER_STRUCT)
    if len(data) < header_bytes:
        report.error(
            "truncated-header",
            f"file is {len(data)} bytes — shorter than the "
            f"{header_bytes}-byte header; nothing is salvageable",
        )
        return report
    if data[:4] != _ser._MAGIC:
        report.error("bad-magic", f"magic is {data[:4]!r}, expected {_ser._MAGIC!r}")
        return report
    version, flags, n, k, entries = struct.unpack(
        _ser._HEADER_STRUCT, data[4:header_bytes]
    )
    if version != _ser._V2:
        report.error("bad-version", f"unsupported index version {version}")
        return report
    if flags & ~_ser._KNOWN_FLAGS:
        report.error("unknown-flags", f"unknown flag bits 0x{flags:x}")
        return report
    narrow = bool(flags & _ser._FLAG_NARROW_IDS)
    if narrow and k > 256:
        report.error(
            "narrow-overflow",
            f"header claims 8-bit landmark ids with k={k} (> 256)",
        )
        return report

    sections = _ser._section_offsets(n, k, entries, narrow)
    expected = sections[-1]
    misaligned = [
        name
        for name, start in zip(_SECTION_NAMES, sections)
        if start % _ser._ALIGNMENT
    ]
    if misaligned:  # pragma: no cover - layout-equation guard
        report.error(
            "misaligned-section",
            f"sections not on {_ser._ALIGNMENT}-byte boundaries: "
            f"{', '.join(misaligned)}",
        )
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        report.error(
            f"{kind}-file",
            f"header (n={n}, k={k}, entries={entries}) implies "
            f"{expected} bytes, file has {len(data)}",
        )
        if len(data) > expected:
            report.info(
                "salvage",
                f"all sections are present; the {len(data) - expected} "
                f"trailing bytes are foreign",
            )
        else:
            intact = [
                name
                for name, start, end in zip(
                    _SECTION_NAMES, sections, sections[1:]
                )
                if end <= len(data)
            ]
            report.info(
                "salvage",
                "intact sections: " + (", ".join(intact) if intact else "none"),
            )

    def _section(index: int, count: int, dtype: str) -> Optional[np.ndarray]:
        start = sections[index]
        nbytes = count * np.dtype(dtype).itemsize
        if start + nbytes > len(data):
            return None
        return np.frombuffer(data, dtype=dtype, count=count, offset=start)

    highway = _section(1, k * k, "<u2")
    if highway is not None and k:
        matrix = highway.reshape(k, k)
        diagonal = matrix[np.arange(k), np.arange(k)]
        if (diagonal != 0).any():
            bad = int(np.flatnonzero(diagonal != 0)[0])
            report.error(
                "highway-diagonal",
                f"highway diagonal must be zero (d(r, r) = 0); "
                f"entry [{bad}, {bad}] is {int(diagonal[bad])}",
            )
        asym = np.argwhere(matrix != matrix.T)
        if len(asym):
            i, j = (int(x) for x in asym[0])
            report.error(
                "highway-asymmetric",
                f"highway matrix must be symmetric (undirected graph); "
                f"[{i}, {j}]={int(matrix[i, j])} but "
                f"[{j}, {i}]={int(matrix[j, i])} — the 0xFFFF unreachable "
                f"sentinel must agree in both directions",
            )

    offsets = _section(2, n + 1, "<i8")
    if offsets is not None:
        if int(offsets[0]) != 0:
            report.error(
                "offsets-base", f"offsets[0] is {int(offsets[0])}, expected 0"
            )
        if int(offsets[-1]) != entries:
            report.error(
                "offsets-entries",
                f"offsets[-1] is {int(offsets[-1])}, header claims "
                f"{entries} entries",
            )
        if n and not bool((np.diff(offsets) >= 0).all()):
            report.error(
                "offsets-order", "label offsets are not non-decreasing"
            )

    ids = _section(3, entries, "<u1" if narrow else "<u4")
    if ids is not None and entries:
        top = int(ids.max())
        if top >= k:
            report.error(
                "id-range",
                f"label landmark id {top} out of range [0, {k}) — "
                f"{'u8' if narrow else 'u32'} ids must index the "
                f"landmark set",
            )

    if report.ok:
        report.info(
            "clean",
            f"v{version} snapshot, n={n}, k={k}, entries={entries}, "
            f"{'narrow' if narrow else 'wide'} ids",
        )
    return report


# -- Disk-CSR checks ---------------------------------------------------------


def fsck_disk_csr(path: PathLike) -> FsckReport:
    """Validate every invariant of an RPDC disk-backed CSR file.

    Layered like :func:`fsck_snapshot`: header sanity, then the
    size/layout equation (with per-section salvage reporting on
    truncation), then — for each section fully present — the content
    invariants :func:`~repro.graphs.disk_csr.open_disk_csr` relies on:

    * ``indptr[0] == 0``, ``indptr[-1] ==`` the header's directed edge
      count, non-decreasing;
    * adjacency ids in ``[0, n)``;
    * every adjacency row strictly increasing (sorted, duplicate-free —
      the :func:`~repro.graphs.csr.build_csr` contract binary search
      depends on).
    """
    path = Path(path)
    report = FsckReport(path, "disk-csr")
    try:
        data = path.read_bytes()
    except OSError as exc:
        report.error("unreadable", f"cannot read file: {exc}")
        return report

    header_bytes = _disk._HEADER_BYTES
    if len(data) < header_bytes:
        report.error(
            "truncated-header",
            f"file is {len(data)} bytes — shorter than the "
            f"{header_bytes}-byte header; nothing is salvageable",
        )
        return report
    if data[:4] != _disk.DISK_CSR_MAGIC:
        report.error(
            "bad-magic",
            f"magic is {data[:4]!r}, expected {_disk.DISK_CSR_MAGIC!r}",
        )
        return report
    version, flags, n, directed, name_len = struct.unpack(
        _disk._HEADER_STRUCT, data[4:header_bytes]
    )
    if version != _disk.DISK_CSR_VERSION:
        report.error("bad-version", f"unsupported disk-CSR version {version}")
        return report
    if flags & ~_disk._KNOWN_FLAGS:
        report.error("unknown-flags", f"unknown flag bits 0x{flags:x}")
        return report
    wide = bool(flags & _disk.FLAG_WIDE_INDICES)
    if len(data) < header_bytes + name_len:
        report.error(
            "truncated-name",
            f"header claims a {name_len}-byte name, file ends inside it",
        )
        return report

    indptr_start, indices_start, expected = _disk.disk_csr_sections(
        n, directed, wide, name_len
    )
    sections = (indptr_start, indices_start)
    misaligned = [
        name
        for name, start in zip(_DISK_SECTION_NAMES, sections)
        if start % _disk._ALIGNMENT
    ]
    if misaligned:  # pragma: no cover - layout-equation guard
        report.error(
            "misaligned-section",
            f"sections not on {_disk._ALIGNMENT}-byte boundaries: "
            f"{', '.join(misaligned)}",
        )
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        report.error(
            f"{kind}-file",
            f"header (n={n}, directed={directed}, "
            f"{'i8' if wide else 'i4'} ids) implies {expected} bytes, "
            f"file has {len(data)}",
        )
        if len(data) > expected:
            report.info(
                "salvage",
                f"all sections are present; the {len(data) - expected} "
                f"trailing bytes are foreign",
            )
        else:
            ends = (indices_start, expected)
            intact = [
                name
                for name, end in zip(_DISK_SECTION_NAMES, ends)
                if end <= len(data)
            ]
            report.info(
                "salvage",
                "intact sections: " + (", ".join(intact) if intact else "none"),
            )

    indptr = None
    if indptr_start + 8 * (n + 1) <= len(data):
        indptr = np.frombuffer(data, dtype="<i8", count=n + 1, offset=indptr_start)
        if int(indptr[0]) != 0:
            report.error(
                "indptr-base", f"indptr[0] is {int(indptr[0])}, expected 0"
            )
        if int(indptr[-1]) != directed:
            report.error(
                "indptr-entries",
                f"indptr[-1] is {int(indptr[-1])}, header claims "
                f"{directed} directed edges",
            )
        if n and not bool((np.diff(indptr) >= 0).all()):
            report.error("indptr-order", "indptr is not non-decreasing")

    index_dtype = "<i8" if wide else "<i4"
    itemsize = 8 if wide else 4
    if directed and indices_start + itemsize * directed <= len(data):
        indices = np.frombuffer(
            data, dtype=index_dtype, count=directed, offset=indices_start
        )
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= n:
            report.error(
                "index-range",
                f"adjacency ids span [{low}, {high}], must lie in [0, {n})",
            )
        elif indptr is not None and report.ok:
            # Rows must be strictly increasing; a non-increase anywhere
            # except a row boundary is a violation.
            row_start = np.zeros(directed + 1, dtype=bool)
            row_start[indptr[:-1]] = True
            bad = (indices[1:] <= indices[:-1]) & ~row_start[1:directed]
            if bad.any():
                pos = int(np.flatnonzero(bad)[0]) + 1
                row = int(np.searchsorted(indptr, pos, side="right")) - 1
                report.error(
                    "row-order",
                    f"adjacency row of vertex {row} is not strictly "
                    f"increasing at flat position {pos}",
                )

    if report.ok:
        report.info(
            "clean",
            f"v{version} disk CSR, n={n}, directed={directed}, "
            f"{'i8' if wide else 'i4'} ids",
        )
    return report


# -- WAL checks --------------------------------------------------------------


def fsck_wal(path: PathLike) -> FsckReport:
    """Validate a write-ahead log: header, checksums, torn tail.

    A torn tail — a partial record at EOF — is reported as an error
    (the file is not clean) together with the count of salvageable
    records before it; reopening the log with
    :class:`~repro.core.wal.WriteAheadLog` repairs exactly that case.
    Checksum mismatches and impossible record lengths *inside* the
    valid region are unrepairable corruption.
    """
    path = Path(path)
    report = FsckReport(path, "wal")
    try:
        scan = _wal.scan_wal(path)
    except OSError as exc:
        report.error("unreadable", f"cannot read file: {exc}")
        return report
    except WalError as exc:
        # scan_wal raises with the precise invariant in the message;
        # classify by what it found.
        message = str(exc)
        # Match scan_wal's exact phrases, not loose substrings — the
        # message embeds the file path, which can contain anything.
        if "not a repro WAL" in message:
            code = "bad-header"
        elif "unsupported WAL version" in message:
            code = "bad-version"
        elif "checksum mismatch" in message:
            code = "bad-checksum"
        elif "impossible record length" in message:
            code = "bad-length"
        else:
            code = "corrupt"
        report.error(code, message)
        salvaged = _salvageable_prefix(path)
        if salvaged is not None:
            report.info(
                "salvage",
                f"{salvaged} complete records precede the corruption; "
                f"truncating there by hand would lose every later update",
            )
        return report
    if scan.torn_bytes:
        report.error(
            "torn-tail",
            f"{scan.torn_bytes}-byte partial record at end of file "
            f"(crash mid-append; the update was never acknowledged)",
        )
        report.info(
            "salvage",
            f"{len(scan.records)} complete records are intact; reopening "
            f"the log (WriteAheadLog) truncates the torn tail",
        )
        return report
    report.info("clean", f"{len(scan.records)} records, no torn tail")
    return report


def _salvageable_prefix(path: Path) -> Optional[int]:
    """Count complete records before the first corruption, if countable."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if len(data) < _wal.HEADER_BYTES or data[:4] != _wal.WAL_MAGIC:
        return None
    import zlib

    count = 0
    cursor = _wal.HEADER_BYTES
    while cursor + 8 <= len(data):
        length, crc = struct.unpack("<II", data[cursor : cursor + 8])
        payload = data[cursor + 8 : cursor + 8 + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        count += 1
        cursor += 8 + length
    return count
