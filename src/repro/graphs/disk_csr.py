"""A paged, versioned, disk-backed CSR that :class:`Graph` opens zero-copy.

The in-memory :class:`~repro.graphs.csr.CSRAdjacency` holds both arrays
on the heap, so a graph can only be queried if it fits in RAM.  This
module stores the same two arrays in a single **RPDC** file laid out so
that :func:`open_disk_csr` can hand numpy *memmaps* of the on-disk
sections straight to :meth:`Graph.from_csr` — the adjacency is then
paged in on demand by the OS and shared, read-only, across every
process mapping the same file (the same discipline as the v2 label
snapshot in :mod:`repro.core.serialization`).

**RPDC v1 layout** (little-endian):

    magic    4s   "RPDC"
    version  u32  = 1
    flags    u32      bit 0: wide (64-bit) adjacency ids
    n        u64      vertices
    directed u64      directed edge slots (== indptr[n])
    name_len u32      length of the utf-8 graph name that follows
    name     name_len bytes
    indptr   (n+1) * i8            @ align64(32 + name_len)
    indices  directed * (i4 | i8)  @ align64(...)

Every array section starts on a 64-byte boundary (zero padding in
between), which is what makes the sections individually mappable.  The
narrow (``i4``) index width covers graphs up to ``2^31 - 1`` vertices —
beyond that the writer widens to ``i8`` automatically ("u32/u64 id
widening"; the *raw* ids in the ingested text may be arbitrary 64-bit
integers either way, see :mod:`repro.datasets.ingest`).

Writes are **atomic and durable**: assembled in a same-directory
``*.tmp`` file, fsynced, then renamed over the target — a crash leaves
either the old file or the complete new one, never a truncated CSR at
an openable name.  ``repro fsck`` validates the format via
:func:`repro.core.fsck.fsck_disk_csr`.
"""

from __future__ import annotations

import mmap as _mmap_module
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRAdjacency
from repro.graphs.graph import Graph

DISK_CSR_MAGIC = b"RPDC"
DISK_CSR_VERSION = 1
FLAG_WIDE_INDICES = 1
_KNOWN_FLAGS = FLAG_WIDE_INDICES
_HEADER_STRUCT = "<IIQQI"  # version, flags, n, directed, name_len
_HEADER_BYTES = 4 + struct.calcsize(_HEADER_STRUCT)  # 32
_ALIGNMENT = 64
#: Highest vertex id a narrow (i4) adjacency section can reference.
NARROW_ID_MAX = np.iinfo(np.int32).max

PathLike = Union[str, Path]


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


@dataclass(frozen=True)
class DiskCSRHeader:
    """Decoded RPDC header: everything needed to locate the sections."""

    version: int
    flags: int
    num_vertices: int
    num_directed_edges: int
    name: str

    @property
    def wide(self) -> bool:
        """Whether adjacency ids are stored as i8 instead of i4."""
        return bool(self.flags & FLAG_WIDE_INDICES)

    @property
    def index_dtype(self) -> str:
        """Numpy dtype string of the on-disk adjacency section."""
        return "<i8" if self.wide else "<i4"

    def sections(self) -> Tuple[int, int, int]:
        """Byte offsets of ``(indptr, indices, end)``."""
        return disk_csr_sections(
            self.num_vertices,
            self.num_directed_edges,
            self.wide,
            len(self.name.encode("utf-8")),
        )


def disk_csr_sections(
    n: int, directed: int, wide: bool, name_len: int
) -> Tuple[int, int, int]:
    """Byte offsets of ``(indptr, indices, end)`` for an RPDC v1 file."""
    indptr_start = _align(_HEADER_BYTES + name_len)
    index_width = 8 if wide else 4
    indices_start = _align(indptr_start + 8 * (n + 1))
    end = indices_start + index_width * directed
    return indptr_start, indices_start, end


def is_disk_csr(path: PathLike) -> bool:
    """True if ``path`` exists and starts with the RPDC magic."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(4) == DISK_CSR_MAGIC
    except OSError:
        return False


def read_disk_csr_header(path: PathLike) -> DiskCSRHeader:
    """Decode and validate the fixed header of an RPDC file.

    Raises:
        GraphError: on truncation, bad magic, unsupported version or
            unknown flag bits.
    """
    path = Path(path)
    with path.open("rb") as handle:
        blob = handle.read(_HEADER_BYTES)
        if len(blob) < _HEADER_BYTES:
            raise GraphError(f"{path}: truncated disk-CSR header")
        if blob[:4] != DISK_CSR_MAGIC:
            raise GraphError(f"{path}: not a repro disk-CSR file")
        version, flags, n, directed, name_len = struct.unpack(
            _HEADER_STRUCT, blob[4:]
        )
        if version != DISK_CSR_VERSION:
            raise GraphError(f"{path}: unsupported disk-CSR version {version}")
        if flags & ~_KNOWN_FLAGS:
            raise GraphError(f"{path}: unknown disk-CSR flag bits 0x{flags:x}")
        name_blob = handle.read(name_len)
        if len(name_blob) < name_len:
            raise GraphError(f"{path}: truncated disk-CSR name field")
    try:
        name = name_blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: undecodable disk-CSR name field") from exc
    return DiskCSRHeader(
        version=version,
        flags=flags,
        num_vertices=int(n),
        num_directed_edges=int(directed),
        name=name,
    )


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (best effort off-POSIX).

    After ``os.replace`` the *file* is durable but the *name* lives in
    the directory; a crash before the directory block reaches disk can
    resurrect the old entry. Platforms that cannot open directories
    (Windows) skip this — ``os.replace`` is still atomic there.
    """
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:  # pragma: no cover - non-POSIX
        return
    try:
        fd = os.open(directory, os.O_RDONLY | flags)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_disk_csr(
    path: PathLike,
    indptr: np.ndarray,
    indices_chunks: Iterable[np.ndarray],
    *,
    name: str = "graph",
    wide: Optional[bool] = None,
) -> int:
    """Atomically write an RPDC file from indptr + streamed adjacency.

    The adjacency arrives as an iterable of chunks so callers (the
    out-of-core ingest) never materialize the full ``indices`` array;
    only ``indptr`` (``O(n)``) must be resident.  Returns bytes written.

    Args:
        path: output file.
        indptr: ``(n+1,)`` int64 row-pointer array, ``indptr[0] == 0``,
            non-decreasing.
        indices_chunks: chunks whose concatenation is the adjacency
            section; total length must equal ``indptr[-1]``.
        name: graph name stored in the header.
        wide: force 64-bit adjacency ids; default auto-widens when a
            vertex id cannot fit in an i4.

    Raises:
        GraphError: on an inconsistent indptr or a chunk-length mismatch.
    """
    path = Path(path)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size < 1:
        raise GraphError("indptr must be a 1-d array of length n+1")
    n = indptr.size - 1
    if int(indptr[0]) != 0:
        raise GraphError(f"indptr[0] must be 0, got {int(indptr[0])}")
    if n and not bool((np.diff(indptr) >= 0).all()):
        raise GraphError("indptr must be non-decreasing")
    directed = int(indptr[-1])
    if wide is None:
        wide = n - 1 > NARROW_ID_MAX
    index_dtype = "<i8" if wide else "<i4"
    name_blob = name.encode("utf-8")
    indptr_start, indices_start, end = disk_csr_sections(
        n, directed, wide, len(name_blob)
    )

    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    written = 0
    try:
        with tmp.open("wb") as handle:
            handle.write(DISK_CSR_MAGIC)
            handle.write(
                struct.pack(
                    _HEADER_STRUCT,
                    DISK_CSR_VERSION,
                    FLAG_WIDE_INDICES if wide else 0,
                    n,
                    directed,
                    len(name_blob),
                )
            )
            handle.write(name_blob)
            handle.write(b"\x00" * (indptr_start - handle.tell()))
            handle.write(indptr.astype("<i8", copy=False).tobytes())
            handle.write(b"\x00" * (indices_start - handle.tell()))
            for chunk in indices_chunks:
                chunk = np.ascontiguousarray(chunk)
                if chunk.size and (chunk.min() < 0 or chunk.max() >= n):
                    raise GraphError(
                        f"adjacency id out of range [0, {n}) in chunk"
                    )
                if chunk.size and not wide and chunk.max() > NARROW_ID_MAX:
                    raise GraphError(
                        "adjacency id exceeds the narrow i4 width; "
                        "re-publish with wide=True"
                    )
                handle.write(chunk.astype(index_dtype, copy=False).tobytes())
                written += int(chunk.size)
            if written != directed:
                raise GraphError(
                    f"adjacency chunks held {written} ids, "
                    f"indptr terminates at {directed}"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    return end


def write_graph_disk_csr(
    graph: Graph, path: PathLike, *, wide: Optional[bool] = None
) -> int:
    """Write an in-memory :class:`Graph` as an RPDC file; returns bytes.

    Convenience wrapper over :func:`publish_disk_csr` used for the
    ``gen-*.graph`` sidecars of
    :class:`~repro.core.serialization.SnapshotSpool`, tests, fixtures
    and the format round-trip in ``tools/gauntlet.py``.
    """
    csr = graph.csr
    return publish_disk_csr(
        path, csr.indptr, [csr.indices], name=graph.name, wide=wide
    )


def open_disk_csr(
    path: PathLike, *, mmap: bool = True, name: Optional[str] = None
) -> Graph:
    """Open an RPDC file as a :class:`Graph`.

    With ``mmap=True`` (the default) the indptr and adjacency sections
    are :class:`numpy.memmap` views straight onto the file — nothing is
    copied into process RAM, pages fault in on first touch and can be
    dropped again with :func:`drop_resident_pages`.  ``mmap=False``
    copies both arrays onto the heap (useful for small graphs or
    mutation via ``with_edges_added``).

    Raises:
        GraphError: on a malformed header, a file whose size does not
            match the header's section layout, or indptr invariant
            violations (cheap ``O(n)`` checks; the full ``O(m)``
            adjacency validation lives in ``repro fsck``).
    """
    path = Path(path)
    header = read_disk_csr_header(path)
    n = header.num_vertices
    directed = header.num_directed_edges
    indptr_start, indices_start, end = header.sections()
    actual = path.stat().st_size
    if actual != end:
        raise GraphError(
            f"{path}: truncated or oversized disk-CSR file — expected "
            f"{end} bytes, found {actual}"
        )
    if mmap:
        indptr = np.memmap(
            path, dtype="<i8", mode="r", offset=indptr_start, shape=(n + 1,)
        )
        if directed:
            indices = np.memmap(
                path,
                dtype=header.index_dtype,
                mode="r",
                offset=indices_start,
                shape=(directed,),
            )
        else:
            indices = np.empty(0, dtype=np.int64 if header.wide else np.int32)
    else:
        with path.open("rb") as handle:
            handle.seek(indptr_start)
            indptr = np.fromfile(handle, dtype="<i8", count=n + 1).astype(
                np.int64
            )
            handle.seek(indices_start)
            indices = np.fromfile(
                handle, dtype=header.index_dtype, count=directed
            ).astype(np.int64 if header.wide else np.int32)
    if int(indptr[0]) != 0 or int(indptr[-1]) != directed:
        raise GraphError(
            f"{path}: corrupt disk-CSR indptr — spans "
            f"[{int(indptr[0])}, {int(indptr[-1])}], expected [0, {directed}]"
        )
    if n and not bool((np.diff(indptr) >= 0).all()):
        raise GraphError(f"{path}: corrupt disk-CSR indptr — not non-decreasing")
    csr = CSRAdjacency(indptr=indptr, indices=indices)
    return Graph.from_csr(csr, name=name or header.name or path.stem)


def drop_resident_pages(*arrays: np.ndarray) -> int:
    """Advise the kernel to evict the resident pages of memmapped arrays.

    The out-of-core builder calls this between BFS levels so the pages
    of an already-swept adjacency section stop counting against the
    process's RSS; non-memmapped arrays are ignored.  Returns how many
    mappings were advised.
    """
    advised = 0
    for array in arrays:
        mapping = getattr(array, "_mmap", None)
        if mapping is None:
            continue
        try:
            mapping.madvise(_mmap_module.MADV_DONTNEED)
        except (AttributeError, OSError):  # pragma: no cover - platform
            continue
        advised += 1
    return advised
