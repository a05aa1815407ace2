"""Persisting a built HL index to disk (extension).

The paper's workflow is build-once/query-often: a billion-scale
construction that takes hours must not be repeated per process. This
module serializes the complete oracle state — landmark set, highway
matrix and the label store — into a single little-endian binary file,
the **v2** snapshot. A 32-byte header, padded to 64 bytes:

    magic   4s   "RPHL"
    version u32  = 2
    flags   u32      bit 0: labels use 8-bit landmark ids
    n       u64      vertices
    k       u32      landmarks
    entries u64      total label entries

then the array sections, each starting on a 64-byte boundary (zero
padding in between):

    landmarks   k * i64             @ 64
    highway     k*k * u16           @ align64(...)  (0xFFFF = unreachable)
    offsets     (n+1) * i64         @ align64(...)
    label_ids   entries * (u8|u32)  @ align64(...)
    label_dist  entries * u8        @ align64(...)

Alignment is what makes the snapshot *mappable*:
``load_oracle(..., mmap=True)`` wires the three big label arrays
(offsets / ids / distances) straight onto the file with
:class:`numpy.memmap` — no copy into process RAM, near-instant startup,
and one shared page-cache copy across every serving process on the
machine. Only the small ``O(k)``/``O(k²)`` landmark and highway
sections are materialized (the highway needs its ``0xFFFF → inf``
decode). The unaligned v1 layout of earlier releases is no longer
read: :func:`load_oracle` rejects it with a :class:`ReproError`.

The graph itself is *not* stored (it has its own disk format in
:mod:`repro.graphs.disk_csr`); :func:`load_oracle` takes the graph as input
and validates that the stored landmark set fits it. The public entry
points sit a layer up: ``oracle.save(path)`` writes, and
:func:`repro.api.open_oracle` (``index=``, ``mmap=``, ``dynamic=``)
restores — including promotion to the dynamic oracle variant. Every length and
sentinel in the header is validated before use, so truncated or
corrupt files fail with a clear :class:`~repro.errors.ReproError`
instead of a ``struct``/numpy exception.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from repro.core.highway import Highway
from repro.core.labels import HighwayCoverLabelling
from repro.core.query import HighwayCoverOracle
from repro.errors import NotBuiltError, ReproError
from repro.graphs.disk_csr import _fsync_directory, write_graph_disk_csr
from repro.graphs.graph import Graph

_MAGIC = b"RPHL"
_V2 = 2
_FLAG_NARROW_IDS = 1
_KNOWN_FLAGS = _FLAG_NARROW_IDS
_UNREACHABLE_U16 = 0xFFFF
_HEADER_STRUCT = "<IIQIQ"  # version, flags, n, k, entries (after the magic)
_V2_HEADER_BYTES = 64
_ALIGNMENT = 64

PathLike = Union[str, Path]


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _section_offsets(n: int, k: int, entries: int, narrow: bool):
    """Byte offsets of (landmarks, highway, offsets, ids, dists, end)."""
    id_width = 1 if narrow else 4
    sizes = (8 * k, 2 * k * k, 8 * (n + 1), id_width * entries, entries)
    cursor = _V2_HEADER_BYTES
    starts = []
    for size in sizes:
        cursor = _align(cursor)
        starts.append(cursor)
        cursor += size
    return (*starts, cursor)


def save_oracle(oracle: HighwayCoverOracle, path: PathLike) -> int:
    """Write a built oracle's index to ``path``; returns bytes written.

    The write is **atomic and durable**: the snapshot is assembled in a
    same-directory temporary file, flushed and fsynced, then renamed
    over ``path`` with ``os.replace`` (and the directory entry fsynced).
    A crash at any point leaves either the old file or the complete new
    one at ``path`` — never a truncated snapshot at a mappable name.
    When this function returns, the snapshot is on stable storage (the
    point at which a write-ahead log covering the same updates may be
    truncated).

    Args:
        oracle: a built oracle (any label-store backend; the snapshot is
            always the canonical vertex-major CSR).
        path: output file.
    """
    if oracle.labelling is None or oracle.highway is None:
        raise NotBuiltError("cannot save an unbuilt oracle")
    labelling = oracle.labelling.as_vertex_major()
    highway = oracle.highway
    narrow = highway.num_landmarks <= 256
    flags = _FLAG_NARROW_IDS if narrow else 0

    matrix = highway.matrix.copy()
    matrix[np.isinf(matrix)] = _UNREACHABLE_U16
    if (matrix[~np.isinf(highway.matrix)] > 65534).any():
        raise ReproError("highway distance exceeds u16 range")
    if labelling.size() and int(labelling.distances.max()) > 255:
        raise ReproError("label distance exceeds u8 range")

    n = labelling.num_vertices
    k = highway.num_landmarks
    entries = labelling.size()
    sections = _section_offsets(n, k, entries, narrow)

    path = Path(path)
    # Same directory as the target so os.replace is a rename, never a
    # cross-device copy; the ".tmp" suffix keeps spool scans and fsck
    # from ever mistaking an in-progress write for a snapshot.
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    try:
        with tmp.open("wb") as handle:
            handle.write(_MAGIC)
            handle.write(
                struct.pack(_HEADER_STRUCT, _V2, flags, n, k, entries)
            )
            id_dtype = "<u1" if narrow else "<u4"
            payload = (
                highway.landmarks.astype("<i8").tobytes(),
                matrix.astype("<u2").tobytes(),
                labelling.offsets.astype("<i8").tobytes(),
                labelling.landmark_indices.astype(id_dtype).tobytes(),
                labelling.distances.astype("<u1").tobytes(),
            )
            for start, blob in zip(sections, payload):
                pad = start - handle.tell()
                if pad:
                    handle.write(b"\x00" * pad)
                handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    return path.stat().st_size


def _read_exact(handle: BinaryIO, count: int, path: Path, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise ReproError(
            f"{path}: truncated index file — expected {count} bytes for "
            f"{what}, got {len(data)}"
        )
    return data


def load_oracle(
    graph: Graph, path: PathLike, mmap: bool = False
) -> HighwayCoverOracle:
    """Reconstruct a queryable oracle from ``path`` over ``graph``.

    Args:
        graph: the graph the index was built for (validated by vertex
            count).
        path: a snapshot written by :func:`save_oracle`.
        mmap: map the label arrays zero-copy with :class:`numpy.memmap`
            instead of reading them into RAM; loads are near-instant and
            the pages are shared across processes serving the same file.

    Raises:
        ReproError: on bad magic/version/flags, on a truncated or
            size-inconsistent file, if the label offsets do not cover
            exactly the stored entry count, or if the stored index does
            not match the graph's vertex count.
    """
    path = Path(path)
    with path.open("rb") as handle:
        if _read_exact(handle, 4, path, "magic") != _MAGIC:
            raise ReproError(f"{path}: not a repro HL index file")
        header = _read_exact(
            handle, struct.calcsize(_HEADER_STRUCT), path, "header"
        )
        version, flags, n, k, entries = struct.unpack(_HEADER_STRUCT, header)
        if version != _V2:
            raise ReproError(
                f"{path}: unsupported index version {version} (only v{_V2} "
                f"is read; rebuild the index)"
            )
        if flags & ~_KNOWN_FLAGS:
            raise ReproError(f"{path}: unknown flag bits 0x{flags:x}")
        narrow = bool(flags & _FLAG_NARROW_IDS)
        if narrow and k > 256:
            raise ReproError(
                f"{path}: corrupt header — 8-bit landmark ids with k={k}"
            )
        if n != graph.num_vertices:
            raise ReproError(
                f"{path}: index built for n={n}, graph has n={graph.num_vertices}"
            )
        sections = _section_offsets(n, k, entries, narrow)
        actual_size = path.stat().st_size
        if actual_size != sections[-1]:
            raise ReproError(
                f"{path}: truncated or oversized index file — expected "
                f"{sections[-1]} bytes, found {actual_size}"
            )
        sec_landmarks, sec_highway, sec_offsets, sec_ids, sec_dists, _ = sections

        def read_section(start: int, count: int, dtype: str, what: str) -> np.ndarray:
            """Read one array section into RAM, validating its length."""
            handle.seek(start)
            return np.frombuffer(
                _read_exact(handle, count * np.dtype(dtype).itemsize, path, what),
                dtype=dtype,
            )

        landmarks = read_section(sec_landmarks, k, "<i8", "landmarks").astype(
            np.int64
        )
        matrix = (
            read_section(sec_highway, k * k, "<u2", "highway")
            .astype(float)
            .reshape(k, k)
        )
        matrix[matrix == _UNREACHABLE_U16] = np.inf
        id_dtype = "<u1" if narrow else "<u4"
        if mmap:
            offsets = _map_section(path, sec_offsets, n + 1, "<i8")
            ids = _map_section(path, sec_ids, entries, id_dtype)
            dists = _map_section(path, sec_dists, entries, "<u1")
        else:
            offsets = read_section(sec_offsets, n + 1, "<i8", "offsets").astype(
                np.int64
            )
            ids = read_section(sec_ids, entries, id_dtype, "label ids").astype(
                np.int32
            )
            dists = read_section(
                sec_dists, entries, "<u1", "label distances"
            ).astype(np.int32)

    if int(offsets[0]) != 0 or int(offsets[-1]) != entries:
        raise ReproError(
            f"{path}: corrupt label offsets — offsets[0]={int(offsets[0])}, "
            f"offsets[-1]={int(offsets[-1])}, expected 0 and {entries}"
        )
    if n and not bool((np.diff(offsets) >= 0).all()):
        raise ReproError(f"{path}: corrupt label offsets — not non-decreasing")

    labelling = HighwayCoverLabelling(
        num_vertices=int(n),
        num_landmarks=int(k),
        offsets=offsets,
        landmark_indices=ids,
        distances=dists,
    )
    highway = Highway(landmarks, matrix)
    oracle = HighwayCoverOracle(
        num_landmarks=int(k), landmarks=[int(r) for r in landmarks]
    )
    oracle.graph = graph
    oracle.labelling = labelling
    oracle.highway = highway
    oracle._landmark_mask = highway.landmark_mask(graph.num_vertices)
    return oracle


def _map_section(path: Path, start: int, count: int, dtype: str) -> np.ndarray:
    """A read-only, zero-copy view of one on-disk array section."""
    if count == 0:
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=start, shape=(count,))


class SnapshotSpool:
    """A directory of versioned snapshot files for multi-process serving.

    The sharded serving tier (:class:`~repro.serving.ShardedDistanceService`)
    keeps every worker process mapped onto one immutable v2 snapshot.
    A dynamic update therefore never mutates the mapped file — the
    writer publishes a *new* generation instead and workers re-map:

    1. the writer repairs its in-RAM index and calls :meth:`publish`,
       which writes ``gen-<seq>.hl`` into the spool directory;
    2. the new path is broadcast to the workers, each of which calls
       :func:`load_oracle` on it (``mmap=True``) — the worker-side
       re-map hook;
    3. once every worker has acknowledged, the writer calls
       :meth:`retire` on the previous generation, deleting the file
       nobody maps any more.

    Reopening an existing directory **resumes** the sequence after the
    highest ``gen-*.hl`` already present — a generation number is never
    reused, so a restarted writer can never overwrite a file an old
    worker may still map (generations are immutable for their whole
    lifetime). In-progress ``*.tmp`` writes from a crashed publisher are
    ignored by the scan (and swept by :meth:`close`); the atomic publish
    guarantees every ``gen-*.hl`` at its final name is complete.

    The spool owns its directory only when it created it
    (``directory=None``); :meth:`close` then removes everything.

    Args:
        directory: where generations are written. ``None`` creates a
            private temporary directory that :meth:`close` deletes.
        prefix: filename prefix for generation files.
    """

    def __init__(
        self, directory: Optional[PathLike] = None, prefix: str = "gen"
    ) -> None:
        import tempfile

        self._owned = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-spool-")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self._seq = self._next_sequence()
        self._live: set = set()

    def _next_sequence(self) -> int:
        """One past the highest existing generation number (0 if none)."""
        highest = -1
        for path in self.generations():
            try:
                highest = max(
                    highest, int(path.stem[len(self.prefix) + 1 :])
                )
            except ValueError:  # pragma: no cover - foreign file
                continue
        return highest + 1

    def generations(self) -> list:
        """Existing generation files, oldest first (``*.tmp`` excluded)."""
        return sorted(self.directory.glob(f"{self.prefix}-*.hl"))

    def latest(self) -> Optional[Path]:
        """The newest generation file, or ``None`` for an empty spool."""
        existing = self.generations()
        return existing[-1] if existing else None

    def live_generations(self) -> list:
        """Generations published by this spool and not yet retired."""
        return sorted(self._live)

    @staticmethod
    def graph_sidecar_for(path: PathLike) -> Path:
        """The graph-sidecar path paired with a generation file."""
        path = Path(path)
        return path.with_suffix(".graph")

    def publish(self, oracle, graph: bool = False) -> Path:
        """Write the oracle's index as the next generation; returns its path.

        Always a fresh file — existing generations are immutable, so
        worker processes keep valid mappings of the old file while the
        new one is written; the write itself is atomic and fsynced
        (:func:`save_oracle`), so a crashed publish can never leave a
        truncated file at a mappable ``gen-*.hl`` name. When this
        returns, the generation is durably on disk — the point at which
        a write-ahead log covering the same updates may be truncated.

        Args:
            oracle: the built oracle to snapshot.
            graph: also write a ``gen-*.graph`` sidecar holding the
                oracle's current graph (an RPDC disk CSR, see
                :mod:`repro.graphs.disk_csr`, written atomically and
                durably), so a crash-recovery open can reconstruct the
                exact graph this generation's labels were built against
                without replaying history from the base graph.
        """
        path = self.directory / f"{self.prefix}-{self._seq:06d}.hl"
        self._seq += 1
        if graph:
            write_graph_disk_csr(oracle.graph, self.graph_sidecar_for(path))
        save_oracle(oracle, path)
        self._live.add(path)
        return path

    def publish_via(self, write_fn) -> Path:
        """Allocate the next generation name and let ``write_fn`` fill it.

        The escape hatch for writers that produce a snapshot without an
        in-RAM oracle — the out-of-core builder
        (:func:`repro.core.ooc.build_snapshot_out_of_core`) streams
        label sections straight to disk and publishes the result as a
        spool generation through this hook.  ``write_fn(path)`` must
        create ``path`` atomically (temp file + rename), exactly like
        :func:`save_oracle`; the sequence number is consumed either
        way, so a failed write never reuses a generation name.

        Returns the generation path, registered as live.
        """
        path = self.directory / f"{self.prefix}-{self._seq:06d}.hl"
        self._seq += 1
        write_fn(path)
        if not path.is_file():
            raise ReproError(
                f"publish_via writer did not produce {path}"
            )
        self._live.add(path)
        return path

    def retire(self, path: PathLike) -> None:
        """Delete a generation no process maps any more (missing is fine).

        Removes the graph sidecar, if any, alongside. Unlinking is safe
        even while a straggler still maps the old file — the mapping
        keeps the inode alive until it is dropped — but a *new* open of
        the retired path will fail, which is why callers retire only
        after every worker acknowledged the next generation.
        """
        path = Path(path)
        path.unlink(missing_ok=True)
        self.graph_sidecar_for(path).unlink(missing_ok=True)
        self._live.discard(path)

    def close(self, force: bool = False) -> None:
        """Remove the spool directory if this spool created it; idempotent.

        Deleting a generation a worker still maps does not corrupt that
        worker (the inode survives), but it silently destroys state a
        restart would need — so an owned spool **refuses** to close
        while generations it published are still live (published and
        never retired), unless ``force=True`` asserts that every
        process mapping them has already exited (the sharded service
        closes its workers first and then forces).

        Raises:
            ReproError: owned spool with live generations and
                ``force=False`` — retire them (or close the processes
                mapping them and pass ``force=True``) first.
        """
        if not self._owned:
            self._live.clear()
            return
        if self._live and not force:
            names = ", ".join(p.name for p in sorted(self._live))
            raise ReproError(
                f"spool {self.directory} still has live generations "
                f"({names}); retire them first, or close(force=True) "
                f"after every mapping process has exited"
            )
        import shutil

        shutil.rmtree(self.directory, ignore_errors=True)
        self._live.clear()
