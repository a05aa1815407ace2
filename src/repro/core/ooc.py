"""Out-of-core HL construction: labels spill to disk, never to the heap.

:func:`~repro.core.construction_engine.build_highway_cover_labelling_stacked`
accumulates every label entry in RAM before the snapshot is written, so
its peak memory is ``O(n + total label entries)`` even though the BFS
state itself is chunk-bounded.  This module removes that last ``O``:
:func:`build_snapshot_out_of_core` runs the same stacked chunks
(byte-identical BFS semantics, see :mod:`repro.core.construction_engine`)
but **spills each chunk's label entries to disk** and later scatters
them *directly into the label sections of a v2 snapshot file* — the
labels are never fully resident, and neither is the graph when it comes
from a memmapped disk CSR (:mod:`repro.graphs.disk_csr`).

The two-phase write:

1. **Spill** — per landmark chunk, write each landmark's
   ``(vertex, distance)`` label entries to its own spill file (no
   sorting: a landmark labels a vertex at most once, so order within a
   file is free), and accumulate the ``O(n)`` per-vertex entry counts
   plus the ``O(k²)`` highway matrix — the only state kept in RAM.
2. **Scatter** — with the counts' prefix sum as the snapshot's offsets
   section, the header / landmarks / highway / offsets sections are
   written normally, the file is extended to its final size, and the
   ids/distances sections are memmapped writable.  Spill files replay
   in landmark order in bounded slices; because vertices are unique
   within a file, a per-vertex write cursor turns every slice into one
   vectorized scatter (``positions = cursor[vertices]; cursor += 1``),
   and the landmark-order replay leaves each vertex's label run sorted
   by landmark index — exactly the byte layout
   :func:`~repro.core.serialization.save_oracle` produces for the same
   build (asserted by ``tests/builder_harness.py`` and the gauntlet's
   byte-identity phase).

Publication is atomic (same-directory temp file + fsync + rename), so
the output can be dropped straight into a
:class:`~repro.core.serialization.SnapshotSpool` generation via
:meth:`~repro.core.serialization.SnapshotSpool.publish_via` and served
by :class:`~repro.serving.ShardedDistanceService` without ever loading
the index into the writer process.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import serialization as _ser
from repro.core.construction_engine import (
    DEFAULT_CHUNK_SIZE,
    stacked_pruned_bfs,
)
from repro.core.highway import Highway
from repro.errors import LandmarkError, ReproError
from repro.graphs.disk_csr import drop_resident_pages
from repro.graphs.graph import Graph
from repro.utils.memory import trim_heap
from repro.utils.timing import TimeBudget

PathLike = Union[str, Path]

#: Label entries scattered per slice during the snapshot replay.  The
#: replay allocates a handful of transient arrays per slice, so this
#: bounds scatter scratch to a few tens of MiB.
DEFAULT_SCATTER_SLICE = 1 << 19


@dataclass(frozen=True)
class OocBuildReport:
    """What one :func:`build_snapshot_out_of_core` run produced."""

    out_path: str
    num_vertices: int
    num_landmarks: int
    entries: int
    chunks: int
    bytes_written: int
    construction_seconds: float


def _iter_spill_slices(
    path: Path, slice_entries: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Replay one landmark's spill file in bounded (vertex, dist) slices."""
    entry_bytes = 8 + 4
    with path.open("rb") as handle:
        while True:
            blob = handle.read(slice_entries * entry_bytes)
            if not blob:
                break
            pairs = np.frombuffer(blob, dtype=[("v", "<i8"), ("d", "<i4")])
            yield (
                pairs["v"].astype(np.int64, copy=False),
                pairs["d"],
            )


def build_snapshot_out_of_core(
    graph: Graph,
    landmarks: Sequence[int],
    out_path: PathLike,
    *,
    chunk_size: Optional[int] = None,
    budget_s: Optional[float] = None,
    edge_block: Optional[int] = None,
    release_graph_pages: bool = False,
    scatter_slice: int = DEFAULT_SCATTER_SLICE,
    tmp_dir: Optional[PathLike] = None,
) -> OocBuildReport:
    """Build HL labels for ``landmarks`` straight into a v2 snapshot.

    The output file is byte-identical to building in memory with the
    stacked engine and calling ``save_oracle(oracle, out_path)`` with
    the same landmark order, but peak memory stays
    ``O(n + chunk labels)``: label entries live in per-chunk spill
    files between the BFS and the final scatter, and the big label
    sections are written through a memmap, never materialized.

    Args:
        graph: input graph — typically a memmapped disk CSR for true
            out-of-core operation, but any :class:`Graph` works.
        landmarks: landmark vertex ids; order fixes landmark indices.
        out_path: snapshot destination (atomic publish).
        chunk_size: landmarks advanced together per stacked pass.
        budget_s: optional wall-clock construction budget.
        edge_block: bound on directed edges gathered per BFS step (see
            :func:`~repro.graphs.csr.bitset_neighbor_or`).
        release_graph_pages: advise the kernel to drop the memmapped
            adjacency's resident pages after every BFS level, keeping a
            disk-CSR graph's RSS contribution near zero.
        scatter_slice: label entries scattered per replay slice.
        tmp_dir: where spill files live (default: alongside
            ``out_path``).

    Returns:
        An :class:`OocBuildReport`; load the result with
        :func:`~repro.core.serialization.load_oracle`.

    Raises:
        LandmarkError: empty landmark set or out-of-range ids.
        ReproError: a distance overflows the snapshot encoding.
    """
    from repro.utils.timing import Stopwatch

    out_path = Path(out_path)
    landmark_ids = np.asarray([int(v) for v in landmarks], dtype=np.int64)
    if landmark_ids.size == 0:
        raise LandmarkError("need at least one landmark")
    for v in landmark_ids:
        graph.validate_vertex(int(v))
    chunk = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    if chunk < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")

    n = graph.num_vertices
    k = int(landmark_ids.size)
    highway = Highway(landmark_ids)
    mask = highway.landmark_mask(n)
    budget = TimeBudget(budget_s, method="HL-C/ooc")
    level_hook = None
    block_hook = None
    if release_graph_pages:
        csr = graph.csr

        def _drop_pages() -> None:
            """Drop the adjacency mapping's resident pages."""
            drop_resident_pages(csr.indices)

        def level_hook() -> None:
            """Drop adjacency pages and hand back allocator free lists.

            Each BFS level churns a few tens of MiB of frontier scratch;
            trimming per level keeps that retention out of the build's
            RSS high-water mark.  Levels are few (graph diameter), so
            the ``malloc_trim`` cost is noise.
            """
            drop_resident_pages(csr.indices)
            trim_heap()

        if edge_block is not None:
            # Blocks sweep the adjacency once, front to back, so
            # dropping the whole mapping after each block never evicts
            # pages a later block still needs — resident adjacency
            # stays O(edge_block) even inside a level.  No trim here:
            # blocks fire tens of times per level and malloc_trim at
            # that cadence costs real wall-clock.
            block_hook = _drop_pages

    work_dir = Path(
        tempfile.mkdtemp(
            prefix="repro-ooc-",
            dir=str(tmp_dir) if tmp_dir is not None else str(out_path.parent),
        )
    )
    try:
        with Stopwatch() as stopwatch:
            counts = np.zeros(n, dtype=np.int64)
            spills = []
            for start in range(0, k, chunk):
                budget.check()
                stop = min(start + chunk, k)
                per_vertices, per_distances, rows = stacked_pruned_bfs(
                    graph,
                    landmark_ids[start:stop],
                    mask,
                    landmark_ids,
                    budget=budget,
                    edge_block=edge_block,
                    level_hook=level_hook,
                    block_hook=block_hook,
                )
                for slot, index in enumerate(range(start, stop)):
                    highway.set_row(int(landmark_ids[index]), rows[slot])
                    vertices = np.asarray(per_vertices[slot], dtype=np.int64)
                    distances = np.asarray(per_distances[slot])
                    if distances.size and int(distances.max()) > 255:
                        raise ReproError("label distance exceeds u8 range")
                    counts += np.bincount(vertices, minlength=n)
                    spill = work_dir / f"landmark-{index:06d}.spill"
                    with spill.open("wb") as handle:
                        # Slice the record conversion so the spill write
                        # never holds a second full copy of the entries.
                        for lo in range(0, vertices.size, scatter_slice):
                            hi = min(lo + scatter_slice, vertices.size)
                            pairs = np.empty(
                                hi - lo, dtype=[("v", "<i8"), ("d", "<i4")]
                            )
                            pairs["v"] = vertices[lo:hi]
                            pairs["d"] = distances[lo:hi]
                            pairs.tofile(handle)
                            del pairs
                    spills.append((spill, index))
                del per_vertices, per_distances, vertices, distances
                # The chunk epilogue churned O(chunk entries) of scratch;
                # hand the allocator's retained free lists back so chunk
                # peaks don't stack in the RSS high-water mark.
                trim_heap()

            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            del counts
            trim_heap()
            entries = int(offsets[-1])
            bytes_written = _scatter_snapshot(
                out_path, highway, offsets, spills, entries, scatter_slice
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return OocBuildReport(
        out_path=str(out_path),
        num_vertices=n,
        num_landmarks=k,
        entries=entries,
        chunks=(k + chunk - 1) // chunk,
        bytes_written=bytes_written,
        construction_seconds=stopwatch.elapsed,
    )


def _scatter_snapshot(
    out_path: Path,
    highway: Highway,
    offsets: np.ndarray,
    spills: Sequence[Tuple[Path, int]],
    entries: int,
    scatter_slice: int,
) -> int:
    """Write the v2 snapshot, replaying spill files into its label body."""
    n = offsets.size - 1
    k = highway.num_landmarks
    narrow = k <= 256
    flags = _ser._FLAG_NARROW_IDS if narrow else 0
    matrix = highway.matrix.copy()
    finite = ~np.isinf(matrix)
    if finite.any() and matrix[finite].max() > 65534:
        raise ReproError("highway distance exceeds u16 range")
    matrix[~finite] = _ser._UNREACHABLE_U16
    sections = _ser._section_offsets(n, k, entries, narrow)
    sec_ids, sec_dists, end = sections[3], sections[4], sections[5]
    id_dtype = "<u1" if narrow else "<u4"

    tmp = out_path.parent / f"{out_path.name}.{os.getpid()}.tmp"
    try:
        with tmp.open("wb") as handle:
            handle.write(_ser._MAGIC)
            handle.write(
                struct.pack(
                    _ser._HEADER_STRUCT, _ser._V2, flags, n, k, entries
                )
            )
            head_payload = (
                highway.landmarks.astype("<i8").tobytes(),
                matrix.astype("<u2").tobytes(),
                offsets.astype("<i8").tobytes(),
            )
            for start, blob in zip(sections, head_payload):
                handle.write(b"\x00" * (start - handle.tell()))
                handle.write(blob)
            # Extend to the final size; the hole reads as zeros, exactly
            # the padding save_oracle writes explicitly.
            handle.truncate(end)
        if entries:
            ids_map = np.memmap(
                tmp, dtype=id_dtype, mode="r+", offset=sec_ids, shape=(entries,)
            )
            dists_map = np.memmap(
                tmp, dtype="<u1", mode="r+", offset=sec_dists, shape=(entries,)
            )
            cursor = offsets[:-1].copy()
            for spill, landmark_index in spills:
                for vertices, distances in _iter_spill_slices(
                    spill, scatter_slice
                ):
                    # A landmark labels each vertex at most once, so
                    # vertices are unique within a spill file and the
                    # scatter needs no sorting: landmark-order replay
                    # alone yields vertex runs ascending in landmark.
                    positions = cursor[vertices]
                    ids_map[positions] = landmark_index
                    dists_map[positions] = distances.astype("<u1")
                    cursor[vertices] += 1
            ids_map.flush()
            dists_map.flush()
            del ids_map, dists_map
        with tmp.open("rb+") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, out_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _ser._fsync_directory(out_path.parent)
    return end
