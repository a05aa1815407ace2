"""The paper's primary contribution: highway cover labelling and querying.

Public entry points:

* :class:`~repro.core.query.HighwayCoverOracle` — build + query in one
  object (the method called **HL** in the paper; ``parallel=True`` gives
  **HL-P**, ``codec="u8"`` gives **HL(8)**).
* :func:`~repro.core.construction.build_highway_cover_labelling` —
  Algorithm 1 on its own.
* :class:`~repro.core.highway.Highway` — the ``(R, δH)`` structure.
* :class:`~repro.core.labels.LabelStore` — the label-store protocol,
  with a frozen vertex-major backend
  (:class:`~repro.core.labels.HighwayCoverLabelling`) and a mutable
  landmark-major backend
  (:class:`~repro.core.labels.LandmarkMajorLabelStore`).
"""

from repro.core.highway import Highway
from repro.core.labels import (
    HighwayCoverLabelling,
    LabelStore,
    LandmarkMajorLabelStore,
    VertexLabel,
)
from repro.core.construction import build_highway_cover_labelling, pruned_bfs_from_landmark
from repro.core.construction_engine import (
    build_highway_cover_labelling_stacked,
    stacked_pruned_bfs,
)
from repro.core.parallel import build_highway_cover_labelling_parallel
from repro.core.bounds import upper_bound_distance
from repro.core.query import HighwayCoverOracle
from repro.core.compression import LabelCodec, encoded_size_bytes
from repro.core.verification import (
    is_highway_cover,
    is_hwc_minimal,
    reference_minimal_entries,
)
from repro.core.dynamic import DynamicHighwayCoverOracle
from repro.core.paths import shortest_path
from repro.core.batch_engine import BatchQueryEngine
from repro.core.ooc import OocBuildReport, build_snapshot_out_of_core
from repro.core.serialization import SnapshotSpool, load_oracle, save_oracle
from repro.core.wal import WalRecord, WriteAheadLog, replay_into, scan_wal
from repro.core.fsck import (
    FsckReport,
    fsck_disk_csr,
    fsck_path,
    fsck_snapshot,
    fsck_wal,
)

__all__ = [
    "Highway",
    "HighwayCoverLabelling",
    "LabelStore",
    "LandmarkMajorLabelStore",
    "VertexLabel",
    "build_highway_cover_labelling",
    "build_highway_cover_labelling_parallel",
    "build_highway_cover_labelling_stacked",
    "pruned_bfs_from_landmark",
    "stacked_pruned_bfs",
    "upper_bound_distance",
    "HighwayCoverOracle",
    "LabelCodec",
    "encoded_size_bytes",
    "is_highway_cover",
    "is_hwc_minimal",
    "reference_minimal_entries",
    "DynamicHighwayCoverOracle",
    "shortest_path",
    "BatchQueryEngine",
    "load_oracle",
    "save_oracle",
    "OocBuildReport",
    "build_snapshot_out_of_core",
    "SnapshotSpool",
    "WalRecord",
    "WriteAheadLog",
    "replay_into",
    "scan_wal",
    "FsckReport",
    "fsck_disk_csr",
    "fsck_path",
    "fsck_snapshot",
    "fsck_wal",
]
