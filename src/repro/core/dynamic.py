"""Dynamic edge updates for the highway cover labelling (extension).

The paper's closest competitor (FD) is "fully dynamic"; HL itself is
presented as static. This module extends HL with *edge-insertion and
edge-deletion* maintenance, exploiting two structural facts:

1. Landmark-locality. The entries contributed by landmark ``r`` depend
   only on the shortest-path DAG rooted at ``r``. An edge ``(u, v)``
   can participate in that DAG **only if** ``|d(r, u) − d(r, v)| >= 1``
   in the old graph — an edge between equal BFS levels lies on no
   shortest path from ``r``. So an insertion can alter the DAG only if
   the endpoints sat on different levels, and a deletion can alter it
   only if the removed edge connected adjacent levels (for an existing
   edge, ``|d(r, u) − d(r, v)| <= 1``, so both cases collapse to the
   same test: ``d(r, u) != d(r, v)``).
2. Exact landmark distances are already decodable from the labels plus
   the highway (the landmark-to-vertex query of
   :class:`~repro.core.query.HighwayCoverOracle`), so the affected set is
   computable without touching the graph.

The repair reruns Algorithm 1's pruned BFS *only for affected
landmarks* — all of them advanced together in one pass of the stacked
engine (:func:`~repro.core.construction_engine.stacked_pruned_bfs`),
reusing the oracle's configured ``chunk_size`` — and splices the new
runs into the landmark-major label store
(:class:`~repro.core.labels.LandmarkMajorLabelStore`) in O(affected
entries): the unaffected ``k - |affected|`` landmarks are never read,
copied, or scanned. The result is asserted (by the test suite) to be
byte-identical to a fresh build on the updated graph, so all of the
paper's theorems keep holding after every update.

For deletions the same argument applies: if no shortest path from ``r``
used the removed edge, every shortest path from ``r`` survives, hence
``r``'s distances, DAG, and label run are all unchanged; otherwise the
rerun pruned BFS on the new graph recomputes them exactly (including
distance growth and disconnection).

Durability: attach a :class:`~repro.core.wal.WriteAheadLog`
(:meth:`~DynamicHighwayCoverOracle.attach_wal`, or let
``repro.api.open_oracle(..., wal=path)`` do it) and every update is
logged **before** the labels mutate — after a crash,
``open_oracle(graph, index=snapshot, wal=path)`` replays the logged
churn through this same repair and serves exact distances again. A
successful :meth:`~DynamicHighwayCoverOracle.save` truncates the
attached log (the snapshot now covers every logged update; the write
itself is atomic and fsynced).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.api.protocol import Capability
from repro.core.construction_engine import DEFAULT_CHUNK_SIZE, stacked_pruned_bfs
from repro.core.query import HighwayCoverOracle
from repro.graphs.graph import Graph


class DynamicHighwayCoverOracle(HighwayCoverOracle):
    """HL with incremental edge-insertion and edge-deletion maintenance.

    The label store defaults to the landmark-major backend
    (``store="landmark"``), the update-optimal layout repairs splice
    into; point queries still work directly against it, and bulk
    consumers (the batch engine, serialization) snapshot the frozen
    vertex-major view on demand.

    Example:
        >>> from repro.graphs.generators import barabasi_albert_graph
        >>> g = barabasi_albert_graph(200, 3, seed=1)
        >>> oracle = DynamicHighwayCoverOracle(num_landmarks=8).build(g)
        >>> affected = oracle.insert_edge(0, 150)
        >>> d = oracle.query(0, 150)  # == 1.0 now
    """

    name = "HL-dyn"
    default_store = "landmark"
    CAPABILITIES = HighwayCoverOracle.CAPABILITIES | {Capability.DYNAMIC}

    #: Attached write-ahead log, or ``None`` (no durability logging).
    wal = None

    def attach_wal(self, wal) -> None:
        """Log every subsequent update to ``wal`` before applying it.

        The log should already be replayed into this oracle
        (:func:`repro.core.wal.replay_into`) — attaching first and
        replaying after would re-log the replayed records.
        """
        self.wal = wal

    def _wal_append(self, op: str, u: int, v: int) -> None:
        """Make the update durable before any in-RAM state changes.

        Runs after validation (a rejected update must not be logged)
        and before the repair — the write-ahead contract: once the
        label store mutates, the record is already on stable storage
        (under the log's fsync policy).
        """
        if self.wal is not None:
            self.wal.append(op, u, v)

    def insert_edge(self, u: int, v: int) -> List[int]:
        """Insert an undirected edge and repair labels incrementally.

        Args:
            u, v: endpoints; the edge must not already exist.

        Returns:
            The list of landmark vertex ids whose pruned BFS was rerun
            (useful for instrumentation; empty when the edge was a
            same-level chord affecting no landmark).
        """
        graph, _, _ = self._require_built()
        graph.validate_vertex(u)
        graph.validate_vertex(v)
        if u == v:
            raise ValueError("self loops are not allowed")
        if graph.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already exists")

        affected = self._affected_landmarks(u, v)
        self._wal_append("insert_edge", u, v)
        new_graph = graph.with_edges_added([(u, v)])
        return self._apply_update(new_graph, affected)

    def delete_edge(self, u: int, v: int) -> List[int]:
        """Delete an undirected edge and repair labels incrementally.

        Distances from an affected landmark may *grow* (or become
        infinite), but the rerun pruned BFS recomputes them exactly on
        the new graph; unaffected landmarks had no shortest path through
        the edge, so their runs are provably unchanged (module
        docstring). The repair reuses the oracle's configured stacked
        engine settings, like :meth:`insert_edge`.

        Returns:
            The list of landmark vertex ids whose pruned BFS was rerun,
            mirroring :meth:`insert_edge`.
        """
        graph, _, _ = self._require_built()
        if not graph.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) does not exist")
        affected = self._affected_landmarks(u, v)
        self._wal_append("delete_edge", u, v)
        new_graph = graph.with_edges_removed([(u, v)])
        return self._apply_update(new_graph, affected)

    def save(self, path) -> int:
        """Persist the index; an attached WAL is truncated afterwards.

        ``save_oracle`` is atomic and fsynced, so when it returns the
        snapshot durably contains every logged update and the log's
        records are redundant. A crash *between* the save and the
        truncation is harmless: replay is idempotent against a snapshot
        that already contains the logged updates (module docstring of
        :mod:`repro.core.wal`).
        """
        written = super().save(path)
        if self.wal is not None:
            self.wal.truncate()
        return written

    # -- Internals -----------------------------------------------------------

    def _apply_update(self, new_graph: Graph, affected: List[int]) -> List[int]:
        if affected:
            self._repair(new_graph, affected)
        self.graph = new_graph
        self._batch_engine = None  # engine snapshots graph + labels
        return affected

    def _distances_from_landmarks(self, vertex: int) -> np.ndarray:
        """Exact ``d(r, x)`` for *every* landmark ``r`` in one shot.

        One broadcast of ``L(x)`` against the highway matrix (the
        vectorized form of the landmark-to-vertex query), so the
        affected-set test reads ``L(x)`` once instead of once per
        landmark.
        """
        highway = self.highway
        if self._landmark_mask[vertex]:
            return highway.matrix[highway.index_of[int(vertex)]]
        idx, dist = self.labelling.label_arrays(vertex)
        if len(idx) == 0:
            return np.full(highway.num_landmarks, np.inf)
        return (highway.matrix[:, idx] + dist.astype(np.int64)).min(axis=1)

    def _affected_landmarks(self, u: int, v: int) -> List[int]:
        """Landmarks whose shortest-path DAG the edge update can change."""
        du = self._distances_from_landmarks(u)
        dv = self._distances_from_landmarks(v)
        # du != dv includes the inf vs finite (re/disconnection) case.
        return [int(r) for r in self.highway.landmarks[du != dv]]

    def _repair(self, new_graph: Graph, affected: List[int]) -> None:
        """Rerun the pruned BFSs of all affected landmarks in one stacked
        pass and splice the new runs into the landmark-major store —
        O(affected entries); unaffected landmarks are never touched."""
        store = self.labelling.as_landmark_major()
        highway = self.highway
        landmark_ids = highway.landmarks
        mask = self._landmark_mask
        affected_set = {int(r) for r in affected}
        # Roots in landmark-index order, so slots align with the passes.
        indices = [
            index for index, r in enumerate(landmark_ids) if int(r) in affected_set
        ]
        # Honour the oracle's configured memory bound, as build() does.
        chunk = self.chunk_size or DEFAULT_CHUNK_SIZE
        for start in range(0, len(indices), chunk):
            batch = indices[start : start + chunk]
            per_vertices, per_distances, rows = stacked_pruned_bfs(
                new_graph, landmark_ids[batch], mask, landmark_ids
            )
            for slot, index in enumerate(batch):
                store.set_landmark_result(
                    index, per_vertices[slot], per_distances[slot]
                )
                highway.set_row(int(landmark_ids[index]), rows[slot])
        # Honour the configured backend: an explicit store="vertex" oracle
        # keeps its query-optimal layout at the cost of one transpose per
        # update (the landmark-major default splices with no transpose).
        self.labelling = (
            store if self.store == "landmark" else store.as_vertex_major()
        )
