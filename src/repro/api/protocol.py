"""The capability-based oracle protocol — the library's public contract.

Every distance-query method in this repository — HL itself, the dynamic
HL extension, and all the paper's baselines — speaks the same layered
protocol:

* :class:`DistanceOracle` is the **core**: ``build`` / ``query`` plus
  the Table 2-3 accounting (``size_bytes`` / ``average_label_size``)
  and :meth:`~DistanceOracle.capabilities` introspection.
* Optional **capability layers** extend the core: bulk queries
  (:class:`BatchQueries`), incremental edge updates
  (:class:`DynamicUpdates`), on-disk snapshots (:class:`Snapshotable`)
  and witness-path recovery (:class:`PathReconstruction`).

Callers negotiate through :meth:`~DistanceOracle.capabilities` — a
frozenset of :class:`Capability` values — instead of ``hasattr``
guessing: an oracle advertises a capability if and only if the
corresponding methods exist *and* honour the layer's contract (the
conformance suite in ``tests/test_api_conformance.py`` asserts this for
every registered method).

Contracts the layers pin down:

* ``query`` returns the exact shortest-path distance, ``inf`` when the
  endpoints are disconnected, ``0.0`` when ``s == t``.
* ``size_bytes`` / ``average_label_size`` are **total functions**:
  index-free (online) methods return 0 rather than raising — the zero
  is Table 2's actual cell for Bi-BFS — and indexed methods may raise
  :class:`~repro.errors.NotBuiltError` only before ``build``.
* ``query_many`` (:data:`Capability.BATCH`) must equal a loop of
  ``query`` over the rows, elementwise and exactly.
* ``insert_edge`` / ``delete_edge`` (:data:`Capability.DYNAMIC`) must
  leave the oracle answering exactly on the updated graph. Partial
  support (e.g. FD's insert-only repair) must **not** advertise the
  capability — the methods may still exist.
* ``save`` (:data:`Capability.SNAPSHOT`) must produce a file that
  :func:`repro.api.open_oracle` restores to an oracle with identical
  answers.
* ``shortest_path`` (:data:`Capability.PATHS`) returns a witness path
  whose hop count equals ``query(s, t)``, or ``None`` when disconnected.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.graphs.graph import Graph


class Capability(enum.Enum):
    """The optional layers an oracle can advertise on top of the core."""

    #: ``query_many(pairs)`` answers an ``(k, 2)`` batch, identically to
    #: looping ``query``.
    BATCH = "batch"
    #: ``insert_edge(u, v)`` / ``delete_edge(u, v)`` maintain exactness
    #: under edge updates.
    DYNAMIC = "dynamic"
    #: ``save(path)`` persists the index; ``open_oracle(graph, index=...)``
    #: restores it.
    SNAPSHOT = "snapshot"
    #: ``shortest_path(s, t)`` recovers a witness path for the distance.
    PATHS = "paths"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Capability.{self.name}"


#: All capability values, in a stable display order (README matrix order).
ALL_CAPABILITIES = (
    Capability.BATCH,
    Capability.DYNAMIC,
    Capability.SNAPSHOT,
    Capability.PATHS,
)


@runtime_checkable
class DistanceOracle(Protocol):
    """The core protocol every distance-query method satisfies."""

    name: str

    def build(self, graph: Graph) -> "DistanceOracle":
        """Precompute the index (a graph-capture no-op for online methods)."""
        ...

    def query(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        ...

    def size_bytes(self) -> int:
        """Index size in bytes under the paper's accounting (0 if index-free)."""
        ...

    def average_label_size(self) -> float:
        """Average label entries per vertex (0.0 if index-free)."""
        ...

    def capabilities(self) -> frozenset:
        """The :class:`Capability` layers this oracle honours."""
        ...


@runtime_checkable
class BatchQueries(Protocol):
    """Capability layer: bulk pair queries (``Capability.BATCH``)."""

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Exact distances for an ``(k, 2)`` pair array, row for row."""
        ...


@runtime_checkable
class DynamicUpdates(Protocol):
    """Capability layer: edge insertions *and* deletions (``Capability.DYNAMIC``)."""

    def insert_edge(self, u: int, v: int) -> Sequence[int]:
        """Insert an edge, repairing the index to exactness on the new graph."""
        ...

    def delete_edge(self, u: int, v: int) -> Sequence[int]:
        """Delete an edge, repairing the index to exactness on the new graph."""
        ...


@runtime_checkable
class Snapshotable(Protocol):
    """Capability layer: on-disk persistence (``Capability.SNAPSHOT``)."""

    def save(self, path) -> int:
        """Write the index to ``path``; returns bytes written."""
        ...


@runtime_checkable
class PathReconstruction(Protocol):
    """Capability layer: witness paths (``Capability.PATHS``)."""

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """A witness path whose hop count equals ``query(s, t)``, or ``None``."""
        ...


def capabilities_of(oracle) -> frozenset:
    """The capability set of any oracle (empty for foreign objects)."""
    probe = getattr(oracle, "capabilities", None)
    if probe is None:
        return frozenset()
    return frozenset(probe())


class BatchFallback:
    """Mixin granting any oracle a correct ``query_many`` by looping ``query``.

    The baselines answer pairs one at a time; this adapter gives them the
    :data:`Capability.BATCH` surface — same validation, same dtype, same
    answers as the vectorized HL engine, minus the speed — so bulk
    callers (the experiment harness, :class:`~repro.serving.DistanceService`)
    never branch on method identity.

    Requires the host class to expose ``query`` and a built ``graph``
    attribute (every oracle in this repository stores one).
    """

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Exact distances for an ``(k, 2)`` pair array, via looped ``query``."""
        from repro.core.batch_engine import as_pair_array
        from repro.errors import NotBuiltError

        graph = getattr(self, "graph", None)
        if graph is None:
            raise NotBuiltError("call build(graph) before querying")
        pairs = as_pair_array(pairs, graph.num_vertices)
        out = np.empty(len(pairs), dtype=float)
        query = self.query
        for i, (s, t) in enumerate(pairs):
            out[i] = query(int(s), int(t))
        return out
