"""Shared contracts of the kernel layer: backend ABC, state, workspace.

Three things every backend agrees on:

* :class:`KernelBackend` — the four hot-loop operations (highway-row
  decode, label-intersection upper bound, bounded bidirectional BFS,
  grouped multi-target BFS) plus metadata (``compiled``,
  ``releases_gil``) the docs and tests introspect.
* :class:`LabelState` — the canonical, backend-agnostic form of a built
  labelling: int64 offsets/ids, float64 distances, C-contiguous float64
  highway matrix. Built once per frozen labelling and cached in a
  ``WeakKeyDictionary`` keyed on the frozen vertex-major view — every
  label-store mutation (the dynamic repair splice) invalidates that view,
  so a stale state can never be consulted.
* :class:`Workspace` — reusable per-thread scratch buffers for the
  search kernels (the ``side`` bitmap, two BFS queues, a level array),
  allocated once through the patchable :func:`scratch_alloc` hook so the
  test suite can count O(n) allocations and assert that steady-state
  point queries make none.

Workspace invariants between calls: ``side`` is all-zero and ``levels``
is all ``-1``; every kernel resets exactly the entries it touched before
returning (including on the early-exit paths).
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional

import numpy as np

__all__ = [
    "KernelBackend",
    "LabelState",
    "Workspace",
    "get_label_state",
    "get_workspace",
    "scratch_alloc",
]


def scratch_alloc(n: int, dtype) -> np.ndarray:
    """Allocate one zeroed O(n) scratch buffer.

    Every O(n) allocation the kernel layer makes on the point-query path
    funnels through this hook, so tests can monkeypatch it with a
    counting shim and assert the steady state allocates nothing.
    """
    return np.zeros(n, dtype=dtype)


class Workspace:
    """Reusable scratch buffers for the search kernels, sized to one graph.

    Attributes:
        n: number of vertices the buffers are sized for.
        side: ``int8[n]`` visit bitmap of the bidirectional search
            (0 = unvisited, 1 = source wave, 2 = target wave); all-zero
            between calls.
        queue_a, queue_b: ``int64[n]`` BFS queues (a vertex enters a
            queue at most once per search, so ``n`` slots always fit).
        levels: ``int32[n]`` BFS level per vertex for the multi-target
            kernel; all ``-1`` between calls.
    """

    __slots__ = (
        "n", "side", "queue_a", "queue_b", "levels",
        "side_addr", "queue_a_addr", "queue_b_addr", "levels_addr",
    )

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self.side = scratch_alloc(self.n, np.int8)
        self.queue_a = scratch_alloc(self.n, np.int64)
        self.queue_b = scratch_alloc(self.n, np.int64)
        self.levels = scratch_alloc(self.n, np.int32)
        self.levels.fill(-1)
        # Raw base addresses, precomputed once: ``ndarray.ctypes`` builds a
        # fresh accessor object per use, which native backends would
        # otherwise pay on every point query. Safe to cache — the buffers
        # live exactly as long as the workspace and are never reallocated.
        self.side_addr = self.side.ctypes.data
        self.queue_a_addr = self.queue_a.ctypes.data
        self.queue_b_addr = self.queue_b.ctypes.data
        self.levels_addr = self.levels.ctypes.data


_tls = threading.local()


def get_workspace(n: int) -> Workspace:
    """The calling thread's :class:`Workspace` for an ``n``-vertex graph.

    One workspace per (thread, graph size) — repeated point queries on
    the same graph reuse the same buffers, which is what turns the
    per-query O(n) ``side`` allocation into a one-time cost.
    """
    spaces = getattr(_tls, "spaces", None)
    if spaces is None:
        spaces = _tls.spaces = {}
    ws = spaces.get(n)
    if ws is None:
        ws = spaces[n] = Workspace(n)
    return ws


class LabelState:
    """A built labelling + highway in the canonical kernel layout.

    Attributes:
        offsets: ``int64[n + 1]`` CSR row pointers into the label arrays.
        ids: ``int64[total]`` landmark *indices* per label entry.
        dists: ``float64[total]`` label distances (float64 keeps every
            backend's arithmetic bit-identical; graph distances are small
            integers, exactly representable).
        matrix: ``float64[k, k]`` C-contiguous highway matrix ``δH``.
    """

    __slots__ = (
        "offsets", "ids", "dists", "matrix", "_matrix_source",
        "ids_addr", "dists_addr", "matrix_addr",
    )

    def __init__(self, labelling, highway) -> None:
        self.offsets = np.ascontiguousarray(labelling.offsets, dtype=np.int64)
        self.ids = np.ascontiguousarray(
            labelling.landmark_indices, dtype=np.int64
        )
        self.dists = np.ascontiguousarray(labelling.distances, dtype=np.float64)
        self.matrix = np.ascontiguousarray(highway.matrix, dtype=np.float64)
        self._matrix_source = highway.matrix
        # Raw base addresses for native backends (see Workspace): the
        # arrays above are owned by this state object, so the addresses
        # stay valid for its whole lifetime.
        self.ids_addr = self.ids.ctypes.data
        self.dists_addr = self.dists.ctypes.data
        self.matrix_addr = self.matrix.ctypes.data

    def count(self, vertex: int) -> int:
        """Number of label entries of ``vertex`` (0 = landmark-unreachable)."""
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def slices(self, vertex: int):
        """``(ids, dists)`` views of ``vertex``'s label entries."""
        lo = int(self.offsets[vertex])
        hi = int(self.offsets[vertex + 1])
        return self.ids[lo:hi], self.dists[lo:hi]


#: Frozen vertex-major labelling -> LabelState. Keyed by identity (the
#: label stores hash by id): a dynamic repair splices the landmark-major
#: store and drops its cached frozen view, so the next query freezes a
#: *new* object and builds a fresh state — in-place highway mutations
#: always ride along with a label splice (see ``core/dynamic.py``).
_STATE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def get_label_state(labelling, highway) -> LabelState:
    """The (cached) canonical :class:`LabelState` for a built oracle."""
    frozen = labelling.as_vertex_major()
    state = _STATE_CACHE.get(frozen)
    if state is None or state._matrix_source is not highway.matrix:
        state = LabelState(frozen, highway)
        _STATE_CACHE[frozen] = state
    return state


class KernelBackend:
    """One implementation of the three query hot loops.

    Subclasses implement the four operations below over the canonical
    :class:`LabelState` / CSR arrays. Callers (the oracle, the batch
    engine, the public search wrappers) own all validation and
    short-circuit semantics; kernels only ever see well-formed inputs:
    distinct non-excluded endpoints, positive bounds, canonical dtypes.

    Attributes:
        name: registry name (``"numpy"`` or ``"cext"``).
        compiled: True when the hot loops run as machine code.
        releases_gil: True when the search kernels drop the GIL while
            running (ctypes foreign calls), which is what lets
            thread-per-shard serving scale past one core.
    """

    name: str = "abstract"
    compiled: bool = False
    releases_gil: bool = False

    def decode(self, state: LabelState, r_index: int, vertex: int) -> float:
        """``min over (rj, d) in L(vertex) of δH(r, rj) + d`` — the exact
        landmark-to-vertex distance (Lemma 3.7). ``vertex`` has at least
        one label entry."""
        raise NotImplementedError

    def upper_bound(self, state: LabelState, s: int, t: int) -> float:
        """Equation 4's ``d⊤(s, t)`` over the label cross product.

        Both endpoints have at least one label entry. The common-landmark
        term of Lemma 5.1 is subsumed by the cross product because the
        highway diagonal is zero.
        """
        raise NotImplementedError

    def bounded_distance(
        self,
        csr,
        source: int,
        target: int,
        bound: float,
        excluded: Optional[np.ndarray],
        workspace: Workspace,
    ) -> float:
        """Algorithm 2: ``min(d_{G[V\\R]}(s, t), bound)`` on the CSR graph.

        ``source != target``, neither excluded, ``bound > 1`` (or inf).
        """
        raise NotImplementedError

    def multi_target(
        self,
        csr,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        target_group: np.ndarray,
        bounds: np.ndarray,
        excluded: Optional[np.ndarray],
        workspace: Workspace,
        cells_budget: int = 1 << 26,
    ) -> np.ndarray:
        """Grouped bounded BFS: ``min(d_{G[V\\R]}(src_g, t), bound_t)``
        per ``(group, target)`` query, aligned with ``targets``.

        ``(group, target)`` pairs are distinct, no target equals its
        group's source, no endpoint is excluded. ``cells_budget`` caps
        the flat visited bitmap of the vectorized backend; compiled
        backends (O(n) scratch) ignore it.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
