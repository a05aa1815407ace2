"""The querying framework (Section 4): the method the paper calls **HL**.

:class:`HighwayCoverOracle` ties together the offline component (highway
cover labelling, Algorithm 1) and the online component (distance-bounded
bidirectional search, Algorithm 2). By Theorem 4.6 the combination returns
exact distances for every vertex pair.

Vertex-class handling (all proven exact):

* ``s == t`` — zero.
* both landmarks — highway lookup ``δH(s, t)``.
* one landmark ``r``, one vertex ``v`` — take the landmark on a shortest
  ``r``–``v`` path that is closest to ``v``; by Lemma 3.7 the pruned BFS
  labelled ``v`` from that landmark, hence
  ``d(r, v) = min over (rj, d) in L(v) of δH(r, rj) + d`` exactly.
* two non-landmarks — ``d⊤`` upper bound (Eq. 4 / Lemma 5.1), then
  Algorithm 2 on the sparsified graph ``G[V \\ R]``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.api.protocol import Capability
from repro.core.bounds import upper_bound_distance
from repro.core.compression import LabelCodec, encoded_size_bytes
from repro.core.construction import build_highway_cover_labelling
from repro.core.highway import Highway
from repro.core.kernels import (
    KernelBackend,
    get_label_state,
    get_workspace,
    resolve_kernel,
)
from repro.core.labels import LabelStore
from repro.core.parallel import build_highway_cover_labelling_parallel
from repro.errors import NotBuiltError
from repro.graphs.graph import Graph
from repro.landmarks.selection import select_landmarks


class HighwayCoverOracle:
    """Exact distance oracle backed by highway cover labelling.

    This is the library's flagship object — **HL** in the paper, **HL-P**
    with ``parallel=True``, **HL(8)** with ``codec="u8"``.

    Args:
        num_landmarks: size of the landmark set ``R`` (the paper uses 20
            for Tables 2-3 and sweeps 10-50 in Figures 7-9).
        landmark_strategy: how to pick landmarks; the paper uses
            ``"degree"`` (top degrees). See :mod:`repro.landmarks`.
        parallel: construct labels with the landmark-parallel builder
            (Section 5.1, HL-P). Labels are identical by Lemma 3.11.
        codec: label storage codec for byte accounting: ``"u32"``
            reproduces the baselines' 32+8-bit entries, ``"u8"`` is the
            paper's HL(8) compression (8+8 bits).
        budget_s: optional construction budget (DNF reporting).
        workers: worker count for ``parallel=True``.
        engine: sequential construction engine — ``"stacked"``
            (default, the bit-parallel HL-C engine) or ``"looped"``
            (one pruned BFS per landmark). Byte-identical output.
        chunk_size: landmarks advanced per stacked pass (bounds
            construction memory; also the per-worker unit for
            ``parallel=True``).
        store: label-store backend — ``"vertex"`` (frozen CSR,
            query-optimal; the base oracle's default) or ``"landmark"``
            (mutable landmark-major runs, update-optimal; the dynamic
            oracle's default). ``None`` picks the class default. See
            :mod:`repro.core.labels`.
        kernel: query kernel backend name (``"numpy"`` or ``"cext"``).
            ``None`` defers to the process default (``REPRO_KERNEL`` or
            auto-detection); see
            :mod:`repro.core.kernels`. All backends are byte-identical —
            this is purely a performance switch.

    Example:
        >>> from repro.graphs import barabasi_albert_graph
        >>> g = barabasi_albert_graph(300, 3, seed=7)
        >>> oracle = HighwayCoverOracle(num_landmarks=10).build(g)
        >>> d = oracle.query(3, 250)
    """

    name = "HL"
    default_store = "vertex"
    #: Advertised capability layers (see :mod:`repro.api.protocol`):
    #: vectorized batching, on-disk snapshots, witness-path recovery.
    CAPABILITIES = frozenset(
        {Capability.BATCH, Capability.SNAPSHOT, Capability.PATHS}
    )

    def capabilities(self) -> frozenset:
        """The :class:`~repro.api.Capability` layers this oracle honours."""
        return self.CAPABILITIES

    def __init__(
        self,
        num_landmarks: int = 20,
        landmark_strategy: str = "degree",
        parallel: bool = False,
        codec: str = "u32",
        budget_s: Optional[float] = None,
        workers: Optional[int] = None,
        landmarks: Optional[Sequence[int]] = None,
        engine: str = "stacked",
        chunk_size: Optional[int] = None,
        store: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self.num_landmarks = num_landmarks
        self.landmark_strategy = landmark_strategy
        self.parallel = parallel
        self.codec = LabelCodec(codec)
        self.budget_s = budget_s
        self.workers = workers
        self.engine = engine
        self.chunk_size = chunk_size
        self.store = store if store is not None else self.default_store
        if self.store not in ("vertex", "landmark"):
            raise ValueError(f"unknown label store backend {self.store!r}")
        if kernel is not None:
            resolve_kernel(kernel)  # fail fast on unknown/unavailable names
        self.kernel = kernel
        self._explicit_landmarks = list(landmarks) if landmarks is not None else None
        self.graph: Optional[Graph] = None
        self.labelling: Optional[LabelStore] = None
        self.highway: Optional[Highway] = None
        self._landmark_mask: Optional[np.ndarray] = None
        self._batch_engine = None
        self.construction_seconds: float = 0.0

    # -- Offline phase -------------------------------------------------------

    def build(self, graph: Graph) -> "HighwayCoverOracle":
        """Select landmarks and run Algorithm 1 (or HL-P)."""
        from repro.utils.timing import Stopwatch

        if self._explicit_landmarks is not None:
            landmark_ids = [int(v) for v in self._explicit_landmarks]
        else:
            landmark_ids = select_landmarks(
                graph, self.num_landmarks, strategy=self.landmark_strategy
            )
        with Stopwatch() as sw:
            if self.parallel:
                labelling, highway = build_highway_cover_labelling_parallel(
                    graph,
                    landmark_ids,
                    budget_s=self.budget_s,
                    workers=self.workers,
                    chunk_size=self.chunk_size,
                    store=self.store,
                )
            else:
                labelling, highway = build_highway_cover_labelling(
                    graph,
                    landmark_ids,
                    budget_s=self.budget_s,
                    engine=self.engine,
                    chunk_size=self.chunk_size,
                    store=self.store,
                )
        self.construction_seconds = sw.elapsed
        self.graph = graph
        self.labelling = labelling
        self.highway = highway
        self._landmark_mask = highway.landmark_mask(graph.num_vertices)
        self._batch_engine = None
        self.codec.validate(labelling, highway)
        return self

    # -- Online phase ----------------------------------------------------------

    def query(self, s: int, t: int) -> float:
        """Exact shortest-path distance ``dG(s, t)`` (Theorem 4.6)."""
        graph, labelling, highway = self._require_built()
        graph.validate_vertex(s)
        graph.validate_vertex(t)
        if s == t:
            return 0.0
        s_is_landmark = bool(self._landmark_mask[s])
        t_is_landmark = bool(self._landmark_mask[t])
        if s_is_landmark and t_is_landmark:
            return highway.distance(s, t)
        if s_is_landmark:
            return self._landmark_to_vertex(s, t)
        if t_is_landmark:
            return self._landmark_to_vertex(t, s)
        return self._nonlandmark_pair(s, t)[1]

    def query_many(self, pairs, return_coverage: bool = False):
        """Exact distances for an ``(k, 2)`` array of pairs, vectorized.

        Semantically identical to looping :meth:`query` over the rows —
        asserted bitwise by the test suite — but answered by the batch
        engine: one vectorized bound computation over the flattened label
        arrays, short circuits for trivially-exact pairs, and one grouped
        multi-target bounded BFS per distinct source vertex.

        Args:
            pairs: integer array of shape ``(k, 2)``.
            return_coverage: also return the boolean "covered" mask
                (bound == exact), the statistic Figure 9 plots.

        Returns:
            float distance array of length ``k`` (``inf`` for unreachable
            pairs); with ``return_coverage=True``, a ``(distances,
            covered)`` tuple.
        """
        distances, covered = self.batch_engine().query_many(
            pairs, return_coverage=return_coverage
        )
        if return_coverage:
            return distances, covered
        return distances

    def batch_engine(self):
        """The cached :class:`~repro.core.batch_engine.BatchQueryEngine`."""
        self._require_built()
        if self._batch_engine is None:
            from repro.core.batch_engine import BatchQueryEngine

            self._batch_engine = BatchQueryEngine.from_oracle(self)
        return self._batch_engine

    def upper_bound(self, s: int, t: int) -> float:
        """The offline-only estimate ``d⊤(s, t)`` (admissible upper bound)."""
        _, labelling, highway = self._require_built()
        if s == t:
            return 0.0
        if self._landmark_mask[s] and self._landmark_mask[t]:
            return highway.distance(s, t)
        if self._landmark_mask[s]:
            return self._landmark_to_vertex(s, t)
        if self._landmark_mask[t]:
            return self._landmark_to_vertex(t, s)
        return upper_bound_distance(labelling, highway, s, t, kernel=self.kernel)

    def is_covered(self, s: int, t: int) -> bool:
        """True iff the labels alone answer the pair exactly.

        "Covered" pairs (Figure 9) are those whose upper bound is realized
        by a shortest path through a landmark; we detect them as pairs
        where the bounded search cannot improve on the bound. The bound is
        computed once and compared against the search result directly —
        trivially-covered classes (same vertex, landmark pairs,
        disconnected pairs) never search at all.
        """
        graph, _, _ = self._require_built()
        graph.validate_vertex(s)
        graph.validate_vertex(t)
        if s == t:
            return True
        if self._landmark_mask[s] or self._landmark_mask[t]:
            # Landmark-class answers *are* label lookups: bound == query.
            return True
        bound, dist = self._nonlandmark_pair(s, t)
        return dist == bound

    def _nonlandmark_pair(self, s: int, t: int) -> tuple:
        """``(d⊤, dG)`` for two distinct non-landmark vertices.

        The single place Equation 4 meets Algorithm 2. Short-circuits
        before any search:

        * one label empty, the other not — the empty side's vertex sits in
          a landmark-free component, the other side can reach a landmark,
          so the two are disconnected: ``(inf, inf)`` with no search;
        * both labels non-empty but ``d⊤ = inf`` — every landmark pair
          fails to connect them, which (labels being shortest-path exact)
          means different components: ``(inf, inf)`` with no search;
        * both labels empty — both vertices live in landmark-free
          components where the sparsified graph *is* the true graph, so
          one unbounded sparsified search decides the pair.
        """
        graph, labelling, highway = self._require_built()
        backend = self.kernel_backend
        state = get_label_state(labelling, highway)
        empty_s = state.count(s) == 0
        empty_t = state.count(t) == 0
        if empty_s != empty_t:
            return float("inf"), float("inf")
        if empty_s:  # and empty_t
            dist = backend.bounded_distance(
                graph.csr,
                int(s),
                int(t),
                float("inf"),
                self._landmark_mask,
                get_workspace(graph.num_vertices),
            )
            return float("inf"), dist
        bound = backend.upper_bound(state, s, t)
        if np.isinf(bound):
            return bound, float("inf")
        if bound == 1.0:
            # A bound of 1 between distinct vertices is already optimal.
            return 1.0, 1.0
        dist = backend.bounded_distance(
            graph.csr,
            int(s),
            int(t),
            bound,
            self._landmark_mask,
            get_workspace(graph.num_vertices),
        )
        return bound, dist

    @property
    def kernel_backend(self) -> KernelBackend:
        """The resolved :class:`~repro.core.kernels.KernelBackend`.

        Resolved per access from :attr:`kernel` (a registry singleton
        lookup), never stored — backends hold unpicklable handles and the
        oracle must stay picklable for the multiprocessing tiers.
        """
        return resolve_kernel(self.kernel)

    def set_kernel(self, kernel) -> None:
        """Switch the query kernel backend (name, backend, or ``None``).

        Validates eagerly — unknown names raise
        :class:`~repro.errors.KernelError`, unavailable backends
        :class:`~repro.errors.KernelUnavailableError` — and invalidates
        the cached batch engine so it picks up the new backend.
        """
        backend = resolve_kernel(kernel)
        self.kernel = backend.name if kernel is not None else None
        self._batch_engine = None

    def _landmark_to_vertex(self, landmark: int, vertex: int) -> float:
        """Exact ``d(r, v)`` from ``L(v)`` + highway (docstring proof above)."""
        _, labelling, highway = self._require_built()
        state = get_label_state(labelling, highway)
        if state.count(vertex) == 0:
            return float("inf")
        r_index = int(highway.index_of[int(landmark)])
        return self.kernel_backend.decode(state, r_index, int(vertex))

    # -- Capability layers: snapshots and witness paths --------------------------

    def save(self, path) -> int:
        """Persist the built index to ``path`` (``Capability.SNAPSHOT``).

        Restore with ``repro.api.open_oracle(graph, index=path)`` — with
        ``mmap=True`` for zero-copy loading. Returns bytes written.
        """
        from repro.core.serialization import save_oracle

        return save_oracle(self, path)

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """A witness shortest path for ``query(s, t)`` (``Capability.PATHS``).

        Returns the vertex list from ``s`` to ``t`` (``len - 1`` equals
        the exact distance), or ``None`` when disconnected.
        """
        from repro.core.paths import shortest_path

        return shortest_path(self, s, t)

    # -- Reporting ---------------------------------------------------------------

    def size_bytes(self) -> int:
        """Labelling size in bytes under the configured codec (Table 3)."""
        _, labelling, highway = self._require_built()
        return encoded_size_bytes(labelling, highway, self.codec)

    def average_label_size(self) -> float:
        """ALS — average number of entries per label (Table 2)."""
        _, labelling, _ = self._require_built()
        return labelling.average_label_size()

    def _require_built(self):
        if self.graph is None or self.labelling is None or self.highway is None:
            raise NotBuiltError("call build(graph) before querying")
        return self.graph, self.labelling, self.highway

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "-P" if self.parallel else ""
        return f"HighwayCoverOracle(HL{suffix}, k={self.num_landmarks})"
