"""The single construction entry point: ``open_oracle`` / ``build_oracle``.

PRs 1-3 grew several ways to obtain a queryable oracle — direct
``HighwayCoverOracle(...)`` construction with engine/store/mmap knobs,
``load_oracle`` for snapshots, per-baseline constructors, and ad-hoc
wiring in the CLI and experiment harness. This module collapses them
into one declarative surface backed by a method registry:

* :func:`make_oracle` — instantiate an *unbuilt* oracle by method name
  (what the experiment harness needs: it times ``build`` itself).
* :func:`build_oracle` — instantiate **and build** on a graph.
* :func:`open_oracle` — the do-what-I-mean entry point: takes a
  :class:`~repro.graphs.graph.Graph` or an edge-list path, optionally a
  saved index to restore (``index=``, with ``mmap=`` for zero-copy
  loading), and returns a ready-to-query oracle.
* :func:`register_method` — the extension point: new backends register
  a factory once and every caller of the three functions above (CLI,
  harness, serving facade, benchmarks) can name them immediately.

Method names are case-insensitive and accept the paper's spellings
(``"HL(8)"``, ``"IS-L"``, ``"Bi-BFS"``) as aliases of the canonical
lowercase names.

All oracle-class imports happen lazily inside the factories, keeping
``repro.api`` import-light and cycle-free (the oracle modules themselves
import :mod:`repro.api.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.api.protocol import Capability
from repro.graphs.graph import Graph

PathLike = Union[str, Path]
GraphSource = Union[Graph, str, Path]


@dataclass(frozen=True)
class MethodSpec:
    """One registered distance-query method."""

    name: str
    factory: Callable[..., object]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    #: The declared capability contract: exactly what a
    #: default-configured instance's ``capabilities()`` advertises.
    #: Registry-level negotiation (listings, ``open_oracle``'s snapshot
    #: gate) trusts this field, and the conformance suite asserts it
    #: matches the live instance for every registered method.
    capabilities: frozenset = field(default_factory=frozenset)
    #: Whether ``dynamic=True`` is meaningful for this method.
    supports_dynamic: bool = False


_REGISTRY: Dict[str, MethodSpec] = {}
_ALIASES: Dict[str, str] = {}


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_method(spec: MethodSpec) -> None:
    """Register a method (or replace a registration of the same name)."""
    key = _normalize(spec.name)
    _REGISTRY[key] = spec
    _ALIASES[key] = key
    for alias in spec.aliases:
        _ALIASES[_normalize(alias)] = key


def resolve_method(name: str) -> MethodSpec:
    """The spec registered under ``name`` (canonical or alias, any case)."""
    key = _ALIASES.get(_normalize(name))
    if key is None:
        known = sorted(
            set(_REGISTRY) | {a for a in _ALIASES if a not in _REGISTRY}
        )
        raise KeyError(f"unknown method {name!r}; options: {known}")
    return _REGISTRY[key]


def available_methods() -> List[MethodSpec]:
    """All registered methods, canonical-name sorted."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def make_oracle(
    method: str = "hl",
    *,
    dynamic: bool = False,
    shards: Optional[int] = None,
    kernel: Optional[str] = None,
    **options,
):
    """Instantiate an *unbuilt* oracle for ``method``.

    Args:
        method: registered method name or alias (case-insensitive).
        dynamic: request the incrementally-updatable variant
            (:data:`Capability.DYNAMIC`); raises for methods without one.
        shards: with ``shards >= 2``, return an unbuilt
            :class:`~repro.serving.ShardedDistanceService` — ``build``
            spawns that many worker processes mapping one shared
            snapshot zero-copy. Requires a snapshot-capable method (the
            HL family); the sharded tier is always dynamic-capable, so
            ``dynamic`` is implied. ``None``/1 means the ordinary
            single-process oracle.
        kernel: query kernel backend name for the HL family
            (:mod:`repro.core.kernels`); ``None`` defers to the process
            default (``REPRO_KERNEL`` or auto-detection). Raises for
            methods without a kernel seam (the baselines).
        **options: forwarded to the method's constructor (e.g.
            ``num_landmarks=``, ``engine=``, ``store=``, ``budget_s=``)
            — plus the sharded tier's knobs (``update_mode=``,
            ``cache_size=``, ...) when ``shards`` is given.

    Raises:
        KeyError: unknown method name.
        ValueError: ``dynamic=True`` for a method without a dynamic
            variant, ``shards``/``kernel`` for one without the matching
            seam.
    """
    if shards is not None and shards < 1:
        raise ValueError("shards must be at least 1")
    if shards is not None and shards > 1:
        from repro.serving.sharded import ShardedDistanceService

        return ShardedDistanceService(
            shards, method=method, kernel=kernel, **options
        )
    spec = resolve_method(method)
    if dynamic and not spec.supports_dynamic:
        raise ValueError(
            f"method {spec.name!r} has no dynamic variant; "
            f"only methods with supports_dynamic can take dynamic=True"
        )
    if kernel is not None:
        if Capability.SNAPSHOT not in spec.capabilities:
            raise ValueError(
                f"method {spec.name!r} has no kernel seam; "
                f"kernel= applies to the HL family only"
            )
        options["kernel"] = kernel
    if spec.supports_dynamic:
        return spec.factory(dynamic=dynamic, **options)
    return spec.factory(**options)


def build_oracle(
    source: GraphSource,
    method: str = "hl",
    *,
    dynamic: bool = False,
    shards: Optional[int] = None,
    kernel: Optional[str] = None,
    **options,
):
    """Build an oracle of ``method`` over a graph or edge-list path.

    ``shards >= 2`` builds the index once and serves it from that many
    worker processes (see :func:`make_oracle`).
    """
    graph = as_graph(source)
    return make_oracle(
        method, dynamic=dynamic, shards=shards, kernel=kernel, **options
    ).build(graph)


def open_oracle(
    source: GraphSource,
    *,
    index: PathLike = None,
    method: str = "hl",
    mmap: Optional[bool] = None,
    dynamic: bool = False,
    shards: Optional[int] = None,
    kernel: Optional[str] = None,
    wal: PathLike = None,
    wal_fsync: str = "always",
    **options,
):
    """Obtain a ready-to-query oracle — build fresh or restore a snapshot.

    This is the single entry point the CLI, examples, and serving facade
    construct oracles through.

    Args:
        source: a built :class:`~repro.graphs.graph.Graph`, or the path
            of an edge-list file to read.
        index: optional path of a snapshot written by
            :meth:`~repro.core.query.HighwayCoverOracle.save` (or
            ``save_oracle``); when given, the index is restored instead
            of rebuilt. Only snapshot-capable methods (the HL family)
            can be restored.
        method: method to build when ``index`` is not given.
        mmap: with ``index``, map the label arrays zero-copy instead of
            reading them into RAM (requires a v2 snapshot). Defaults to
            copying loads for single-process oracles and zero-copy
            mapping for sharded serving; pass an explicit ``True`` /
            ``False`` to override either.
        dynamic: return the incrementally-updatable oracle variant. With
            ``index``, the restored state is promoted to a
            :class:`~repro.core.dynamic.DynamicHighwayCoverOracle`.
        shards: with ``shards >= 2``, serve the index from that many
            worker processes behind a
            :class:`~repro.serving.ShardedDistanceService` — with
            ``index``, every worker maps the given snapshot file
            zero-copy by default (``mmap=False`` forces copying
            loads); without, the
            index is built once and spooled. Sharded serving is always
            dynamic-capable, so ``dynamic`` is implied. Service knobs
            (``update_mode=``, ``cache_size=``, ...) pass through
            ``**options``.
        kernel: query kernel backend name (:mod:`repro.core.kernels`).
            Unlike ``**options`` this is *not* a construction knob — it
            applies equally to restored snapshots (``index=``), so it is
            never rejected alongside one.
        wal: optional write-ahead-log path
            (:class:`~repro.core.wal.WriteAheadLog`) making dynamic
            updates crash-durable. An existing log is **replayed on
            open**: the recorded churn is re-applied through the
            O(affected) dynamic repair (torn tails from a crash
            mid-append are repaired; replay is idempotent across the
            publish/truncate window), then the log is attached so
            every later update is logged before it mutates anything.
            ``source`` (and ``index``) must describe the state the log
            was started against. Implies ``dynamic=True``.
        wal_fsync: log durability policy — ``"always"`` (default,
            fsync per append), ``"batch"``, or ``"never"``; see
            :data:`repro.core.wal.FSYNC_POLICIES`.
        **options: forwarded to the method constructor when building.

    Returns:
        A built oracle satisfying :class:`~repro.api.DistanceOracle`.

    Raises:
        ValueError: ``mmap`` without ``index``, constructor options
            alongside a restored ``index`` (single-process and sharded
            alike), or a non-snapshot method with ``index``/``shards``.
        WalError: an existing ``wal`` file that is corrupt (torn tails
            are repaired, checksum mismatches are not), or whose
            records do not fit the graph.
    """
    graph = as_graph(source)
    if shards is not None and shards < 1:
        raise ValueError("shards must be at least 1")
    if shards is not None and shards > 1:
        from repro.serving.sharded import ShardedDistanceService

        return ShardedDistanceService(
            shards,
            method=method,
            index=index,
            mmap=True if mmap is None else mmap,
            kernel=kernel,
            wal=wal,
            wal_fsync=wal_fsync,
            **options,
        ).build(graph)
    mmap = bool(mmap)
    if index is None:
        if mmap:
            raise ValueError("mmap=True requires index= (a saved snapshot)")
        oracle = build_oracle(
            graph,
            method,
            dynamic=dynamic or wal is not None,
            kernel=kernel,
            **options,
        )
        if wal is not None:
            oracle = _replay_and_attach(oracle, wal, wal_fsync)
        return oracle

    spec = resolve_method(method)
    if Capability.SNAPSHOT not in spec.capabilities:
        raise ValueError(
            f"method {spec.name!r} has no snapshot format; "
            f"index= applies to the HL family only"
        )
    if options:
        raise ValueError(
            f"constructor options {sorted(options)} are ignored when "
            f"restoring index={str(index)!r}; drop them"
        )
    from repro.core.serialization import load_oracle

    oracle = load_oracle(graph, index, mmap=mmap)
    if kernel is not None:
        oracle.set_kernel(kernel)
    # Naming the dynamic method is as good as dynamic=True: restoring
    # "hl-dyn" must yield an oracle that honours Capability.DYNAMIC.
    if dynamic or wal is not None or Capability.DYNAMIC in spec.capabilities:
        oracle = _promote_dynamic(oracle)
    if wal is not None:
        oracle = _replay_and_attach(oracle, wal, wal_fsync)
    return oracle


def as_graph(source: GraphSource) -> Graph:
    """Coerce a graph source to a :class:`Graph`.

    Accepts a ``Graph`` instance, an edge-list text path, or a
    disk-backed CSR (``.rpdc``) path — the latter is sniffed by magic
    and opened as a zero-copy memmap
    (:func:`~repro.graphs.disk_csr.open_disk_csr`), so a graph produced
    by ``repro ingest`` plugs into every oracle factory unchanged.
    """
    if isinstance(source, Graph):
        return source
    if isinstance(source, (str, Path)):
        from repro.graphs.disk_csr import is_disk_csr, open_disk_csr
        from repro.graphs.io import read_edge_list

        if is_disk_csr(source):
            return open_disk_csr(source, mmap=True)
        return read_edge_list(source)
    raise TypeError(
        f"expected a Graph or an edge-list path, got {type(source).__name__}"
    )


def _promote_dynamic(oracle):
    """Rehost a restored static oracle as a dynamic one.

    The label store converts to the update-optimal landmark-major
    backend (copying — which also detaches any mmap'ed arrays, since
    repairs must write).
    """
    from repro.core.dynamic import DynamicHighwayCoverOracle

    dyn = DynamicHighwayCoverOracle(
        num_landmarks=oracle.num_landmarks,
        landmarks=[int(r) for r in oracle.highway.landmarks],
        engine=oracle.engine,
        chunk_size=oracle.chunk_size,
        kernel=oracle.kernel,
    )
    dyn.graph = oracle.graph
    dyn.labelling = oracle.labelling.as_landmark_major()
    dyn.highway = oracle.highway
    dyn._landmark_mask = oracle._landmark_mask
    dyn.construction_seconds = oracle.construction_seconds
    return dyn


def _replay_and_attach(oracle, wal_path, fsync: str):
    """Open (or create) a WAL, replay its churn, attach it for appends.

    Order matters: replay runs against the *detached* oracle (an
    attached log would re-append its own records), and attachment
    happens only after every record is re-applied — from then on each
    ``insert_edge``/``delete_edge`` is logged before it mutates.
    """
    from repro.core.wal import WriteAheadLog, replay_into

    log = WriteAheadLog(wal_path, fsync=fsync)
    try:
        replay_into(oracle, log.records())
    except BaseException:
        log.close()
        raise
    oracle.attach_wal(log)
    return oracle


# -- Built-in registrations ---------------------------------------------------


def _make_hl(dynamic: bool = False, **options):
    from repro.core.dynamic import DynamicHighwayCoverOracle
    from repro.core.query import HighwayCoverOracle

    cls = DynamicHighwayCoverOracle if dynamic else HighwayCoverOracle
    return cls(**options)


def _make_hl_parallel(dynamic: bool = False, **options):
    options.setdefault("parallel", True)
    return _make_hl(dynamic=dynamic, **options)


def _make_hl_compressed(dynamic: bool = False, **options):
    options.setdefault("codec", "u8")
    return _make_hl(dynamic=dynamic, **options)


def _make_hl_dynamic(dynamic: bool = True, **options):
    return _make_hl(dynamic=True, **options)


def _lazy(module: str, cls: str) -> Callable[..., object]:
    def factory(**options):
        """Instantiate the lazily-imported oracle class."""
        import importlib

        return getattr(importlib.import_module(module), cls)(**options)

    return factory


_HL_CAPS = frozenset(
    {Capability.BATCH, Capability.SNAPSHOT, Capability.PATHS}
)
_BATCH_ONLY = frozenset({Capability.BATCH})

register_method(
    MethodSpec(
        name="hl",
        factory=_make_hl,
        description="Highway cover labelling (the paper's HL)",
        aliases=("HL",),
        capabilities=_HL_CAPS,
        supports_dynamic=True,
    )
)
register_method(
    MethodSpec(
        name="hl-p",
        factory=_make_hl_parallel,
        description="HL with landmark-parallel construction (HL-P)",
        aliases=("HL-P", "hlp"),
        capabilities=_HL_CAPS,
        supports_dynamic=True,
    )
)
register_method(
    MethodSpec(
        name="hl8",
        factory=_make_hl_compressed,
        description="HL with 8-bit compressed labels (HL(8))",
        aliases=("HL(8)", "hl(8)", "hl-8"),
        capabilities=_HL_CAPS,
        supports_dynamic=True,
    )
)
register_method(
    MethodSpec(
        name="hl-dyn",
        factory=_make_hl_dynamic,
        description="HL with incremental edge insertion/deletion repair",
        aliases=("HL-dyn", "dynamic"),
        capabilities=_HL_CAPS | {Capability.DYNAMIC},
        supports_dynamic=True,
    )
)
register_method(
    MethodSpec(
        name="fd",
        factory=_lazy("repro.baselines.fd", "FullyDynamicOracle"),
        description="FD: landmark SPTs + bit-parallel masks (Hayashi et al.)",
        aliases=("FD",),
        capabilities=_BATCH_ONLY,
    )
)
register_method(
    MethodSpec(
        name="pll",
        factory=_lazy("repro.baselines.pll", "PrunedLandmarkLabelling"),
        description="PLL: pruned 2-hop cover (Akiba et al.)",
        aliases=("PLL",),
        capabilities=_BATCH_ONLY,
    )
)
register_method(
    MethodSpec(
        name="isl",
        factory=_lazy("repro.baselines.isl", "ISLabelOracle"),
        description="IS-L: independent-set hierarchy + core search (Fu et al.)",
        aliases=("IS-L",),
        capabilities=_BATCH_ONLY,
    )
)
register_method(
    MethodSpec(
        name="alt",
        factory=_lazy("repro.baselines.alt", "ALTOracle"),
        description="ALT: A* with landmark lower bounds (Goldberg & Harrelson)",
        aliases=("ALT",),
        capabilities=_BATCH_ONLY,
    )
)
register_method(
    MethodSpec(
        name="bfs",
        factory=_lazy("repro.baselines.online", "BFSOracle"),
        description="Online unidirectional BFS (index-free)",
        aliases=("BFS",),
        capabilities=_BATCH_ONLY,
    )
)
register_method(
    MethodSpec(
        name="bibfs",
        factory=_lazy("repro.baselines.online", "BiBFSOracle"),
        description="Online bidirectional BFS (index-free; Table 2's Bi-BFS)",
        aliases=("Bi-BFS", "bi-bfs"),
        capabilities=_BATCH_ONLY,
    )
)
register_method(
    MethodSpec(
        name="dijkstra",
        factory=_lazy("repro.baselines.online", "DijkstraOracle"),
        description="Online early-terminating Dijkstra (index-free)",
        aliases=("Dijkstra",),
        capabilities=_BATCH_ONLY,
    )
)
