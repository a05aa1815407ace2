"""Multi-process sharded serving: N workers, one zero-copy snapshot.

:class:`~repro.serving.DistanceService` coalesces concurrent threads
into vectorized micro-batches, but Python's GIL caps one process at a
single core of label-scan throughput per graph. This module is the
horizontal step: :class:`ShardedDistanceService` spawns ``shards``
worker *processes*, every one of which opens the **same immutable v2
snapshot** with ``np.memmap`` — PR 3's 64-byte-aligned format makes
that a zero-copy operation, so N workers share one page-cache copy of
the label arrays instead of holding N RAM copies.

Request flow
------------

* **Point queries** (:meth:`~ShardedDistanceService.query`, pipelined
  :meth:`~ShardedDistanceService.query_async`) first consult the
  in-front :class:`~repro.serving.cache.QueryCache`; misses are
  **hash-routed** by the normalized ``(source, target)`` pair to a
  fixed worker, so a hot pair always lands on the same warm shard. Each
  shard's dispatcher thread drains its pending queries into one
  ``query_many`` task per round trip — the IPC latency itself is the
  coalescing window.
* **Bulk queries** (:meth:`~ShardedDistanceService.query_many`) are
  split into per-worker sub-batches, answered in parallel, and
  reassembled in submission order — byte-identical to the
  single-process path because ``query_many`` is row-independent and
  every worker's snapshot-restored oracle is byte-identical to the
  builder's (pinned by the serialization suite).
* **Dynamic updates** (:meth:`~ShardedDistanceService.insert_edge` /
  :meth:`~ShardedDistanceService.delete_edge`) are applied by the
  parent's writer oracle (the O(affected) dynamic repair), then
  **broadcast to every worker** and acknowledged before the call
  returns. Two propagation modes:

  - ``update_mode="remap"`` (default): the writer publishes a fresh
    snapshot generation through
    :class:`~repro.core.serialization.SnapshotSpool` and workers
    re-map it zero-copy — workers stay memory-constant and never
    repeat the repair work.
  - ``update_mode="repair"``: workers hold dynamic (in-RAM) oracles
    and re-run the O(affected) repair locally — no snapshot I/O, at
    the cost of N repeated repairs and N RAM copies.

  Either way the writer version counter is bumped and the
  :class:`QueryCache` invalidated only after every worker acknowledged,
  so a post-update read can never observe a pre-update distance.

The service satisfies the capability protocol (``query`` /
``query_many`` / ``insert_edge`` / ``delete_edge`` / ``save`` /
``shortest_path`` / ``size_bytes`` / ``capabilities``), so it slots
anywhere an oracle does — including behind a thread-coalescing
:class:`~repro.serving.DistanceService` entry (``service.open(name,
graph, shards=4)``). Construct it through
:func:`repro.api.make_oracle` / :func:`repro.api.open_oracle` with
``shards=N``.

Example::

    from repro.api import open_oracle

    sharded = open_oracle(graph, index="index.hl", shards=4)
    sharded.query(3, 250)            # cached + hash-routed
    sharded.query_many(pairs)        # scattered over 4 processes
    sharded.insert_edge(17, 99)      # broadcast, re-mapped, cache flushed
    sharded.close()
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.api.protocol import Capability
from repro.errors import (
    ReproError,
    ServiceClosedError,
    ShardError,
    VertexError,
)
from repro.graphs.graph import Graph
from repro.serving.cache import QueryCache

__all__ = ["ShardedDistanceService", "route_of"]

#: Odd multiplier for the pair hash (Knuth-style); any odd constant
#: works, this one spreads consecutive vertex ids well.
_HASH_MULT = 0x9E3779B1


def route_of(s: int, t: int, shards: int) -> int:
    """The worker index the normalized pair ``(s, t)`` hash-routes to.

    Deterministic and symmetric (``route_of(s, t) == route_of(t, s)``),
    so a hot pair always lands on the same warm worker regardless of
    query direction.
    """
    u, v = (s, t) if s <= t else (t, s)
    return ((u * _HASH_MULT) ^ v) % shards


# -- Worker process ----------------------------------------------------------


def _worker_main(conn, graph: Graph, snapshot_path: str, use_mmap: bool,
                 dynamic: bool,
                 kernel: Optional[str] = None,
                 threads: Optional[int] = None,
                 ) -> None:  # pragma: no cover - runs in child
    """Entry point of one shard worker process.

    Opens the shared snapshot (zero-copy when ``use_mmap``), optionally
    promotes to the dynamic oracle (``update_mode="repair"``), selects
    the requested query kernel (``kernel`` travels as a name — backends
    hold unpicklable handles and resolve per process), builds the
    worker's :class:`~repro.serving.QueryExecutor` (``threads`` worker
    threads; ``None`` auto-sizes to the CPU count when the kernel
    releases the GIL — N processes × M threads compose), then answers
    request tuples from the parent until told to stop. Replies are
    ``("ok", payload)`` or ``("err", type_name, message)`` — never a
    pickled exception (library exceptions with multi-arg constructors
    do not survive pickling).

    (Excluded from coverage: the body executes in a forked/spawned
    child the parent's tracer cannot see; its behaviour is asserted
    end-to-end by ``tests/test_sharded.py``.)
    """
    from repro.core.serialization import load_oracle
    from repro.serving.executor import QueryExecutor

    try:
        oracle = load_oracle(graph, snapshot_path, mmap=use_mmap)
        if dynamic:
            from repro.api.factory import _promote_dynamic

            oracle = _promote_dynamic(oracle)
        if kernel is not None:
            oracle.set_kernel(kernel)
        executor = QueryExecutor.for_oracle(oracle, threads=threads)
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        # Startup failed (unreadable snapshot, promotion error): answer
        # every request — the parent's fail-fast ping first — with the
        # real diagnostic instead of dying into an opaque EOFError that
        # only reaches the child's stderr.
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message[0] == "stop":
                conn.close()
                return
            conn.send(("err", type(exc).__name__, str(exc)))
    while True:
        try:
            message = conn.recv()
        except EOFError:  # parent died or closed the pipe
            return
        tag = message[0]
        if tag == "stop":
            executor.close()
            conn.close()
            return
        try:
            if tag == "query_many":
                conn.send(
                    ("ok",
                     np.asarray(executor.run(oracle.query_many, message[1])))
                )
            elif tag == "update":
                _, op, u, v, new_path = message
                if new_path is None:
                    # Repair mode: this worker's dynamic oracle redoes the
                    # O(affected) splice locally.
                    affected = getattr(oracle, op)(u, v)
                    conn.send(("ok", affected))
                else:
                    # Re-map mode: drop the old mapping, apply the edge
                    # update to the worker's graph, map the new generation.
                    mutate = (
                        "with_edges_added"
                        if op == "insert_edge"
                        else "with_edges_removed"
                    )
                    new_graph = getattr(oracle.graph, mutate)([(u, v)])
                    oracle = load_oracle(new_graph, new_path, mmap=use_mmap)
                    if kernel is not None:
                        oracle.set_kernel(kernel)
                    conn.send(("ok", None))
            elif tag == "ping":
                conn.send(("ok", {"pid": os.getpid()}))
            elif tag == "stats":
                conn.send(("ok", executor.stats()))
            else:  # pragma: no cover - protocol bug guard
                conn.send(("err", "ProtocolError", f"unknown tag {tag!r}"))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            conn.send(("err", type(exc).__name__, str(exc)))


# -- Parent-side shard handle ------------------------------------------------


class _PointItem:
    """One pending hash-routed point query."""

    __slots__ = ("s", "t", "future", "cache_version")

    def __init__(self, s: int, t: int, cache_version: int) -> None:
        self.s = s
        self.t = t
        self.future: Future = Future()
        self.cache_version = cache_version


class _TaskItem:
    """One pending bulk task (a ``query_many`` chunk or an update)."""

    __slots__ = ("payload", "future")

    def __init__(self, payload: tuple) -> None:
        self.payload = payload
        self.future: Future = Future()


class _Shard:
    """Parent-side handle: process, pipe, outbox, dispatcher thread.

    The dispatcher is the only thread that touches the pipe. It takes
    items off the outbox in FIFO order — a maximal run of point queries
    becomes one ``query_many`` round trip (micro-batching over IPC), a
    bulk task is sent alone — and resolves the items' futures from the
    reply. One request is in flight per shard at a time; queries that
    arrive while it executes accumulate and share the next batch.
    """

    def __init__(self, index: int, process, conn, max_batch: int,
                 on_point_done) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.max_batch = max_batch
        self.on_point_done = on_point_done
        self.lock = threading.Lock()
        self.has_work = threading.Condition(self.lock)
        self.outbox: deque = deque()
        self.closed = False
        self.dead = False
        self.batches = 0
        self.point_queries = 0
        self.dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"shard-{index}", daemon=True
        )
        self.dispatcher.start()

    def submit(self, item) -> Future:
        """Enqueue a point or task item for this shard; returns its future."""
        with self.lock:
            if self.closed:
                raise ServiceClosedError("sharded service is closed")
            if self.dead:
                raise ShardError(
                    f"shard {self.index}: worker died or is out of sync"
                )
            self.outbox.append(item)
            self.has_work.notify()
        return item.future

    def poison(self) -> None:
        """Mark this shard unusable (worker died or missed an update).

        Subsequent :meth:`submit` calls raise :class:`ShardError` —
        failing loudly is the guarantee that a shard which missed an
        update broadcast can never silently serve stale distances.
        """
        with self.lock:
            self.dead = True

    def _next_work(self):
        """Block for work; return a point-query list or a single task."""
        with self.lock:
            while not self.outbox and not self.closed:
                self.has_work.wait()
            if not self.outbox:
                return None
            if isinstance(self.outbox[0], _TaskItem):
                return self.outbox.popleft()
            points: List[_PointItem] = []
            while (
                self.outbox
                and isinstance(self.outbox[0], _PointItem)
                and len(points) < self.max_batch
            ):
                points.append(self.outbox.popleft())
            return points

    def _roundtrip(self, payload: tuple):
        """Send one request and wait for its reply (dispatcher only).

        Raises:
            ShardError: if the worker reported an error or its pipe
                closed (the shard is marked dead in that case).
        """
        try:
            self.conn.send(payload)
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            with self.lock:
                self.dead = True
            raise ShardError(
                f"shard {self.index}: worker died ({exc!r})"
            ) from exc
        if reply[0] == "err":
            raise ShardError(
                f"shard {self.index} ({reply[1]}): {reply[2]}"
            )
        return reply[1]

    def _dispatch_loop(self) -> None:
        while True:
            work = self._next_work()
            if work is None:
                return
            if isinstance(work, _TaskItem):
                if not work.future.set_running_or_notify_cancel():
                    continue
                try:
                    work.future.set_result(self._roundtrip(work.payload))
                except BaseException as exc:  # noqa: BLE001
                    work.future.set_exception(exc)
                continue
            points = [
                p for p in work if p.future.set_running_or_notify_cancel()
            ]
            if not points:
                continue
            pairs = np.empty((len(points), 2), dtype=np.int64)
            for i, p in enumerate(points):
                pairs[i, 0] = p.s
                pairs[i, 1] = p.t
            try:
                distances = self._roundtrip(("query_many", pairs))
            except BaseException as exc:  # noqa: BLE001
                for p in points:
                    p.future.set_exception(exc)
                continue
            with self.lock:
                self.batches += 1
                self.point_queries += len(points)
            for p, value in zip(points, distances):
                self.on_point_done(p, float(value))

    def close(self) -> None:
        """Stop the dispatcher, tell the worker to exit, reap both."""
        with self.lock:
            self.closed = True
            self.has_work.notify_all()
        self.dispatcher.join()
        leftovers = []
        with self.lock:
            while self.outbox:
                item = self.outbox.popleft()
                leftovers.append(item)
        for item in leftovers:
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(
                    ServiceClosedError("sharded service is closed")
                )
        try:
            self.conn.send(("stop",))
        except (OSError, BrokenPipeError):  # pragma: no cover - worker gone
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=10)
        self.conn.close()


# -- The sharded service -----------------------------------------------------


class ShardedDistanceService:
    """Exact distance serving over N worker processes sharing one snapshot.

    Satisfies the :class:`~repro.api.DistanceOracle` protocol (plus the
    BATCH / DYNAMIC / SNAPSHOT / PATHS capability layers), so it can be
    hosted by :class:`~repro.serving.DistanceService` or used directly.
    Construct through :func:`repro.api.make_oracle` /
    :func:`repro.api.open_oracle` with ``shards=N``, or instantiate and
    :meth:`build` like any oracle.

    Args:
        shards: number of worker processes (>= 1).
        method: registered snapshot-capable method name built in the
            parent when no ``index`` is given (the HL family).
        index: optional existing snapshot to serve; workers map it
            directly. Without it, :meth:`build` constructs the index and
            publishes generation 0 into the spool.
        update_mode: ``"remap"`` (default — workers re-map a freshly
            published snapshot generation after each update, staying
            zero-copy) or ``"repair"`` (workers hold dynamic in-RAM
            oracles and repeat the O(affected) repair locally).
        mmap: workers map label arrays zero-copy (default) instead of
            reading them into RAM. Requires v2 snapshots (the default
            everywhere).
        cache_size: capacity of the in-front :class:`QueryCache`
            (0 disables caching).
        max_batch: cap on point queries coalesced into one worker round
            trip.
        start_method: multiprocessing start method; default prefers
            ``"fork"`` (cheap, copy-on-write graph) and falls back to
            the platform default.
        spool_dir: where snapshot generations are written; default is a
            private temporary directory removed on :meth:`close`.
        kernel: query kernel backend name (:mod:`repro.core.kernels`)
            every worker (and the parent's writer) selects; ``None``
            lets each process auto-detect. Travels as a name — backends
            are per-process singletons and never cross the pipe.
        threads: per-worker :class:`~repro.serving.QueryExecutor`
            thread count — every worker process answers its
            ``query_many`` chunks on a pool of this many threads, so N
            shards × M threads compose into N·M concurrent bounded
            searches when the kernel releases the GIL. ``None``
            auto-sizes per worker (``REPRO_THREADS``, else the CPU
            count iff the resolved kernel releases the GIL, else 1).
        wal: optional write-ahead-log path making the writer's updates
            crash-durable. Every ``insert_edge``/``delete_edge`` is
            logged (and fsynced, under the default policy) *before* the
            writer repairs; in ``remap`` mode the log is truncated as
            soon as the freshly published generation — written together
            with a ``gen-*.graph`` sidecar of the post-update graph —
            is durably on disk, so the log only ever holds the
            in-flight window. An existing log is replayed into the
            writer on :meth:`build` (restart = snapshot + replay)
            before generation 0 is published. In ``repair`` mode there
            is no per-update publish, so the log holds all churn since
            the last explicit :meth:`save`.
        wal_fsync: log durability policy (``"always"`` / ``"batch"`` /
            ``"never"``); see :data:`repro.core.wal.FSYNC_POLICIES`.
        **build_options: forwarded to the method factory when building
            (``num_landmarks=``, ``engine=``, ...).

    Raises:
        ValueError: on a non-positive shard count, unknown update mode,
            a method without snapshot support, or build options passed
            alongside an existing ``index`` (which never consults them).
    """

    name = "HL-sharded"
    CAPABILITIES = frozenset(
        {
            Capability.BATCH,
            Capability.DYNAMIC,
            Capability.SNAPSHOT,
            Capability.PATHS,
        }
    )

    def __init__(
        self,
        shards: int = 2,
        *,
        method: str = "hl",
        index=None,
        update_mode: str = "remap",
        mmap: bool = True,
        cache_size: int = 65536,
        max_batch: int = 1024,
        start_method: Optional[str] = None,
        spool_dir=None,
        kernel: Optional[str] = None,
        threads: Optional[int] = None,
        wal=None,
        wal_fsync: str = "always",
        **build_options,
    ) -> None:
        from repro.api.factory import resolve_method

        if shards < 1:
            raise ValueError("shards must be at least 1")
        if update_mode not in ("remap", "repair"):
            raise ValueError(
                f"unknown update_mode {update_mode!r}; use 'remap' or 'repair'"
            )
        spec = resolve_method(method)
        if Capability.SNAPSHOT not in spec.capabilities:
            raise ValueError(
                f"method {spec.name!r} has no snapshot format; sharded "
                f"serving requires one (the HL family)"
            )
        if index is not None and build_options:
            # Same contract as the single-process open_oracle path: a
            # restored snapshot never consults the method constructor,
            # so passing its options would be silently ignored.
            raise ValueError(
                f"constructor options {sorted(build_options)} are ignored "
                f"when serving index={str(index)!r}; drop them"
            )
        if kernel is not None:
            from repro.core.kernels import resolve_kernel

            # Fail fast in the parent; workers re-resolve by name.
            resolve_kernel(kernel)
        if threads is not None and threads < 1:
            raise ValueError("threads must be at least 1 (or None for auto)")
        self.shards = int(shards)
        self.method = spec.name
        self.update_mode = update_mode
        self.mmap = mmap
        self.kernel = kernel
        self.threads = threads
        self.max_batch = max_batch
        self.cache = QueryCache(cache_size)
        self._build_options = build_options
        self._index = None if index is None else Path(index)
        self._start_method = start_method
        self._spool_dir = spool_dir
        self._wal_path = None if wal is None else Path(wal)
        self._wal_fsync = wal_fsync
        self._wal = None
        self._writer = None  # parent-side oracle; dynamic after 1st update
        self._writer_dynamic = False
        self._snapshot_path: Optional[Path] = None
        self._spool = None
        self._workers: List[_Shard] = []
        self._update_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._version = 0
        self._updates_total = 0
        self._bulk_queries_total = 0

    # -- Lifecycle -----------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls, graph: Graph, index, *, shards: int = 2, **options
    ) -> "ShardedDistanceService":
        """Serve an existing snapshot from ``shards`` worker processes.

        Equivalent to ``ShardedDistanceService(shards, index=index,
        **options).build(graph)`` — every worker maps ``index``
        zero-copy, no construction happens.
        """
        return cls(shards, index=index, **options).build(graph)

    def build(self, graph: Graph) -> "ShardedDistanceService":
        """Build (or load) the index in the parent and spawn the workers.

        With ``index=`` the snapshot is served as-is (the parent keeps a
        zero-copy view for accounting and witness paths); otherwise the
        configured method builds the index here and generation 0 is
        published into the spool.

        With ``wal=``, an existing log is replayed into the writer
        first (crash recovery: ``graph``/``index`` must describe the
        state the log was started against), a fresh post-replay
        generation is published — so workers never map a pre-replay
        index — and the log is truncated once that generation is
        durable.

        Returns:
            ``self``, ready to query.

        Raises:
            ReproError: if already built/started.
        """
        from repro.core.serialization import SnapshotSpool, load_oracle

        if self._workers or self._closed:
            raise ReproError("sharded service is already started (or closed)")
        self._spool = SnapshotSpool(self._spool_dir)
        try:
            if self._index is not None:
                self._writer = load_oracle(graph, self._index, mmap=self.mmap)
                if self.kernel is not None:
                    self._writer.set_kernel(self.kernel)
                self._snapshot_path = self._index
            else:
                from repro.api.factory import make_oracle

                self._writer = make_oracle(
                    self.method, kernel=self.kernel, **self._build_options
                ).build(graph)
                self._snapshot_path = None
            if self._wal_path is not None:
                self._recover_from_wal()
            if self._snapshot_path is None:
                self._snapshot_path = self._spool.publish(
                    self._writer, graph=self._wal_path is not None
                )
                if self._wal is not None:
                    # Generation 0 durably contains every replayed
                    # record — the log may be cut.
                    self._wal.truncate()
            self._spawn_workers(self._writer.graph)
        except BaseException:
            # A failed build/spawn (bad snapshot, dead startup ping,
            # Pipe/Process error) must not leak the shards already
            # running or the spool directory.
            self.close()
            raise
        return self

    def _recover_from_wal(self) -> None:
        """Open the log, replay its churn into the writer, attach it.

        Replaying can change the writer's state, so the snapshot the
        workers map must be re-published afterwards:
        ``_snapshot_path`` is reset to force a post-replay publish
        (generation 0 of this incarnation) even when ``index=`` was
        given.
        """
        from repro.core.wal import WriteAheadLog, replay_into

        self._ensure_dynamic_writer()
        wal = WriteAheadLog(self._wal_path, fsync=self._wal_fsync)
        try:
            replayed = replay_into(self._writer, wal.records())
        except BaseException:
            wal.close()
            raise
        self._writer.attach_wal(wal)
        self._wal = wal
        if replayed:
            self._snapshot_path = None

    def _spawn_workers(self, graph: Graph) -> None:
        if self._start_method is not None:
            ctx = mp.get_context(self._start_method)
        elif "fork" in mp.get_all_start_methods():
            ctx = mp.get_context("fork")
        else:  # pragma: no cover - non-fork platforms
            ctx = mp.get_context()
        dynamic_workers = self.update_mode == "repair"
        for index in range(self.shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    graph,
                    str(self._snapshot_path),
                    self.mmap,
                    dynamic_workers,
                    self.kernel,
                    self.threads,
                ),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(
                _Shard(index, process, parent_conn, self.max_batch,
                       self._finish_point)
            )
        # Fail fast if a worker could not open the snapshot.
        for future in [
            shard.submit(_TaskItem(("ping",))) for shard in self._workers
        ]:
            future.result()

    def close(self) -> None:
        """Stop dispatchers, terminate workers, remove the spool; idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard in self._workers:
            shard.close()
        if self._wal is not None:
            self._wal.close()
        if self._spool is not None:
            # force=True is safe here and only here: every worker that
            # mapped a spool generation has just been joined, so no
            # process holds a mapping the removal could orphan. Any
            # other close order must retire generations first (the
            # spool refuses otherwise).
            self._spool.close(force=True)

    def __enter__(self) -> "ShardedDistanceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- Oracle surface ------------------------------------------------------

    @property
    def graph(self) -> Optional[Graph]:
        """The current graph (tracks dynamic updates); ``None`` before build."""
        return None if self._writer is None else self._writer.graph

    def capabilities(self) -> frozenset:
        """BATCH, DYNAMIC, SNAPSHOT and PATHS — the full layer stack."""
        return self.CAPABILITIES

    def query(self, s: int, t: int) -> float:
        """One exact distance: cache, then the hash-routed worker.

        Byte-identical to single-process ``oracle.query`` (the worker
        answers through the same batch engine the thread-coalescing
        service uses).
        """
        return self.query_async(s, t).result()

    def query_async(self, s: int, t: int) -> Future:
        """Pipelined point query; the future resolves to the distance.

        A cache hit resolves immediately; a miss is hash-routed by the
        normalized pair and coalesced with other in-flight queries on
        that shard. Malformed vertex ids raise here, in the caller's
        thread.

        Raises:
            VertexError: if either endpoint is out of range.
            ServiceClosedError: after :meth:`close`.
        """
        self._require_started()
        s, t = int(s), int(t)
        n = self.graph.num_vertices
        for vertex in (s, t):
            if not 0 <= vertex < n:
                raise VertexError(vertex, n)
        cached = self.cache.get(s, t)
        future: Future = Future()
        if cached is not None:
            future.set_result(cached)
            return future
        item = _PointItem(s, t, self.cache.version)
        shard = self._workers[route_of(s, t, self.shards)]
        shard.submit(item)
        return item.future

    def _finish_point(self, item: _PointItem, value: float) -> None:
        """Dispatcher callback: populate the cache, resolve the future.

        The put is stamped with the cache version read at dispatch time,
        so an answer computed against a pre-update index can never land
        in a post-update cache.
        """
        self.cache.put(item.s, item.t, value, item.cache_version)
        item.future.set_result(value)

    def query_many(self, pairs) -> np.ndarray:
        """Bulk exact distances, scattered over the workers.

        The batch is validated once, split into ``shards`` contiguous
        sub-batches, answered in parallel worker processes, and
        reassembled in submission order — byte-identical to
        single-process ``oracle.query_many``.

        Raises:
            GraphError: on malformed pairs or out-of-range vertices.
            ShardError: if a worker fails mid-batch.
        """
        from repro.core.batch_engine import as_pair_array

        self._require_started()
        pairs = as_pair_array(pairs, self.graph.num_vertices)
        with self._stats_lock:
            self._bulk_queries_total += len(pairs)
        if len(pairs) == 0:
            return np.empty(0, dtype=float)
        chunks = np.array_split(pairs, min(self.shards, len(pairs)))
        # Submit all chunks under the update lock: an update broadcast
        # holds the same lock through its last acknowledgement, and each
        # shard's queue is FIFO, so every chunk of this call lands either
        # entirely before or entirely after any update on every shard —
        # a bulk answer can never mix pre- and post-update distances.
        # Only submission is gated; execution overlaps freely.
        with self._update_lock:
            futures = [
                self._workers[i].submit(_TaskItem(("query_many", chunk)))
                for i, chunk in enumerate(chunks)
            ]
        return np.concatenate([np.asarray(f.result(), dtype=float) for f in futures])

    # -- Dynamic updates -----------------------------------------------------

    def insert_edge(self, u: int, v: int) -> List[int]:
        """Insert an edge everywhere: writer repair, broadcast, cache flush.

        Returns:
            The affected-landmark list from the writer's O(affected)
            repair (mirrors
            :meth:`~repro.core.dynamic.DynamicHighwayCoverOracle.insert_edge`).
        """
        return self._update("insert_edge", u, v)

    def delete_edge(self, u: int, v: int) -> List[int]:
        """Delete an edge everywhere; same protocol as :meth:`insert_edge`."""
        return self._update("delete_edge", u, v)

    def _update(self, op: str, u: int, v: int) -> List[int]:
        self._require_started()
        u, v = int(u), int(v)
        with self._update_lock:
            self._ensure_dynamic_writer()
            # A writer-side rejection (edge exists / missing) raises
            # here, before anything changed — no invalidation needed.
            affected = getattr(self._writer, op)(u, v)
            try:
                if self.update_mode == "remap":
                    try:
                        new_path = self._spool.publish(
                            self._writer, graph=self._wal is not None
                        )
                    except BaseException:
                        # The writer repaired but no worker can follow:
                        # every shard is now behind. Poison them all so
                        # stale answers fail loudly instead of serving.
                        for shard in self._workers:
                            shard.poison()
                        raise
                    if self._wal is not None:
                        # The new generation (and its graph sidecar) is
                        # durably on disk — save_oracle fsyncs before
                        # renaming — so the logged record for this
                        # update, and everything before it, is now
                        # redundant. Crash between publish and this
                        # truncate is covered by idempotent replay.
                        self._wal.truncate()
                    task = ("update", op, u, v, str(new_path))
                else:
                    new_path = None
                    task = ("update", op, u, v, None)
                # Broadcast; every worker acknowledges before we publish
                # the new version to readers. A shard whose submit or
                # ack fails is poisoned — it may still hold the
                # pre-update index, and a poisoned shard refuses all
                # future work rather than silently answering (and
                # re-caching) stale distances. A failure must not stop
                # the broadcast: the remaining shards still get the
                # update, so every live shard either applies it or is
                # poisoned — never left behind unmarked.
                futures = []
                first_error: Optional[BaseException] = None
                for shard in self._workers:
                    try:
                        futures.append((shard, shard.submit(_TaskItem(task))))
                    except BaseException as exc:  # noqa: BLE001
                        shard.poison()
                        if first_error is None:
                            first_error = exc
                for shard, future in futures:
                    try:
                        future.result()
                    except BaseException as exc:  # noqa: BLE001
                        shard.poison()
                        if first_error is None:
                            first_error = exc
                # Swap the snapshot path even on a partial failure: the
                # shards that acked have re-mapped to the new
                # generation (failed ones are poisoned), so it is the
                # live file — leaving the old path would misreport
                # stats() and orphan the new generation in the spool.
                if new_path is not None:
                    old_path, self._snapshot_path = self._snapshot_path, new_path
                    # Only retire generations the spool owns — never a
                    # user-supplied index file. Unlinking is safe even
                    # if a poisoned worker still maps the old file: the
                    # mapping keeps the inode alive until it is dropped.
                    if self._spool is not None and Path(old_path).parent == Path(
                        self._spool.directory
                    ):
                        self._spool.retire(old_path)
                if first_error is not None:
                    raise first_error
            finally:
                # The writer has already repaired — the pre-update world
                # is gone even on a failed broadcast, so the version
                # bump and cache flush happen regardless; the error (if
                # any) still propagates, and the failed shards are
                # poisoned above.
                with self._stats_lock:
                    self._version += 1
                    self._updates_total += 1
                self.cache.invalidate()
        return affected

    def _ensure_dynamic_writer(self) -> None:
        """Promote the parent's oracle to the dynamic variant once.

        A snapshot-restored (possibly mmap'ed) writer converts to the
        update-optimal landmark-major store on first update — copying,
        which also detaches any mapped arrays, since repairs must write.
        """
        if self._writer_dynamic:
            return
        from repro.api.factory import _promote_dynamic
        from repro.core.dynamic import DynamicHighwayCoverOracle

        if not isinstance(self._writer, DynamicHighwayCoverOracle):
            self._writer = _promote_dynamic(self._writer)
        self._writer_dynamic = True

    def version(self) -> int:
        """The writer version counter (bumps once per acknowledged update)."""
        with self._stats_lock:
            return self._version

    # -- Remaining capability layers (delegated to the parent's oracle) ------

    def save(self, path) -> int:
        """Persist the current index (``Capability.SNAPSHOT``); returns bytes.

        Serialized against updates, so the snapshot is always a
        published generation, never a half-applied repair.
        """
        self._require_started()
        with self._update_lock:
            return self._writer.save(path)

    def shortest_path(self, s: int, t: int) -> Optional[List[int]]:
        """A witness path for ``query(s, t)`` (``Capability.PATHS``).

        Taken under the update lock — the writer's label store is
        spliced in place during updates, and a torn read could yield a
        wrong witness.
        """
        self._require_started()
        with self._update_lock:
            return self._writer.shortest_path(s, t)

    def size_bytes(self) -> int:
        """Index size in bytes (one logical copy; workers map, not copy)."""
        self._require_started()
        with self._update_lock:
            return self._writer.size_bytes()

    def average_label_size(self) -> float:
        """Average label entries per vertex (Table 2's ALS)."""
        self._require_started()
        with self._update_lock:
            return self._writer.average_label_size()

    @property
    def construction_seconds(self) -> float:
        """Build time of the parent's index (0.0 for snapshot-restored)."""
        return 0.0 if self._writer is None else self._writer.construction_seconds

    # -- Observability -------------------------------------------------------

    def stats(self, timeout_s: float = 5.0) -> Dict:
        """Serving statistics.

        The per-worker executor report is collected over IPC and is
        **timeout-bounded**: a shard that does not answer its ``stats``
        round trip within ``timeout_s`` seconds (hung worker, or one
        buried under a long bulk task) degrades to ``None`` in
        ``executor_per_shard`` and its index is named in
        ``stale_shards`` — one stuck shard can delay this call by at
        most ``timeout_s``, never block it indefinitely. All locally
        held counters in the report are always current.

        Keys: ``shards``, ``point_queries`` / ``bulk_queries`` /
        ``batches`` (worker round trips on the point path),
        ``batch_occupancy`` (mean point queries per round trip),
        ``updates``, ``version``, ``snapshot`` (current generation
        path), ``kernel`` (the requested query kernel name, or ``None``
        for per-process auto-detection), ``threads`` (the requested
        per-worker executor pool size, or ``None`` for per-worker
        auto-sizing), ``wal`` / ``wal_records`` (the attached
        write-ahead log and its pending record count, or ``None``/0),
        ``per_shard`` (point queries routed to each worker),
        ``executor_per_shard`` (each worker's live
        :meth:`~repro.serving.QueryExecutor.stats` dict — pool size,
        parallel/sequential batch counts, per-thread utilization —
        or ``None`` for a dead/poisoned/timed-out shard),
        ``stale_shards`` (indices whose executor report timed out) and
        ``cache`` (the :meth:`QueryCache.stats` dict).
        """
        per_shard = []
        batches = 0
        points = 0
        executor_futures = []
        for shard in self._workers:
            with shard.lock:
                per_shard.append(shard.point_queries)
                batches += shard.batches
                points += shard.point_queries
            try:
                executor_futures.append(shard.submit(_TaskItem(("stats",))))
            except (ShardError, ServiceClosedError):
                executor_futures.append(None)
        executor_per_shard = []
        stale_shards = []
        deadline = time.perf_counter() + float(timeout_s)
        for index, future in enumerate(executor_futures):
            if future is None:
                executor_per_shard.append(None)
                continue
            # One shared deadline across shards: the whole collection is
            # bounded by timeout_s, not timeout_s per hung shard.
            remaining = max(0.0, deadline - time.perf_counter())
            try:
                executor_per_shard.append(future.result(timeout=remaining))
            except TimeoutError:
                executor_per_shard.append(None)
                stale_shards.append(index)
            except (ShardError, ServiceClosedError):
                executor_per_shard.append(None)
        with self._stats_lock:
            stats = {
                "shards": self.shards,
                "point_queries": points + self.cache.stats()["hits"],
                "bulk_queries": self._bulk_queries_total,
                "batches": batches,
                "batch_occupancy": points / batches if batches else 0.0,
                "updates": self._updates_total,
                "version": self._version,
                "snapshot": str(self._snapshot_path),
                "kernel": self.kernel,
                "threads": self.threads,
                "wal": None if self._wal is None else str(self._wal.path),
                "wal_records": 0 if self._wal is None else len(self._wal),
                "per_shard": per_shard,
                "executor_per_shard": executor_per_shard,
                "stale_shards": stale_shards,
                "cache": self.cache.stats(),
            }
        return stats

    def _require_started(self) -> None:
        if self._closed:
            raise ServiceClosedError("sharded service is closed")
        if not self._workers:
            raise ReproError("call build(graph) before using the service")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "live" if self._workers else "unbuilt"
        )
        return (
            f"ShardedDistanceService(shards={self.shards}, "
            f"mode={self.update_mode}, {state})"
        )
