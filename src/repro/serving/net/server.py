"""The network front door: an asyncio TCP server over a distance oracle.

This is the layer the ROADMAP's "millions of users" north star was
missing: everything below it — the coalescing
:class:`~repro.serving.DistanceService`, the process-sharded
:class:`~repro.serving.ShardedDistanceService`, the durable
:class:`~repro.core.serialization.SnapshotSpool` — is in-process; this
module puts a wire protocol (:mod:`repro.serving.net.wire`) in front of
any oracle-protocol backend and adds the two properties a front door
needs:

* **Admission control with backpressure.** Every accepted request
  occupies one slot of a bounded ingress (``max_queue`` requests /
  ``max_inflight_bytes`` of payload). A request that would exceed
  either bound is *rejected immediately* with
  ``Status.OVERLOADED`` carrying a ``retry_after`` hint — the server
  never buffers unboundedly and never stalls the event loop, so health
  checks and rejections stay fast even under saturation. Per-client
  accounting (accepted / rejected / bytes in / bytes out) is kept by
  peer address and reported by :meth:`NetServer.stats` and the wire
  ``STATS`` verb.
* **Zero-downtime snapshot rollover.** With a
  :class:`SnapshotRollover` attached, the server watches a
  :class:`~repro.core.serialization.SnapshotSpool` directory; when a
  writer publishes generation N+1, the server **loads it off the
  request path**, then takes the writer side of the reader/writer gate
  — which waits for in-flight queries against N to drain while new
  arrivals queue (they are *accepted*, just briefly held) — swaps the
  backend reference, bumps the serving generation, and releases the
  gate. Readers observe bounded staleness and a generation bump, never
  an error; the swapped-out backend is closed off-path. The same gate
  serializes wire-level ``INSERT_EDGE``/``DELETE_EDGE`` updates against
  query execution (mirroring the in-process facade's seqlock).

The backend is anything satisfying the oracle protocol (``query`` /
``query_many``; ``insert_edge``/``delete_edge`` when it advertises
:data:`~repro.api.Capability.DYNAMIC`; optional ``stats``) — a plain
:class:`~repro.core.query.HighwayCoverOracle`, a dynamic oracle, or a
:class:`~repro.serving.ShardedDistanceService` whose worker processes
then execute the actual label scans (the rollover swap is the "sharded
remap broadcast" in that case: the replacement service's workers map
the new generation before the old workers are torn down).

Example::

    from repro.serving.net import NetServer, SnapshotRollover

    server = NetServer(oracle, port=0)       # port 0: pick a free port
    with server.running_in_thread() as (host, port):
        ...                                  # NetClient(host, port)

CPU-bound oracle calls run on a private thread pool
(``worker_threads``), so the event loop only ever frames bytes and
bookkeeps admission — with a GIL-releasing kernel the pool genuinely
parallelizes label scans.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import (
    CapabilityError,
    ProtocolError,
    ReproError,
    StaleGenerationError,
)
from repro.serving.net import wire
from repro.serving.net.wire import Frame, FrameDecoder, Op, Status

__all__ = ["NetServer", "SnapshotRollover"]


def _jsonable(value):
    """Best-effort conversion of a stats tree to JSON-safe primitives."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class SnapshotRollover:
    """Watch a snapshot spool directory and load new generations.

    The writer side of the rollover protocol is the existing
    :class:`~repro.core.serialization.SnapshotSpool`: a writer process
    repairs its index and calls ``spool.publish(oracle, graph=True)``,
    which atomically lands ``gen-<seq>.hl`` (plus a ``gen-<seq>.graph``
    RPDC sidecar of the exact graph the labels were built against). This
    class is the *reader* side: :meth:`scan` finds the newest complete
    generation, and :meth:`load` turns it into a ready backend — a
    zero-copy mmap single-process oracle by default, or a fresh
    ``shards``-worker :class:`~repro.serving.ShardedDistanceService`
    whose workers all map the new file (the sharded remap).

    Args:
        directory: the spool directory to watch.
        graph: fallback graph for generations without a ``.graph``
            sidecar (required in that case — the snapshot format stores
            labels, not the graph).
        mmap: map label arrays zero-copy (default) instead of copying.
        kernel: query kernel backend name applied to loaded oracles.
        shards: when >= 2, load each generation behind a sharded
            service with this many worker processes.
        poll_s: how often the server polls :meth:`scan`.
        prefix: generation filename prefix (the spool default).
    """

    def __init__(
        self,
        directory,
        graph=None,
        *,
        mmap: bool = True,
        kernel: Optional[str] = None,
        shards: Optional[int] = None,
        poll_s: float = 0.25,
        prefix: str = "gen",
    ) -> None:
        if shards is not None and shards < 2:
            raise ValueError("shards must be >= 2 (or None for single-process)")
        self.directory = Path(directory)
        self.graph = graph
        self.mmap = mmap
        self.kernel = kernel
        self.shards = shards
        self.poll_s = float(poll_s)
        self.prefix = prefix

    @staticmethod
    def seq_of(path) -> int:
        """The generation sequence number encoded in a spool filename."""
        stem = Path(path).stem
        try:
            return int(stem.rsplit("-", 1)[-1])
        except ValueError:
            raise ReproError(
                f"{path}: not a spool generation filename (want gen-<seq>.hl)"
            ) from None

    def scan(self) -> Optional[Tuple[int, Path]]:
        """Newest complete generation as ``(seq, path)``, or ``None``."""
        newest: Optional[Tuple[int, Path]] = None
        for path in self.directory.glob(f"{self.prefix}-*.hl"):
            try:
                seq = self.seq_of(path)
            except ReproError:  # pragma: no cover - foreign file
                continue
            if newest is None or seq > newest[0]:
                newest = (seq, path)
        return newest

    def graph_for(self, path):
        """The graph generation ``path`` was built against.

        Prefers the atomic ``.graph`` sidecar (an RPDC disk CSR) written
        by ``SnapshotSpool.publish(graph=True)`` — which tracks the
        writer's dynamic updates — and falls back to the static
        ``graph`` this watcher was constructed with.

        Raises:
            ReproError: when neither is available.
            GraphError: when the sidecar is not a valid disk CSR.
        """
        from repro.core.serialization import SnapshotSpool

        sidecar = SnapshotSpool.graph_sidecar_for(path)
        if sidecar.is_file():
            from repro.graphs.disk_csr import open_disk_csr

            return open_disk_csr(sidecar, mmap=False)
        if self.graph is None:
            raise ReproError(
                f"{path}: no .graph sidecar and no fallback graph configured"
            )
        return self.graph

    def load(self, path):
        """Load generation ``path`` into a ready backend (blocking).

        Called by the server *off* the request path — readers keep
        answering from generation N while N+1 loads here.
        """
        graph = self.graph_for(path)
        if self.shards is not None:
            from repro.serving.sharded import ShardedDistanceService

            return ShardedDistanceService.from_snapshot(
                graph, path, shards=self.shards, kernel=self.kernel,
                mmap=self.mmap,
            )
        from repro.core.serialization import load_oracle

        oracle = load_oracle(graph, path, mmap=self.mmap)
        if self.kernel is not None:
            oracle.set_kernel(self.kernel)
        return oracle


class _Gate:
    """Async reader/writer gate with writer priority (the drain point).

    Queries hold the read side for the duration of their backend call;
    updates and snapshot swaps take the write side, which blocks new
    readers and waits for in-flight ones to finish — exactly the
    in-process facade's seqlock semantics, transplanted to asyncio.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    async def acquire_read(self) -> None:
        """Enter the read side; parks while a writer holds or waits."""
        async with self._cond:
            while self._writer or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1

    async def release_read(self) -> None:
        """Leave the read side; wakes a draining writer when last out."""
        async with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        """Drain: block new readers, wait for in-flight ones to finish."""
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    async def release_write(self) -> None:
        """Reopen the gate after a swap; wakes everyone waiting."""
        async with self._cond:
            self._writer = False
            self._cond.notify_all()


class _ClientStats:
    """Per-peer accounting, reported by ``stats()`` and the STATS verb."""

    __slots__ = (
        "accepted", "rejected", "responses", "errors", "bytes_in", "bytes_out"
    )

    def __init__(self) -> None:
        self.accepted = 0
        self.rejected = 0
        self.responses = 0
        self.errors = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def as_dict(self) -> Dict[str, int]:
        """The ledger as a plain dict (for the STATS JSON payload)."""
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "responses": self.responses,
            "errors": self.errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }


class _Conn:
    """One live connection: writer stream, peer key, serialized sends."""

    __slots__ = ("writer", "peer", "lock", "stats")

    def __init__(self, writer, peer: str, stats: _ClientStats) -> None:
        self.writer = writer
        self.peer = peer
        self.lock = asyncio.Lock()
        self.stats = stats

    async def send(self, frame_bytes: bytes) -> None:
        """Write one encoded frame, serialized against concurrent sends."""
        async with self.lock:
            self.writer.write(frame_bytes)
            await self.writer.drain()
        self.stats.bytes_out += len(frame_bytes)


class NetServer:
    """Asyncio TCP server speaking the :mod:`repro.serving.net.wire` protocol.

    Args:
        backend: the oracle-protocol object that answers queries (and
            updates, when it advertises ``Capability.DYNAMIC``).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (read :attr:`port` after
            start).
        max_queue: admission bound on concurrently accepted, unanswered
            requests; the (``max_queue + 1``)-th is rejected with
            ``Status.OVERLOADED``.
        max_inflight_bytes: admission bound on the summed payload bytes
            of accepted, unanswered requests.
        max_frame_bytes: largest frame body accepted before the
            connection is dropped as corrupt.
        retry_after_s: the backpressure hint carried by overload
            rejections.
        worker_threads: thread-pool size for CPU-bound backend calls
            (with a GIL-releasing kernel these genuinely parallelize).
        rollover: optional :class:`SnapshotRollover`; when given, the
            server polls its spool directory and promotes newer
            generations with the drain-swap-resume protocol.
        snapshot: the generation file the initial ``backend`` serves,
            if any — tells the watcher which sequence number is already
            live so it is not re-promoted at startup.
        generation: initial serving generation (>= 1; 0 means "any" on
            the wire and is reserved).
        owns_backend: close the initial backend on :meth:`stop`
            (backends swapped in by rollover are always owned and
            closed when swapped out).
    """

    def __init__(
        self,
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
        max_inflight_bytes: int = 256 * 1024 * 1024,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
        retry_after_s: float = 0.05,
        worker_threads: int = 2,
        rollover: Optional[SnapshotRollover] = None,
        snapshot=None,
        generation: int = 1,
        owns_backend: bool = False,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if generation < 1:
            raise ValueError("generation must be >= 1 (0 is 'any' on the wire)")
        if worker_threads < 1:
            raise ValueError("worker_threads must be at least 1")
        self._backend = backend
        self.host = host
        self.port = port
        self.max_queue = int(max_queue)
        self.max_inflight_bytes = int(max_inflight_bytes)
        self.max_frame_bytes = int(max_frame_bytes)
        self.retry_after_s = float(retry_after_s)
        self.worker_threads = int(worker_threads)
        self.rollover = rollover
        self._snapshot = None if snapshot is None else Path(snapshot)
        self._snapshot_seq = (
            SnapshotRollover.seq_of(self._snapshot)
            if self._snapshot is not None and rollover is not None
            else -1
        )
        self._owns_backend = owns_backend
        self._generation = int(generation)
        self._gate = _Gate()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._rollover_task: Optional[asyncio.Task] = None
        self._tasks: set = set()
        self._conn_writers: set = set()
        self._queued = 0
        self._inflight_bytes = 0
        self._accepted = 0
        self._rejected = 0
        self._responses = 0
        self._errors = 0
        self._rollovers = 0
        self._rollover_errors = 0
        self._clients: Dict[str, _ClientStats] = {}
        self._started_at = time.perf_counter()
        self._stats_lock = threading.Lock()
        # Thread-runner state (running_in_thread / serve_in_thread).
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread_error: Optional[BaseException] = None

    # -- Lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.worker_threads, thread_name_prefix="netserver"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.perf_counter()
        if self.rollover is not None:
            self._rollover_task = asyncio.ensure_future(self._rollover_loop())
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, settle in-flight requests, release resources."""
        if self._rollover_task is not None:
            self._rollover_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._rollover_task
            self._rollover_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Let in-flight handlers settle (their connections may already
        # be gone; send failures are swallowed per-handler).
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        # Hang up on idle peers so their reader coroutines exit before
        # the loop closes (otherwise loop teardown cancels them noisily).
        for writer in list(self._conn_writers):
            with contextlib.suppress(Exception):
                writer.close()
        deadline = self._loop.time() + 5.0
        while self._conn_writers and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_backend:
            close = getattr(self._backend, "close", None)
            if callable(close):
                close()

    def run_forever(self) -> None:
        """Blocking entry point (the CLI's ``repro serve``): serve until
        SIGINT (Ctrl-C), then :meth:`stop`. Call from the main thread.

        The handler goes through ``loop.add_signal_handler``, which also
        arms the loop's signal wakeup fd: a SIGINT the kernel delivers to
        a worker-pool thread still wakes the idle main thread. A second
        SIGINT during :meth:`stop` is absorbed; closing the loop removes
        the handler.
        """

        async def _main() -> None:
            interrupted = asyncio.Event()
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGINT, interrupted.set
            )
            host, port = await self.start()
            print(f"serving on {host}:{port} (generation {self._generation})")
            try:
                await interrupted.wait()
            finally:
                await self.stop()

        asyncio.run(_main())

    def serve_in_thread(self) -> Tuple[str, int]:
        """Start the server on a dedicated event-loop thread.

        Returns the bound ``(host, port)``; pair with :meth:`shutdown`.
        This is how tests, the benchmark harness, and embedders host a
        server without giving up their main thread.
        """
        if self._thread is not None:
            raise ReproError("server thread already running")
        started = threading.Event()

        async def _main() -> None:
            self._stop_event = asyncio.Event()
            try:
                await self.start()
            except BaseException as exc:  # surfaced to the caller below
                self._thread_error = exc
                started.set()
                return
            started.set()
            await self._stop_event.wait()
            await self.stop()

        def _runner() -> None:
            asyncio.run(_main())

        self._thread_error = None
        self._thread = threading.Thread(
            target=_runner, name="netserver-loop", daemon=True
        )
        self._thread.start()
        started.wait()
        if self._thread_error is not None:
            self._thread.join()
            self._thread = None
            raise self._thread_error
        return self.host, self.port

    def shutdown(self) -> None:
        """Stop a :meth:`serve_in_thread` server and join its thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        self._thread = None

    @contextlib.contextmanager
    def running_in_thread(self):
        """Context manager around :meth:`serve_in_thread` / :meth:`shutdown`.

        Yields the bound ``(host, port)``.
        """
        address = self.serve_in_thread()
        try:
            yield address
        finally:
            self.shutdown()

    # -- Rollover ------------------------------------------------------------

    async def _rollover_loop(self) -> None:
        """Poll the spool; promote any generation newer than the serving one."""
        while True:
            await asyncio.sleep(self.rollover.poll_s)
            try:
                found = self.rollover.scan()
                if found is not None and found[0] > self._snapshot_seq:
                    await self._promote(found[0], found[1])
            except asyncio.CancelledError:
                raise
            except BaseException:  # noqa: BLE001 - keep serving generation N
                with self._stats_lock:
                    self._rollover_errors += 1

    async def _promote(self, seq: int, path: Path) -> None:
        """The zero-downtime swap: load off-path, drain, swap, resume."""
        # 1. Load generation N+1 while N keeps answering (the loop's
        #    default executor, NOT the query pool — a slow load must not
        #    occupy a query slot).
        new_backend = await self._loop.run_in_executor(
            None, self.rollover.load, path
        )
        # 2. Drain: writer side of the gate waits for in-flight queries;
        #    new arrivals are accepted and held at the read gate.
        await self._gate.acquire_write()
        old_backend, old_owned = self._backend, self._owns_backend
        self._backend = new_backend
        self._owns_backend = True
        self._snapshot = path
        self._snapshot_seq = seq
        with self._stats_lock:
            self._generation += 1
            self._rollovers += 1
        # 3. Resume — queries held at the gate proceed against N+1.
        await self._gate.release_write()
        # 4. Retire the old backend off-path (worker teardown for a
        #    sharded backend can take a while).
        if old_owned:
            close = getattr(old_backend, "close", None)
            if callable(close):
                await self._loop.run_in_executor(None, close)

    # -- Connection handling -------------------------------------------------

    def _client_stats(self, peer: str) -> _ClientStats:
        with self._stats_lock:
            stats = self._clients.get(peer)
            if stats is None:
                stats = self._clients[peer] = _ClientStats()
            return stats

    async def _on_connection(self, reader, writer) -> None:
        peername = writer.get_extra_info("peername")
        peer = (
            f"{peername[0]}:{peername[1]}"
            if isinstance(peername, tuple)
            else str(peername)
        )
        conn = _Conn(writer, peer, self._client_stats(peer))
        decoder = FrameDecoder(self.max_frame_bytes)
        self._conn_writers.add(writer)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                conn.stats.bytes_in += len(data)
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # The stream offset can no longer be trusted:
                    # answer once (request id 0) and drop the peer.
                    conn.stats.errors += 1
                    with contextlib.suppress(Exception):
                        await conn.send(
                            wire.encode_frame(
                                Status.PROTOCOL_ERROR,
                                0,
                                self._generation,
                                wire.encode_error(str(exc)),
                            )
                        )
                    break
                for frame in frames:
                    await self._admit(conn, frame)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _admit(self, conn: _Conn, frame: Frame) -> None:
        """Admission control: accept into the bounded ingress or reject."""
        if frame.kind not in Op.ALL:
            # A response status in the request direction: per-frame
            # violation, the stream itself is still aligned.
            conn.stats.errors += 1
            await conn.send(
                wire.encode_frame(
                    Status.PROTOCOL_ERROR,
                    frame.request_id,
                    self._generation,
                    wire.encode_error(
                        f"kind {frame.kind} is not a request opcode"
                    ),
                )
            )
            return
        size = len(frame.payload)
        with self._stats_lock:
            over = (
                self._queued >= self.max_queue
                or self._inflight_bytes + size > self.max_inflight_bytes
            )
            if not over:
                self._queued += 1
                self._inflight_bytes += size
                self._accepted += 1
                conn.stats.accepted += 1
            else:
                self._rejected += 1
                conn.stats.rejected += 1
        if over:
            await conn.send(
                wire.encode_frame(
                    Status.OVERLOADED,
                    frame.request_id,
                    self._generation,
                    wire.encode_error(
                        f"ingress full ({self.max_queue} requests / "
                        f"{self.max_inflight_bytes} bytes); retry after "
                        f"{self.retry_after_s}s",
                        retry_after=self.retry_after_s,
                    ),
                )
            )
            return
        task = asyncio.ensure_future(self._handle(conn, frame))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _handle(self, conn: _Conn, frame: Frame) -> None:
        """Execute one admitted request and send its response."""
        error = False
        try:
            try:
                response = await self._dispatch(frame)
            except BaseException as exc:  # noqa: BLE001 - mapped to status
                error = True
                status, retry_after = wire.status_for_error(exc)
                response = wire.encode_frame(
                    status,
                    frame.request_id,
                    self._generation,
                    wire.encode_error(str(exc), retry_after),
                )
        finally:
            with self._stats_lock:
                self._queued -= 1
                self._inflight_bytes -= len(frame.payload)
        with self._stats_lock:
            self._responses += 1
            if error:
                self._errors += 1
        conn.stats.responses += 1
        if error:
            conn.stats.errors += 1
        with contextlib.suppress(Exception):
            # The peer may have vanished; accounting above still holds.
            await conn.send(response)

    async def _dispatch(self, frame: Frame) -> bytes:
        op = frame.kind
        if frame.generation and frame.generation > self._generation:
            raise StaleGenerationError(
                f"request requires generation >= {frame.generation}, "
                f"serving {self._generation}",
                generation=self._generation,
            )
        if op == Op.HEALTH:
            return wire.encode_frame(
                Status.OK,
                frame.request_id,
                self._generation,
                json.dumps(self._health()).encode("utf-8"),
            )
        if op == Op.STATS:
            generation, payload = await self._run_shared(self._stats_payload)
            return wire.encode_frame(
                Status.OK, frame.request_id, generation, payload
            )
        if op == Op.QUERY:
            s, t = wire.decode_pair(frame.payload)
            generation, value = await self._run_shared(
                lambda: self._backend.query(s, t)
            )
            return wire.encode_frame(
                Status.OK, frame.request_id, generation, wire.encode_f64(value)
            )
        if op == Op.BATCH:
            pairs = wire.decode_pairs(frame.payload)
            generation, distances = await self._run_shared(
                lambda: self._backend.query_many(pairs)
            )
            return wire.encode_frame(
                Status.OK,
                frame.request_id,
                generation,
                wire.encode_distances(distances),
            )
        if op in (Op.INSERT_EDGE, Op.DELETE_EDGE):
            u, v = wire.decode_pair(frame.payload)
            method = "insert_edge" if op == Op.INSERT_EDGE else "delete_edge"
            generation, affected = await self._run_update(method, u, v)
            count = len(affected) if hasattr(affected, "__len__") else int(
                affected if affected is not None else 0
            )
            return wire.encode_frame(
                Status.OK, frame.request_id, generation, wire.encode_u64(count)
            )
        raise ProtocolError(f"unhandled opcode {op}")  # pragma: no cover

    async def _run_shared(self, fn):
        """Run a read-path backend call under the read gate, off-loop.

        Returns ``(generation, result)`` with the generation captured
        *while the gate was held* — the exact snapshot state that
        answered, which is what lets clients attribute every response
        to one generation across rollovers.
        """
        await self._gate.acquire_read()
        try:
            generation = self._generation
            result = await self._loop.run_in_executor(self._pool, fn)
        finally:
            await self._gate.release_read()
        return generation, result

    async def _run_update(self, method: str, u: int, v: int):
        """Run a wire-level edge update under the write gate, off-loop."""
        from repro.api.protocol import Capability, capabilities_of

        if Capability.DYNAMIC not in capabilities_of(self._backend):
            raise CapabilityError(
                f"backend {self._backend!r} does not advertise "
                f"Capability.DYNAMIC; serve with dynamic=True for wire updates"
            )
        await self._gate.acquire_write()
        try:
            affected = await self._loop.run_in_executor(
                self._pool, getattr(self._backend, method), int(u), int(v)
            )
            with self._stats_lock:
                self._generation += 1
            generation = self._generation
        finally:
            await self._gate.release_write()
        return generation, affected

    # -- Observability -------------------------------------------------------

    def _health(self) -> Dict:
        with self._stats_lock:
            return {
                "ok": True,
                "generation": self._generation,
                "snapshot": None if self._snapshot is None else str(self._snapshot),
                "queued": self._queued,
                "inflight_bytes": self._inflight_bytes,
                "uptime_s": time.perf_counter() - self._started_at,
            }

    def _stats_payload(self) -> bytes:
        return json.dumps(_jsonable(self.stats())).encode("utf-8")

    def stats(self) -> Dict:
        """Server statistics (also served by the wire ``STATS`` verb).

        Keys: ``generation`` / ``snapshot`` / ``snapshot_seq`` /
        ``rollovers`` / ``rollover_errors`` (the rollover state),
        ``accepted`` / ``rejected`` / ``responses`` / ``errors``
        (request counters; ``rejected`` counts admission-control
        rejections, which are *not* in ``responses``), ``queued`` /
        ``inflight_bytes`` (current ingress occupancy against
        ``max_queue`` / ``max_inflight_bytes``), ``clients`` (per-peer
        accounting dicts), ``uptime_s``, and ``backend`` (the hosted
        backend's own ``stats()`` when it has one).
        """
        with self._stats_lock:
            stats = {
                "address": [self.host, self.port],
                "generation": self._generation,
                "snapshot": None if self._snapshot is None else str(self._snapshot),
                "snapshot_seq": self._snapshot_seq,
                "rollovers": self._rollovers,
                "rollover_errors": self._rollover_errors,
                "accepted": self._accepted,
                "rejected": self._rejected,
                "responses": self._responses,
                "errors": self._errors,
                "queued": self._queued,
                "inflight_bytes": self._inflight_bytes,
                "max_queue": self.max_queue,
                "max_inflight_bytes": self.max_inflight_bytes,
                "retry_after_s": self.retry_after_s,
                "worker_threads": self.worker_threads,
                "uptime_s": time.perf_counter() - self._started_at,
                "clients": {
                    peer: cs.as_dict() for peer, cs in self._clients.items()
                },
            }
        backend_stats = getattr(self._backend, "stats", None)
        stats["backend"] = backend_stats() if callable(backend_stats) else None
        return stats

    @property
    def generation(self) -> int:
        """The serving generation (bumps on every rollover and update)."""
        with self._stats_lock:
            return self._generation

    @property
    def backend(self):
        """The currently serving backend (swapped by rollover)."""
        return self._backend

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetServer({self.host}:{self.port}, "
            f"generation={self._generation})"
        )
