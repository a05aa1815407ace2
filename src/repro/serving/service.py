"""The serving facade: many graphs, many threads, one ``DistanceService``.

The ROADMAP's north star is serving heavy interactive traffic, and the
paper's own pitch is exact distances "in the order of milliseconds" on
billion-edge networks. This module supplies the missing serving layer on
top of the capability-based oracle API (:mod:`repro.api`):

* **Registry.** One service hosts any number of named graphs, each
  backed by any :class:`~repro.api.DistanceOracle`; oracles are
  registered pre-built or opened declaratively through
  :func:`repro.api.open_oracle`.
* **Micro-batch coalescing.** Point queries from concurrent threads
  (blocking :meth:`~DistanceService.query`, or pipelined
  :meth:`~DistanceService.query_async` returning a future) are enqueued
  and answered by a per-graph batch worker that drains the queue into
  one vectorized
  :meth:`~repro.core.query.HighwayCoverOracle.query_many` call — a
  time/size-bounded micro-batch (``max_batch`` / ``max_wait_ms``; the
  window is pinned to the *oldest waiting query's* enqueue time, so a
  stream of stragglers can never stretch a batch past one window). One
  interpreter-level call per *batch* instead of per query is where the
  throughput multiple over a per-query lock comes from
  (``benchmarks/bench_serving.py`` records it); answers are
  byte-identical to calling ``oracle.query`` sequentially because
  ``query_many`` is (asserted by the batch-engine suite).
* **Thread-parallel execution.** Each entry drains its micro-batches
  (and bulk :meth:`~DistanceService.query_many` calls) through a
  :class:`~repro.serving.QueryExecutor`: when the hosted oracle's
  kernel releases the GIL (``cext``), the batch splits
  into chunks answered on a pool of ``threads`` worker threads —
  byte-identical, reassembled in order. ``threads=None`` auto-sizes
  the pool (``REPRO_THREADS``, else one thread per CPU iff the kernel
  releases the GIL, else sequential); GIL-bound backends and hosted
  composites (the sharded service, whose parallelism already lives in
  worker processes) fall back to sequential execution gracefully.
* **Update serialization.** Dynamic edge updates
  (:data:`~repro.api.Capability.DYNAMIC`) never overlap query
  execution: a seqlock-style version counter guards each entry — the
  version is bumped to *odd* while a writer mutates and back to *even*
  when the swap completes, writers wait for in-flight batches to drain
  (and take priority over new ones), and queries enqueued meanwhile are
  answered after the swap against the updated index. ``version(name)``
  exposes the counter, so external observers can detect and retry
  around in-progress updates.
* **Observability.** :meth:`DistanceService.stats` reports per-graph
  QPS, batch count and occupancy (mean queries coalesced per batch),
  and p50/p99 query latency over a sliding window.

Example::

    from repro.serving import DistanceService

    with DistanceService() as service:
        service.open("social", graph, num_landmarks=20)
        d = service.query("social", 3, 250)     # thread-safe, coalesced
        print(service.stats("social")["qps"])
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Dict, List, Optional

import numpy as np

from repro.api.protocol import Capability, capabilities_of
from repro.errors import (
    CapabilityError,
    ReproError,
    ServiceClosedError,
    VertexError,
)

__all__ = ["DistanceService"]

#: Sliding-window size for per-query latency percentiles.
_LATENCY_WINDOW = 8192


class _Pending:
    """One enqueued point query waiting for its micro-batch."""

    __slots__ = ("s", "t", "future", "enqueued_at")

    def __init__(self, s: int, t: int) -> None:
        self.s = s
        self.t = t
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class _Entry:
    """One hosted graph: oracle, queue, worker, executor, seqlock state."""

    def __init__(
        self,
        name: str,
        oracle,
        max_batch: int,
        max_wait_s: float,
        threads: Optional[int] = None,
    ) -> None:
        from repro.serving.executor import QueryExecutor

        self.name = name
        self.oracle = oracle
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        #: Thread-parallel chunk executor for this entry's batches; a
        #: 1-thread pool degenerates to inline sequential execution.
        self.executor = QueryExecutor.for_oracle(oracle, threads=threads)
        #: True when the service constructed the oracle itself (via
        #: ``open``) and therefore owns its lifecycle.
        self.owns_oracle = False
        self.lock = threading.Lock()
        self.has_work = threading.Condition(self.lock)
        self.gate = threading.Condition(self.lock)
        self.queue: deque = deque()
        self.closed = False
        # Seqlock-style version: even = stable, odd = update in progress.
        self.version = 0
        self.writers_waiting = 0
        self.active_readers = 0
        self.update_lock = threading.Lock()  # one writer at a time
        # Counters (guarded by self.lock).
        self.queries_total = 0
        self.bulk_queries_total = 0
        self.batches_total = 0
        self.updates_total = 0
        self.batch_size_sum = 0
        self.max_batch_seen = 0
        self.latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self.started_at = time.perf_counter()
        self.worker = threading.Thread(
            target=self._worker_loop, name=f"distsvc-{name}", daemon=True
        )
        self.worker.start()

    # -- Reader/writer gate (the seqlock) -----------------------------------

    def _begin_read(self) -> None:
        """Block while an update is pending or applying, then pin a reader."""
        with self.lock:
            while self.writers_waiting or self.version % 2:
                self.gate.wait()
            self.active_readers += 1

    def _end_read(self) -> None:
        with self.lock:
            self.active_readers -= 1
            if self.active_readers == 0:
                self.gate.notify_all()

    # -- Micro-batch worker --------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._execute_batch(batch)

    def _collect_batch(self) -> Optional[List[_Pending]]:
        """Wait for work, hold the coalescing window, drain one batch."""
        with self.lock:
            while not self.queue and not self.closed:
                self.has_work.wait()
            if self.closed and not self.queue:
                return None
            # Coalescing window: a lone query lingers briefly so that
            # concurrent arrivals share its batch; a queue that already
            # has company is drained immediately. The deadline is pinned
            # to the *oldest waiting query's* enqueue time — never
            # recomputed from "now" on a wakeup — so (a) a stream of
            # stragglers cannot stretch the batch past one max_wait_s
            # window, and (b) a query that already waited out its window
            # while the worker drained the previous batch executes
            # immediately instead of paying a second window.
            if len(self.queue) < 2 and self.max_wait_s > 0 and not self.closed:
                deadline = self.queue[0].enqueued_at + self.max_wait_s
                while len(self.queue) < self.max_batch and not self.closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self.has_work.wait(remaining)
            batch = []
            while self.queue and len(batch) < self.max_batch:
                batch.append(self.queue.popleft())
            return batch

    def _execute_batch(self, batch: List[_Pending]) -> None:
        # Mark every future running (a running future cannot be
        # cancelled, so the set_result below cannot raise); a client
        # that cancelled while queued is dropped here instead of
        # killing the worker thread.
        batch = [p for p in batch if p.future.set_running_or_notify_cancel()]
        if not batch:
            return
        self._begin_read()
        try:
            try:
                pairs = np.empty((len(batch), 2), dtype=np.int64)
                for i, pending in enumerate(batch):
                    pairs[i, 0] = pending.s
                    pairs[i, 1] = pending.t
                distances = self.executor.run(self.oracle.query_many, pairs)
                outcomes = [
                    (pending, float(value), None)
                    for pending, value in zip(batch, distances)
                ]
            except BaseException:
                # One bad pair must not poison its batch-mates: fall
                # back to per-query answers so only the offending
                # caller sees the exception.
                outcomes = []
                for pending in batch:
                    try:
                        outcomes.append(
                            (pending, float(self.oracle.query(pending.s, pending.t)), None)
                        )
                    except BaseException as exc:
                        outcomes.append((pending, None, exc))
        finally:
            self._end_read()
        done = time.perf_counter()
        with self.lock:
            self.queries_total += len(batch)
            self.batches_total += 1
            self.batch_size_sum += len(batch)
            self.max_batch_seen = max(self.max_batch_seen, len(batch))
            for pending in batch:
                self.latencies.append(done - pending.enqueued_at)
        for pending, value, error in outcomes:
            if error is not None:
                pending.future.set_exception(error)
            else:
                pending.future.set_result(value)

    # -- Shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Drain the worker, then fail anything still queued."""
        with self.lock:
            self.closed = True
            self.has_work.notify_all()
        self.worker.join()
        self.executor.close()
        # The worker drained what it could; fail anything still queued.
        with self.lock:
            leftovers = list(self.queue)
            self.queue.clear()
        for pending in leftovers:  # pragma: no cover - shutdown race
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(
                    ServiceClosedError(f"graph {self.name!r}: service closed")
                )


class DistanceService:
    """Thread-safe facade serving exact distance queries on hosted graphs.

    Args:
        max_batch: upper bound on queries coalesced into one
            ``query_many`` micro-batch.
        max_wait_ms: how long a lone query lingers for company before its
            batch executes anyway (the latency cost of coalescing; 0
            disables the window, degenerating to one batch per query
            under sequential load). The window is measured from the
            oldest waiting query's enqueue time.
        threads: executor thread count per hosted graph — each entry's
            micro-batches and bulk ``query_many`` calls run through a
            :class:`~repro.serving.QueryExecutor` of this size. ``None``
            auto-sizes: ``REPRO_THREADS`` if set, else one thread per
            CPU when the entry's kernel releases the GIL, else 1
            (sequential; GIL-bound backends and process-sharded
            composites gain nothing from more threads here).

    Thread safety: every public method may be called from any thread.
    Point queries block until their micro-batch is answered; dynamic
    updates block until the swap completes and are serialized against
    query execution (see the module docstring).
    """

    def __init__(
        self,
        max_batch: int = 512,
        max_wait_ms: float = 2.0,
        threads: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if threads is not None and threads < 1:
            raise ValueError("threads must be at least 1 (or None for auto)")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1e3
        self.threads = threads
        self._entries: Dict[str, _Entry] = {}
        self._registry_lock = threading.Lock()
        self._closed = False

    # -- Registry -------------------------------------------------------------

    def register(self, name: str, oracle) -> None:
        """Host a pre-built oracle under ``name``.

        The oracle must advertise :data:`~repro.api.Capability.BATCH`
        (every oracle in this library does — the baselines through the
        ``BatchFallback`` layer).
        """
        if getattr(oracle, "graph", None) is None:
            raise ReproError(
                f"graph {name!r}: register a *built* oracle (call build first)"
            )
        if Capability.BATCH not in capabilities_of(oracle):
            raise CapabilityError(
                f"graph {name!r}: oracle {oracle!r} does not advertise "
                f"Capability.BATCH, which serving requires"
            )
        with self._registry_lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if name in self._entries:
                raise ReproError(f"graph {name!r} is already registered")
            self._entries[name] = _Entry(
                name, oracle, self.max_batch, self.max_wait_s, self.threads
            )

    def open(self, name: str, source, **open_options) -> None:
        """Open an oracle via :func:`repro.api.open_oracle` and host it.

        Oracles opened this way are service-owned: :meth:`close` also
        closes them (which shuts down worker processes when the entry is
        backed by a :class:`~repro.serving.ShardedDistanceService`,
        e.g. ``service.open(name, graph, shards=4)``). Pre-built oracles
        hosted via :meth:`register` stay caller-owned.
        """
        from repro.api.factory import open_oracle

        oracle = open_oracle(source, **open_options)
        try:
            self.register(name, oracle)
        except BaseException:
            # The freshly opened oracle has no owner yet — close it
            # here or its resources (sharded worker processes, snapshot
            # spools) would leak on a duplicate name / closed service.
            oracle_close = getattr(oracle, "close", None)
            if callable(oracle_close):
                oracle_close()
            raise
        with self._registry_lock:
            self._entries[name].owns_oracle = True

    def names(self) -> List[str]:
        """Hosted graph names, sorted."""
        with self._registry_lock:
            return sorted(self._entries)

    def oracle(self, name: str):
        """The hosted oracle (for capability introspection; not for
        mutating behind the service's back)."""
        return self._entry(name).oracle

    def _entry(self, name: str) -> _Entry:
        with self._registry_lock:
            try:
                return self._entries[name]
            except KeyError:
                raise ReproError(
                    f"unknown graph {name!r}; hosted: {sorted(self._entries)}"
                ) from None

    # -- Queries --------------------------------------------------------------

    def query(self, name: str, s: int, t: int) -> float:
        """Exact distance on graph ``name`` — blocking, coalesced.

        Identical to ``oracle.query(s, t)``; under concurrency the call
        is answered as part of a vectorized micro-batch.
        """
        return self.query_async(name, s, t).result()

    def query_async(self, name: str, s: int, t: int) -> Future:
        """Enqueue a point query; returns a ``concurrent.futures.Future``.

        The pipelined form of :meth:`query`: a frontend thread
        multiplexing many clients submits a window of queries before
        collecting results, which lets the micro-batcher coalesce far
        beyond one query per thread — where the big throughput
        multiplier comes from (``benchmarks/bench_serving.py``). The
        future resolves to the exact distance, or raises whatever the
        underlying oracle raised for this query.
        """
        entry = self._entry(name)
        s, t = int(s), int(t)
        # Fail malformed queries in the caller's thread, before they
        # can join (and thereby delay) anyone else's micro-batch.
        num_vertices = entry.oracle.graph.num_vertices
        for vertex in (s, t):
            if not 0 <= vertex < num_vertices:
                raise VertexError(vertex, num_vertices)
        pending = _Pending(s, t)
        with entry.lock:
            if entry.closed:
                raise ServiceClosedError(f"graph {name!r}: service closed")
            entry.queue.append(pending)
            entry.has_work.notify()
        return pending.future

    def query_many(self, name: str, pairs) -> np.ndarray:
        """Bulk exact distances — bypasses coalescing, still update-safe.

        Bulk queries count toward ``stats()``'s ``queries``/``qps`` (and
        the separate ``bulk_queries`` counter) but not toward the
        micro-batch occupancy or latency percentiles, which describe
        the coalescing path only.
        """
        entry = self._entry(name)
        entry._begin_read()
        try:
            distances = np.asarray(
                entry.executor.run(entry.oracle.query_many, pairs), dtype=float
            )
        finally:
            entry._end_read()
        with entry.lock:
            entry.queries_total += len(distances)
            entry.bulk_queries_total += len(distances)
        return distances

    # -- Dynamic updates -------------------------------------------------------

    def insert_edge(self, name: str, u: int, v: int):
        """Insert an edge on graph ``name`` (requires ``Capability.DYNAMIC``)."""
        return self._update(name, "insert_edge", u, v)

    def delete_edge(self, name: str, u: int, v: int):
        """Delete an edge on graph ``name`` (requires ``Capability.DYNAMIC``)."""
        return self._update(name, "delete_edge", u, v)

    def _update(self, name: str, op: str, u: int, v: int):
        entry = self._entry(name)
        if Capability.DYNAMIC not in capabilities_of(entry.oracle):
            raise CapabilityError(
                f"graph {name!r}: oracle {entry.oracle!r} does not advertise "
                f"Capability.DYNAMIC; open it with dynamic=True"
            )
        with entry.update_lock:  # one writer at a time
            with entry.lock:
                entry.writers_waiting += 1
                while entry.active_readers:
                    entry.gate.wait()
                entry.version += 1  # odd: update in progress
            try:
                # Queries keep *enqueueing* during the repair; none
                # executes until the version goes even again.
                result = getattr(entry.oracle, op)(int(u), int(v))
            finally:
                with entry.lock:
                    entry.version += 1  # even: swap published
                    entry.writers_waiting -= 1
                    entry.updates_total += 1
                    entry.gate.notify_all()
        return result

    def version(self, name: str) -> int:
        """The entry's seqlock version (odd while an update is applying)."""
        entry = self._entry(name)
        with entry.lock:
            return entry.version

    # -- Snapshots -------------------------------------------------------------

    def save(self, name: str, path) -> int:
        """Persist graph ``name``'s index (requires ``Capability.SNAPSHOT``).

        Runs under the reader gate, so the snapshot never interleaves
        with a dynamic update.
        """
        entry = self._entry(name)
        if Capability.SNAPSHOT not in capabilities_of(entry.oracle):
            raise CapabilityError(
                f"graph {name!r}: oracle {entry.oracle!r} does not advertise "
                f"Capability.SNAPSHOT"
            )
        entry._begin_read()
        try:
            return entry.oracle.save(path)
        finally:
            entry._end_read()

    # -- Observability ---------------------------------------------------------

    def stats(self, name: Optional[str] = None) -> Dict:
        """Serving statistics — per graph, or keyed by name when ``None``.

        Keys: ``queries`` / ``bulk_queries`` / ``batches`` / ``updates``
        (counts; ``queries`` includes the bulk path), ``qps`` (queries
        per second since registration), ``batch_occupancy`` (mean
        queries per micro-batch — >1 means coalescing is live),
        ``max_batch`` (largest batch seen), ``p50_ms`` / ``p99_ms``
        (coalesced-query latency percentiles over a sliding window),
        ``version``, ``kernel`` (the oracle's requested query kernel
        name, or ``None`` when it auto-detects / has no kernel seam),
        and ``executor`` (the entry's
        :meth:`~repro.serving.QueryExecutor.stats` dict: pool size,
        parallel/sequential batch counts, per-thread utilization).
        """
        if name is None:
            return {n: self.stats(n) for n in self.names()}
        entry = self._entry(name)
        with entry.lock:
            elapsed = max(time.perf_counter() - entry.started_at, 1e-9)
            latencies = np.array(entry.latencies, dtype=float)
            occupancy = (
                entry.batch_size_sum / entry.batches_total
                if entry.batches_total
                else 0.0
            )
            return {
                "queries": entry.queries_total,
                "bulk_queries": entry.bulk_queries_total,
                "batches": entry.batches_total,
                "updates": entry.updates_total,
                "qps": entry.queries_total / elapsed,
                "batch_occupancy": occupancy,
                "max_batch": entry.max_batch_seen,
                "p50_ms": float(np.percentile(latencies, 50) * 1e3)
                if latencies.size
                else 0.0,
                "p99_ms": float(np.percentile(latencies, 99) * 1e3)
                if latencies.size
                else 0.0,
                "version": entry.version,
                "kernel": getattr(entry.oracle, "kernel", None),
                "executor": entry.executor.stats(),
            }

    # -- Lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop all batch workers; idempotent.

        Oracles the service opened itself (:meth:`open`) are closed
        too, releasing any resources they hold (sharded worker
        processes, snapshot spools); oracles hosted via
        :meth:`register` belong to the caller and are left running.
        """
        with self._registry_lock:
            self._closed = True
            entries = list(self._entries.values())
        for entry in entries:
            entry.close()
        for entry in entries:
            oracle_close = getattr(entry.oracle, "close", None)
            if entry.owns_oracle and callable(oracle_close):
                oracle_close()

    def __enter__(self) -> "DistanceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
