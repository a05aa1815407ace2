"""Thread-parallel query execution over the no-GIL kernels.

The compiled ``cext`` kernel backend drops the GIL for every bounded
search, which makes intra-process thread parallelism
profitable for the first time: several threads can expand BFS frontiers
on different CPU cores *simultaneously*, against one shared read-only
label store — the shared-nothing-reader pattern, with the "nothing"
being each thread's private :class:`~repro.core.kernels.Workspace`.
This module supplies the missing execution layer:

* :class:`QueryExecutor` — a reusable pool of worker threads that
  splits a ``query_many`` pair batch into contiguous chunks, answers
  every chunk on its own thread (each thread lazily materializes its
  own per-thread kernel workspace through the thread-local
  :func:`~repro.core.kernels.get_workspace`), and reassembles the
  results in submission order. ``query_many`` is row-independent and
  exact, so the reassembled answer is byte-identical to the sequential
  call — asserted by ``tests/test_executor.py`` and (optionally, with
  ``verify=True``) on every single run.
* :func:`resolve_threads` — the thread-count policy shared by both
  serving tiers: an explicit ``threads=`` argument wins, then the
  ``REPRO_THREADS`` environment variable, then auto-detection (one
  thread per CPU when the active kernel advertises ``releases_gil``,
  exactly one thread — i.e. plain sequential execution — otherwise,
  because GIL-holding backends only add contention).

Chunks are assigned to workers *statically* (chunk ``i`` runs on worker
``i``): chunks are equal-sized, so work stealing buys nothing, and the
static assignment makes per-thread accounting exact and the
thread/workspace mapping deterministic (the isolation test relies on
it). Worker threads are daemonic and created on first parallel run;
:meth:`QueryExecutor.close` retires them (also via context manager).

Both serving tiers compose with this layer: a
:class:`~repro.serving.DistanceService` entry drains its coalesced
micro-batches through an executor, and every
:class:`~repro.serving.ShardedDistanceService` worker process runs its
own — N processes × M threads. See ``docs/serving.md`` ("Thread
scaling") for guidance on choosing N and M.

Example::

    from repro.serving import QueryExecutor

    with QueryExecutor(threads=4, kernel="cext") as executor:
        distances = executor.run(oracle.query_many, pairs)
        print(executor.stats()["per_thread"])
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Callable, List, Optional, Union

import numpy as np

from repro.core.kernels import KernelBackend, resolve_kernel

__all__ = ["QueryExecutor", "resolve_threads"]

#: Environment variable naming the default executor thread count (an
#: explicit request, like ``REPRO_KERNEL``): overridden by ``threads=``
#: arguments, overrides auto-detection.
ENV_VAR = "REPRO_THREADS"

#: Smallest chunk worth shipping to a worker thread: below this the
#: per-chunk fixed cost (bound vectorization setup, thread handoff)
#: dominates whatever the extra core could recover.
MIN_CHUNK = 64


def resolve_threads(
    threads: Optional[int] = None,
    kernel: Union[KernelBackend, str, None] = None,
) -> int:
    """Resolve an executor thread count (explicit > env > auto).

    Args:
        threads: explicit thread count; must be >= 1 when given.
        kernel: the kernel backend (instance, name, or ``None`` for the
            process default) whose ``releases_gil`` flag decides the
            auto case.

    Returns:
        ``threads`` when given; else ``int($REPRO_THREADS)`` when set;
        else ``os.cpu_count()`` if the resolved backend releases the
        GIL during searches, and 1 (sequential) if it does not — extra
        threads on a GIL-holding backend only add lock contention.

    Raises:
        ValueError: on a non-positive or non-integer request (argument
            or environment variable — setting ``REPRO_THREADS`` *is* an
            explicit request, so it fails loudly like ``REPRO_KERNEL``).
    """
    if threads is None:
        env = os.environ.get(ENV_VAR)
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_VAR}={env!r} is not an integer thread count"
                ) from None
    if threads is not None:
        threads = int(threads)
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        return threads
    backend = resolve_kernel(kernel)
    if not backend.releases_gil:
        return 1
    return max(1, os.cpu_count() or 1)


class _WorkerStats:
    """Per-worker accounting (chunks executed, busy seconds)."""

    __slots__ = ("chunks", "busy_s")

    def __init__(self) -> None:
        self.chunks = 0
        self.busy_s = 0.0


class _Worker(threading.Thread):
    """One pool thread: drains its private queue of ``(fn, chunk, slot)``.

    Owning a private queue (instead of sharing one) pins chunk ``i`` to
    worker ``i``, which makes per-thread utilization exact and the
    thread-to-workspace mapping deterministic.
    """

    def __init__(self, index: int, name: str) -> None:
        super().__init__(name=name, daemon=True)
        self.index = index
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.stats = _WorkerStats()

    def run(self) -> None:
        """Drain tasks until the ``None`` retirement sentinel arrives."""
        while True:
            task = self.inbox.get()
            if task is None:
                return
            fn, chunk, results, slot, pending, done = task
            started = time.perf_counter()
            try:
                results[slot] = (True, fn(chunk))
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                results[slot] = (False, exc)
            finally:
                self.stats.busy_s += time.perf_counter() - started
                self.stats.chunks += 1
                with pending[1]:
                    pending[0] -= 1
                    if pending[0] == 0:
                        done.notify_all()


class QueryExecutor:
    """A reusable thread pool answering ``query_many`` batches in chunks.

    Args:
        threads: worker thread count; ``None`` resolves through
            :func:`resolve_threads` (``REPRO_THREADS``, then one thread
            per CPU iff ``kernel`` releases the GIL).
        kernel: the kernel backend (name, instance, or ``None`` for the
            process default) the auto-detection consults; also reported
            by :meth:`stats`. Purely advisory — the *compute* kernel is
            whatever the supplied ``query_many`` callable uses.
        min_chunk: smallest chunk shipped to a worker; batches smaller
            than ``2 * min_chunk`` run sequentially on the caller's
            thread (the pool cannot recover its handoff cost on them).
        verify: when True, every parallel run *also* executes the
            sequential path and asserts the reassembled answer is
            byte-identical — the self-checking mode the benchmarks and
            CI smoke run in. Costs 2x; leave False in production.

    Thread safety: :meth:`run` may be called from any thread, but calls
    are serialized internally (one batch in flight at a time) — the
    serving tiers call it from exactly one drain thread anyway.
    """

    def __init__(
        self,
        threads: Optional[int] = None,
        kernel: Union[KernelBackend, str, None] = None,
        min_chunk: int = MIN_CHUNK,
        verify: bool = False,
    ) -> None:
        if min_chunk < 1:
            raise ValueError(f"min_chunk must be at least 1, got {min_chunk}")
        self.threads = resolve_threads(threads, kernel)
        self.kernel = (
            kernel.name if isinstance(kernel, KernelBackend) else kernel
        )
        self.min_chunk = int(min_chunk)
        self.verify = verify
        self._workers: List[_Worker] = []
        self._run_lock = threading.Lock()  # one batch in flight at a time
        self._lock = threading.Lock()  # guards counters/lifecycle
        self._closed = False
        self._started_at = time.perf_counter()
        self._parallel_batches = 0
        self._sequential_batches = 0

    @classmethod
    def for_oracle(cls, oracle, threads: Optional[int] = None, **options) -> "QueryExecutor":
        """An executor sized for ``oracle``'s query kernel.

        The auto case consults ``oracle.kernel_backend`` (the HL
        family's resolved backend). Oracles without that seam — the
        looped baselines, and composite services like
        :class:`~repro.serving.ShardedDistanceService` whose
        parallelism already lives in worker processes — get a
        sequential executor unless ``threads`` explicitly asks for a
        pool: their ``query_many`` holds the GIL (or is IPC-bound), so
        threading it would only add overhead.
        """
        if threads is None and not hasattr(oracle, "kernel_backend"):
            return cls(threads=1, **options)
        backend = getattr(oracle, "kernel_backend", None)
        return cls(threads=threads, kernel=backend, **options)

    # -- Execution -----------------------------------------------------------

    def run(self, query_many: Callable, pairs) -> np.ndarray:
        """Answer ``query_many(pairs)``, split across the worker threads.

        The batch is split into at most ``threads`` contiguous chunks
        of at least ``min_chunk`` rows; chunk ``i`` executes
        ``query_many(chunk)`` on worker thread ``i`` (whose kernel
        workspace is thread-local), and the per-chunk answers are
        concatenated in order. ``query_many`` callables returning a
        tuple of aligned arrays (e.g. ``(distances, covered)``) are
        reassembled per position.

        Batches too small to amortize the handoff — or any batch on a
        single-thread executor — run sequentially on the calling
        thread; the answer is identical either way.

        Raises:
            Whatever ``query_many`` raised on the first failing chunk
            (re-raised after every chunk finished, so no worker is left
            writing into a dead batch's results).
        """
        with self._run_lock:
            with self._lock:
                if self._closed:
                    raise RuntimeError("executor is closed")
                chunk_count = min(
                    self.threads, max(1, len(pairs) // self.min_chunk)
                )
                if chunk_count < 2:
                    self._sequential_batches += 1
                else:
                    self._ensure_workers()
                    self._parallel_batches += 1
            if chunk_count < 2:
                return query_many(pairs)
            chunks = np.array_split(pairs, chunk_count)
            results: List = [None] * chunk_count
            done = threading.Condition()
            pending = [chunk_count, done]
            for slot, chunk in enumerate(chunks):
                self._workers[slot].inbox.put(
                    (query_many, chunk, results, slot, pending, done)
                )
            with done:
                while pending[0]:
                    done.wait()
            for ok, value in results:
                if not ok:
                    raise value
            answer = self._reassemble([value for _, value in results])
            if self.verify:
                expected = query_many(pairs)
                self._assert_identical(answer, expected)
            return answer

    @staticmethod
    def _reassemble(parts: List):
        """Concatenate per-chunk results (arrays, or tuples of arrays)."""
        if isinstance(parts[0], tuple):
            return tuple(
                np.concatenate([np.asarray(p[i]) for p in parts])
                for i in range(len(parts[0]))
            )
        return np.concatenate([np.asarray(p) for p in parts])

    @staticmethod
    def _assert_identical(answer, expected) -> None:
        """``verify=True`` check: parallel must equal sequential, bytewise."""
        answers = answer if isinstance(answer, tuple) else (answer,)
        expecteds = expected if isinstance(expected, tuple) else (expected,)
        for got, want in zip(answers, expecteds):
            assert np.array_equal(
                np.asarray(got), np.asarray(want)
            ), "thread-parallel answers diverged from the sequential path"

    def _ensure_workers(self) -> None:
        if self._workers:
            return
        for index in range(self.threads):
            worker = _Worker(index, f"qexec-{index}")
            worker.start()
            self._workers.append(worker)
        self._started_at = time.perf_counter()

    # -- Observability -------------------------------------------------------

    def stats(self) -> dict:
        """Executor statistics.

        Keys: ``threads`` (pool size), ``kernel`` (the advisory kernel
        name, or ``None``), ``parallel_batches`` /
        ``sequential_batches`` (how many :meth:`run` calls used the
        pool vs. ran inline), and ``per_thread`` — one dict per worker
        with ``chunks``, ``busy_s`` and ``utilization`` (busy fraction
        since the pool started; all zeros until the first parallel
        run).
        """
        with self._lock:
            elapsed = max(time.perf_counter() - self._started_at, 1e-9)
            per_thread = [
                {
                    "chunks": w.stats.chunks,
                    "busy_s": w.stats.busy_s,
                    "utilization": w.stats.busy_s / elapsed,
                }
                for w in self._workers
            ]
            return {
                "threads": self.threads,
                "kernel": self.kernel,
                "parallel_batches": self._parallel_batches,
                "sequential_batches": self._sequential_batches,
                "per_thread": per_thread,
            }

    # -- Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Retire the worker threads; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.inbox.put(None)
        for worker in workers:
            worker.join()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "live" if self._workers else "idle"
        )
        return f"QueryExecutor(threads={self.threads}, {state})"
