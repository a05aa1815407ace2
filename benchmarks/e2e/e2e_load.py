"""Open- and closed-loop load over the ``repro`` wire protocol.

One process, one asyncio thread, a fixed number of connections. The
client speaks the protocol through the product's sans-io codec
(``repro.serving.net.wire``) but keeps its own connection logic: it
never retries or reconnects, so an overload rejection or a dropped
connection shows up as a failed request instead of being hidden.

The event loop runs on ``select()``, whose timeout has microsecond
resolution; the default epoll selector rounds every sleep up to a whole
millisecond, which would put up to 1 ms of generator lateness into the
latency of an open loop that sends every ~1 ms.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from typing import Callable, List, Optional, Sequence

from repro.serving.net import wire
from repro.serving.net.wire import FrameDecoder, Status

clock = time.perf_counter


class Log:
    """Per-request timestamps, outcome and decoded answer."""

    def __init__(self, decode: Callable[[bytes], object]) -> None:
        self.decode = decode
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[float] = []
        self.generation: List[int] = []
        self.status: List[int] = []
        self.values: List[object] = []
        self.payloads: List[object] = []
        self.outstanding = 0

    def add(self, due: float, item) -> int:
        self.due.append(due)
        self.sent.append(float("nan"))
        self.done.append(float("nan"))
        self.generation.append(0)
        self.status.append(0)
        self.values.append(None)
        self.payloads.append(item)
        return len(self.due) - 1

    def on_reply(self, index: int, frame, now: float) -> None:
        self.outstanding -= 1
        self.done[index] = now
        self.generation[index] = frame.generation
        self.status[index] = frame.kind
        if frame.kind == Status.OK:
            self.values[index] = self.decode(frame.payload)


class Connection:
    """One pipelined connection; replies are matched by request id."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.decoder = FrameDecoder()
        self.waiters = {}
        self.next_id = 1
        self.error: Optional[BaseException] = None
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                now = clock()
                for frame in self.decoder.feed(data):
                    log, index, future = self.waiters.pop(frame.request_id)
                    log.on_reply(index, frame, now)
                    if future is not None:
                        future.set_result(None)
        except (ConnectionError, OSError) as exc:
            self.error = exc
            for _, _, future in self.waiters.values():
                if future is not None and not future.done():
                    future.set_result(None)

    def send(self, op: int, payload: bytes, log: Log, index: int, future=None) -> None:
        request_id = self.next_id
        self.next_id += 1
        self.waiters[request_id] = (log, index, future)
        log.outstanding += 1
        log.sent[index] = clock()
        self.writer.write(wire.encode_frame(op, request_id, 0, payload))

    async def request(self, op: int, payload: bytes, log: Log, index: int) -> None:
        future = asyncio.get_running_loop().create_future()
        self.send(op, payload, log, index, future)
        await future

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def encode_query(pair) -> bytes:
    return wire.encode_pair(int(pair[0]), int(pair[1]))


async def connect(host: str, port: int, count: int) -> List[Connection]:
    conns = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(Connection(reader, writer))
    return conns


async def open_loop(conns: Sequence[Connection], log: Log, op: int,
                    encode: Callable, indices: Sequence[int]) -> None:
    """Send each logged request at its due time, round-robin."""
    for slot, index in enumerate(indices):
        delay = log.due[index] - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        conns[slot % len(conns)].send(op, encode(log.payloads[index]), log, index)


async def closed_loop(conn: Connection, log: Log, op: int, encode: Callable,
                      take: Callable[[], object], deadline: float) -> None:
    """Send the next item as soon as the previous reply arrived."""
    while clock() < deadline and conn.error is None:
        index = log.add(clock(), take())
        await conn.request(op, encode(log.payloads[index]), log, index)


async def sequential(conn: Connection, log: Log, items: Sequence, due: Sequence[float],
                     follow: Optional[Callable[[float], None]] = None) -> None:
    """Send each ``(op, pair)`` at its due time, after the previous reply.

    ``follow(due)`` runs right after each send, so the requests it sends
    on the same connection are pipelined behind it.
    """
    for d, (op, pair) in zip(due, items):
        delay = d - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        index = log.add(float(d), pair)
        future = asyncio.get_running_loop().create_future()
        conn.send(op, encode_query(pair), log, index, future)
        if follow is not None:
            follow(float(d))
        await future


async def settle(logs: Sequence[Log], conns: Sequence[Connection], timeout: float) -> None:
    """Wait until every sent request has its reply (or ``timeout``)."""
    deadline = clock() + timeout
    while clock() < deadline and any(log.outstanding for log in logs):
        if all(c.error is not None for c in conns):
            return
        await asyncio.sleep(0.01)


def run(coro):
    """Run ``coro`` on a select()-based event loop (see module docstring)."""
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
    ) as runner:
        return runner.run(coro)


__all__ = [
    "Connection", "Log", "closed_loop", "connect", "encode_query",
    "open_loop", "run", "sequential", "settle",
]
