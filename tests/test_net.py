"""Integration tests for the network front door (server + clients).

All tests run a real :class:`~repro.serving.net.NetServer` on loopback.
The bars:

* **Byte-identity.** Wire answers (point and pipelined batch) equal the
  in-process oracle exactly, including ``inf``.
* **Backpressure.** A saturated ingress rejects with ``OVERLOADED``
  carrying the server's ``retry_after`` hint; accepted requests still
  answer byte-exactly; client and server accounting reconcile.
* **Zero-downtime rollover.** Publishing a new snapshot generation
  swaps the backend mid-traffic with no failed request, and responses
  attribute to the generation that actually answered them.
* **Reconnect.** A restarted server is transparently re-dialed (capped
  exponential backoff) for idempotent reads; updates are never
  auto-resent.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import build_oracle, open_oracle
from repro.core.serialization import SnapshotSpool
from repro.errors import (
    CapabilityError,
    GraphError,
    OverloadedError,
    ProtocolError,
    StaleGenerationError,
)
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.sampling import sample_vertex_pairs
from repro.serving.net import (
    AsyncNetClient,
    NetClient,
    NetServer,
    SnapshotRollover,
)
from repro.serving.net import wire
from repro.serving.net.wire import FrameDecoder, Op, Status

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A ``run_forever`` server whose helper thread, once told the server is
#: listening (a line on stdin), sends SIGINT to *itself* — not to the
#: main thread that sits idle in the event loop's poll.
_SIGINT_CHILD = """
import signal, sys, threading
from repro.api import build_oracle
from repro.graphs.generators import barabasi_albert_graph
from repro.serving.net import NetServer

def interrupt_from_this_thread():
    sys.stdin.readline()
    signal.pthread_kill(threading.get_ident(), signal.SIGINT)

threading.Thread(target=interrupt_from_this_thread, daemon=True).start()
oracle = build_oracle(barabasi_albert_graph(60, 2, seed=1), "hl", num_landmarks=4)
NetServer(oracle).run_forever()
"""


@pytest.fixture(scope="module")
def net_graph():
    return barabasi_albert_graph(300, 3, seed=5)


@pytest.fixture(scope="module")
def net_oracle(net_graph):
    return build_oracle(net_graph, "hl", num_landmarks=8)


@pytest.fixture(scope="module")
def net_pairs(net_graph):
    return sample_vertex_pairs(net_graph, 64, seed=2)


class _SlowBackend:
    """Query-protocol wrapper that sleeps first — saturates the ingress."""

    def __init__(self, oracle, delay_s: float) -> None:
        self.oracle = oracle
        self.delay_s = delay_s

    def query(self, s, t):
        time.sleep(self.delay_s)
        return self.oracle.query(s, t)

    def query_many(self, pairs):
        time.sleep(self.delay_s)
        return self.oracle.query_many(pairs)


def _non_edge(graph, start=0):
    u = start
    for v in range(graph.num_vertices - 1, 0, -1):
        if u != v and not graph.has_edge(u, v):
            return u, v
    raise AssertionError("graph is complete")


class TestQueries:
    def test_point_and_batch_byte_identity(self, net_oracle, net_pairs):
        truth = net_oracle.query_many(net_pairs)
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                s, t = map(int, net_pairs[0])
                assert client.query(s, t) == truth[0]
                assert np.array_equal(client.query_many(net_pairs), truth)

    def test_pipelined_chunks_reassemble_in_order(self, net_oracle, net_pairs):
        truth = net_oracle.query_many(net_pairs)
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                distances, gens = client.query_many(
                    net_pairs, batch_size=5, window=4, with_generations=True
                )
                assert np.array_equal(distances, truth)
                assert set(gens) == {1}

    def test_disconnected_pair_is_inf_over_the_wire(self):
        from repro.graphs.graph import Graph

        graph = Graph(4, [(0, 1), (2, 3)], name="disconnected")
        oracle = build_oracle(graph, "hl", num_landmarks=2)
        with NetServer(oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                assert client.query(0, 2) == float("inf")
                out = client.query_many([(0, 2), (0, 1)])
                assert np.isinf(out[0]) and out[1] == 1.0

    def test_health_and_stats_verbs(self, net_oracle, net_pairs):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                client.query_many(net_pairs)
                health = client.health()
                assert health["ok"] and health["generation"] == 1
                stats = client.stats()
                assert stats["generation"] == 1
                assert stats["accepted"] >= 1
                assert len(stats["clients"]) == 1
                (peer_stats,) = stats["clients"].values()
                # The STATS request itself is still in flight when the
                # payload snapshots the counters.
                assert peer_stats["accepted"] == peer_stats["responses"] + 1

    def test_bad_vertex_maps_to_graph_error(self, net_oracle):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                with pytest.raises(GraphError, match="out of range"):
                    client.query(0, 10**9)
                # The connection survives a per-request error.
                assert client.query(0, 1) == net_oracle.query(0, 1)

    def test_stale_generation_rejected_not_answered(self, net_oracle):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                with pytest.raises(StaleGenerationError) as info:
                    client.query(0, 1, min_generation=99)
                assert info.value.generation == 1  # the serving generation
                assert client.query(0, 1, min_generation=1) == pytest.approx(
                    net_oracle.query(0, 1)
                )

    def test_update_on_static_backend_is_unsupported(self, net_oracle):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                with pytest.raises(CapabilityError, match="DYNAMIC"):
                    client.insert_edge(0, 299)


class TestWireUpdates:
    def test_insert_delete_round_trip_with_generation_bumps(self, net_graph):
        dyn = build_oracle(net_graph, "hl", num_landmarks=8, dynamic=True)
        u, v = _non_edge(net_graph)
        with NetServer(dyn).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                before = client.query(u, v)
                assert before > 1.0
                client.insert_edge(u, v)
                assert client.generation == 2  # updates bump the generation
                assert client.query(u, v) == 1.0
                client.delete_edge(u, v)
                assert client.query(u, v) == before
                assert client.health()["generation"] == 3

    def test_read_your_writes_with_min_generation(self, net_graph):
        dyn = build_oracle(net_graph, "hl", num_landmarks=8, dynamic=True)
        u, v = _non_edge(net_graph)
        with NetServer(dyn).running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                client.insert_edge(u, v)
                observed = client.generation
                # A second client insisting on that generation gets it.
                with NetClient(host, port) as other:
                    assert (
                        other.query(u, v, min_generation=observed) == 1.0
                    )


class TestOverload:
    """Satellite: saturate the ingress and reconcile the accounting."""

    def test_rejects_carry_retry_after_and_accepted_stay_exact(
        self, net_oracle, net_pairs
    ):
        server = NetServer(
            _SlowBackend(net_oracle, delay_s=0.3),
            max_queue=1,
            retry_after_s=0.07,
            worker_threads=1,
        )
        truth = net_oracle.query_many(net_pairs[:4])
        payload = wire.encode_pairs(net_pairs[:4])
        total = 6
        with server.running_in_thread() as (host, port):
            with socket.create_connection((host, port)) as sock:
                # Blast frames without reading: only one fits the queue.
                for request_id in range(1, total + 1):
                    sock.sendall(
                        wire.encode_frame(Op.BATCH, request_id, 0, payload)
                    )
                decoder = FrameDecoder()
                frames = []
                while len(frames) < total:
                    data = sock.recv(65536)
                    assert data, "server closed mid-conversation"
                    frames.extend(decoder.feed(data))
            rejected = [f for f in frames if f.kind == Status.OVERLOADED]
            accepted = [f for f in frames if f.kind == Status.OK]
            assert len(accepted) >= 1
            assert len(rejected) == total - len(accepted)
            for frame in rejected:
                retry_after, message = wire.decode_error(frame.payload)
                assert retry_after == pytest.approx(0.07)
                assert "ingress full" in message
            for frame in accepted:
                assert np.array_equal(
                    wire.decode_distances(frame.payload), truth
                )
            stats = server.stats()
            assert stats["accepted"] == len(accepted)
            assert stats["rejected"] == len(rejected)
            assert stats["queued"] == 0 and stats["inflight_bytes"] == 0

    def test_client_waits_out_overload_and_counters_reconcile(
        self, net_oracle, net_pairs
    ):
        server = NetServer(
            _SlowBackend(net_oracle, delay_s=0.05),
            max_queue=1,
            retry_after_s=0.02,
            worker_threads=1,
        )
        truth = net_oracle.query_many(net_pairs)
        with server.running_in_thread() as (host, port):
            clients = [NetClient(host, port) for _ in range(3)]
            outputs = [None] * len(clients)
            errors = []

            def run(i):
                try:
                    outputs[i] = clients[i].query_many(
                        net_pairs, batch_size=16, window=4
                    )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(len(clients))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for out in outputs:
                assert np.array_equal(out, truth)
            stats = server.stats()
            # The cooperative retries were rejections, not failures...
            assert stats["rejected"] >= 1
            assert sum(c.overload_retries for c in clients) == stats["rejected"]
            # ...and every frame any client sent is in the ledger.
            assert sum(c.sent for c in clients) == (
                stats["accepted"] + stats["rejected"]
            )
            ledger = stats["clients"]
            assert sum(p["accepted"] for p in ledger.values()) == stats["accepted"]
            assert sum(p["rejected"] for p in ledger.values()) == stats["rejected"]
            for client in clients:
                client.close()

    def test_overload_surfaces_after_retry_budget(self, net_oracle, net_pairs):
        server = NetServer(
            _SlowBackend(net_oracle, delay_s=0.5),
            max_queue=1,
            retry_after_s=0.01,
            worker_threads=1,
        )
        with server.running_in_thread() as (host, port):
            blocker = NetClient(host, port)
            # Occupy the single queue slot with a slow batch...
            blocker_thread = threading.Thread(
                target=lambda: blocker.query_many(net_pairs[:4])
            )
            blocker_thread.start()
            time.sleep(0.1)
            # ...so an impatient client exhausts its retry budget.
            with NetClient(host, port, max_overload_retries=2) as client:
                with pytest.raises(OverloadedError) as info:
                    client.query(0, 1)
                assert info.value.retry_after == pytest.approx(0.01)
                assert client.overload_retries == 3  # budget + the last straw
            blocker_thread.join()
            blocker.close()


class TestProtocolViolations:
    def test_garbage_gets_error_frame_then_disconnect(self, net_oracle):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with socket.create_connection((host, port)) as sock:
                sock.sendall(b"\x10\x00\x00\x00GARBAGEGARBAGE!!")
                decoder = FrameDecoder()
                frames = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break  # server hung up, as specified
                    frames.extend(decoder.feed(data))
            assert len(frames) == 1
            assert frames[0].kind == Status.PROTOCOL_ERROR
            assert frames[0].request_id == 0  # unattributable

    def test_response_status_in_request_direction_keeps_connection(
        self, net_oracle
    ):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            with socket.create_connection((host, port)) as sock:
                sock.sendall(wire.encode_frame(Status.OK, 7, 0, b""))
                sock.sendall(
                    wire.encode_frame(
                        Op.QUERY, 8, 0, wire.encode_pair(0, 1)
                    )
                )
                decoder = FrameDecoder()
                frames = []
                while len(frames) < 2:
                    data = sock.recv(65536)
                    assert data
                    frames.extend(decoder.feed(data))
            by_id = {f.request_id: f for f in frames}
            assert by_id[7].kind == Status.PROTOCOL_ERROR
            assert by_id[8].kind == Status.OK  # stream still aligned

    def test_client_rejects_oversized_frames(self, net_oracle):
        with NetServer(net_oracle).running_in_thread() as (host, port):
            client = NetClient(host, port, max_frame_bytes=128)
            with pytest.raises(ProtocolError, match="exceeds"):
                client.query_many(np.tile([[0, 1]], (64, 1)))
            client.close()


class TestRollover:
    def _publish_generations(self, tmp_path, graph):
        """gen-0 from a static build, gen-1 after one edge insert."""
        base = build_oracle(graph, "hl", num_landmarks=8)
        spool = SnapshotSpool(tmp_path / "spool")
        gen0 = spool.publish(base, graph=True)
        mirror = open_oracle(graph, index=gen0, dynamic=True)
        return base, spool, gen0, mirror

    def test_swap_is_invisible_except_for_the_generation(
        self, tmp_path, net_graph, net_pairs
    ):
        base, spool, gen0, mirror = self._publish_generations(
            tmp_path, net_graph
        )
        truth_gen1 = base.query_many(net_pairs)
        server = NetServer(
            open_oracle(net_graph, index=gen0, mmap=True),
            rollover=SnapshotRollover(
                spool.directory, graph=net_graph, poll_s=0.02
            ),
            snapshot=gen0,
            owns_backend=True,
        )
        with server.running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                out, gens = client.query_many(
                    net_pairs, with_generations=True
                )
                assert np.array_equal(out, truth_gen1)
                assert set(gens) == {1}

                u, v = _non_edge(net_graph)
                mirror.insert_edge(u, v)
                truth_gen2 = mirror.query_many(net_pairs)
                spool.publish(mirror, graph=True)
                deadline = time.monotonic() + 10
                while client.health()["generation"] < 2:
                    assert time.monotonic() < deadline, "rollover never landed"
                    time.sleep(0.02)

                out, gens = client.query_many(
                    net_pairs, with_generations=True
                )
                assert np.array_equal(out, truth_gen2)
                assert set(gens) == {2}
                # The sidecar carried the updated graph: the new edge
                # answers 1.0 without this server ever seeing an update.
                assert client.query(u, v) == 1.0
                stats = client.stats()
                assert stats["rollovers"] == 1
                assert stats["rollover_errors"] == 0
                assert stats["errors"] == 0
        spool.close(force=True)

    def test_queries_never_fail_across_continuous_swaps(
        self, tmp_path, net_graph, net_pairs
    ):
        """Hammer queries while three generations publish underneath."""
        base, spool, gen0, mirror = self._publish_generations(
            tmp_path, net_graph
        )
        expected = {1: base.query_many(net_pairs)}
        server = NetServer(
            open_oracle(net_graph, index=gen0, mmap=True),
            rollover=SnapshotRollover(
                spool.directory, graph=net_graph, poll_s=0.02
            ),
            snapshot=gen0,
            owns_backend=True,
        )
        failures, records = [], []
        stop = threading.Event()

        def hammer():
            with NetClient(server.host, server.port) as client:
                while not stop.is_set():
                    try:
                        out, gens = client.query_many(
                            net_pairs, batch_size=16, with_generations=True
                        )
                        records.append((out, gens))
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
                        return

        with server.running_in_thread() as (host, port):
            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for t in threads:
                t.start()
            probe = NetClient(host, port)
            start = 0
            for target in (2, 3, 4):
                u, v = _non_edge(net_graph, start)
                start = u + 1
                mirror.insert_edge(u, v)
                expected[target] = mirror.query_many(net_pairs)
                spool.publish(mirror, graph=True)
                deadline = time.monotonic() + 10
                while probe.health()["generation"] < target:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            probe.close()
            stop.set()
            for t in threads:
                t.join()

        assert not failures
        seen = set()
        for out, gens in records:
            for g in np.unique(gens):
                seen.add(int(g))
                mask = gens == g
                assert np.array_equal(out[mask], expected[int(g)][mask])
        assert {1, 4} <= seen  # load spanned first and final generations
        spool.close(force=True)

    def test_sharded_backend_rollover_respawns_workers(
        self, tmp_path, net_graph, net_pairs
    ):
        base, spool, gen0, mirror = self._publish_generations(
            tmp_path, net_graph
        )
        rollover = SnapshotRollover(
            spool.directory, graph=net_graph, poll_s=0.05, shards=2
        )
        server = NetServer(
            rollover.load(gen0),
            rollover=rollover,
            snapshot=gen0,
            owns_backend=True,
        )
        with server.running_in_thread() as (host, port):
            with NetClient(host, port) as client:
                assert np.array_equal(
                    client.query_many(net_pairs), base.query_many(net_pairs)
                )
                u, v = _non_edge(net_graph)
                mirror.insert_edge(u, v)
                spool.publish(mirror, graph=True)
                deadline = time.monotonic() + 30
                while client.health()["generation"] < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert np.array_equal(
                    client.query_many(net_pairs), mirror.query_many(net_pairs)
                )
                assert server.backend is not None
                assert server.stats()["backend"]["shards"] == 2
        spool.close(force=True)


class TestReconnect:
    def test_reads_survive_a_server_restart(self, net_oracle, net_pairs):
        truth = net_oracle.query_many(net_pairs)
        first = NetServer(net_oracle)
        host, port = first.serve_in_thread()
        client = NetClient(
            host, port, backoff_base=0.02, connect_attempts=8
        )
        assert np.array_equal(client.query_many(net_pairs), truth)
        first.shutdown()

        second = NetServer(net_oracle, host=host, port=port)
        deadline = time.monotonic() + 10
        while True:
            try:
                second.serve_in_thread()
                break
            except OSError:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        try:
            assert np.array_equal(client.query_many(net_pairs), truth)
            assert client.reconnects >= 1
        finally:
            client.close()
            second.shutdown()

    def test_updates_are_never_auto_resent(self, net_graph):
        dyn = build_oracle(net_graph, "hl", num_landmarks=8, dynamic=True)
        server = NetServer(dyn)
        host, port = server.serve_in_thread()
        client = NetClient(host, port, connect_attempts=1)
        client.connect()
        server.shutdown()
        u, v = _non_edge(net_graph)
        with pytest.raises((ConnectionError, OSError)):
            client.insert_edge(u, v)
        client.close()

    def test_backoff_delays_are_capped_exponentials(self):
        client = NetClient(
            "127.0.0.1", 1, connect_attempts=6,
            backoff_base=0.1, backoff_cap=0.5,
        )
        assert client._backoff_delays() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_connect_gives_up_after_its_attempts(self):
        # A port from the dynamic range with (almost surely) no listener.
        client = NetClient(
            "127.0.0.1", 1, connect_attempts=2, backoff_base=0.01
        )
        with pytest.raises(OSError):
            client.connect()


class TestAsyncClient:
    def test_async_surface_matches_sync(self, net_oracle, net_pairs):
        import asyncio

        truth = net_oracle.query_many(net_pairs)
        with NetServer(net_oracle).running_in_thread() as (host, port):

            async def scenario():
                async with AsyncNetClient(host, port) as client:
                    s, t = map(int, net_pairs[0])
                    point = await client.query(s, t)
                    bulk = await client.query_many(net_pairs, batch_size=16)
                    health = await client.health()
                    stats = await client.stats()
                    concurrent = await asyncio.gather(
                        *(
                            client.query(int(a), int(b))
                            for a, b in net_pairs[:8]
                        )
                    )
                    return point, bulk, health, stats, concurrent

            point, bulk, health, stats, concurrent = asyncio.run(scenario())
        assert point == truth[0]
        assert np.array_equal(bulk, truth)
        assert health["ok"] and stats["generation"] == 1
        assert np.array_equal(np.array(concurrent), truth[:8])

    def test_async_errors_are_typed(self, net_oracle):
        import asyncio

        with NetServer(net_oracle).running_in_thread() as (host, port):

            async def scenario():
                async with AsyncNetClient(host, port) as client:
                    with pytest.raises(GraphError):
                        await client.query(0, 10**9)
                    with pytest.raises(StaleGenerationError):
                        await client.query(0, 1, min_generation=42)
                    with pytest.raises(CapabilityError):
                        await client.insert_edge(0, 1)

            asyncio.run(scenario())


class TestServerLifecycle:
    def test_bind_conflict_surfaces_in_the_caller(self, net_oracle):
        first = NetServer(net_oracle)
        host, port = first.serve_in_thread()
        try:
            second = NetServer(net_oracle, host=host, port=port)
            with pytest.raises(OSError):
                second.serve_in_thread()
        finally:
            first.shutdown()

    def test_constructor_validation(self, net_oracle):
        with pytest.raises(ValueError, match="max_queue"):
            NetServer(net_oracle, max_queue=0)
        with pytest.raises(ValueError, match="generation"):
            NetServer(net_oracle, generation=0)
        with pytest.raises(ValueError, match="worker_threads"):
            NetServer(net_oracle, worker_threads=0)
        with pytest.raises(ValueError, match="shards"):
            SnapshotRollover(".", shards=1)

    def test_shutdown_is_idempotent(self, net_oracle):
        server = NetServer(net_oracle)
        server.serve_in_thread()
        server.shutdown()
        server.shutdown()  # no-op, no error

    def test_sigint_on_another_thread_stops_run_forever(self):
        """SIGINT delivered to a non-main thread still wakes the idle
        loop, so ``run_forever`` stops and the process exits 0."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (REPO_SRC, env.get("PYTHONPATH")))
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _SIGINT_CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            ready, _, _ = select.select([child.stdout], [], [], 60)
            assert ready, "server never started listening"
            line = child.stdout.readline()
            assert line.startswith("serving on"), line + child.stderr.read()
            child.stdin.write("\n")
            child.stdin.flush()
            assert child.wait(timeout=5) == 0, child.stderr.read()
        finally:
            if child.poll() is None:
                child.kill()
            child.communicate()
