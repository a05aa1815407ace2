"""Crash-injection tests: atomic publish, spool restart, SIGKILL recovery.

These tests simulate the failure modes the durability layer exists for:
a publisher killed mid-``os.replace`` (the old generation must survive),
a writer SIGKILLed mid-churn (the WAL must replay to the exact state),
and spool restarts (sequence numbers must never be reused).
"""

import os
import signal
import struct
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import build_oracle, open_oracle
from repro.core.fsck import fsck_path
from repro.core.query import HighwayCoverOracle
from repro.core.serialization import SnapshotSpool, load_oracle, save_oracle
from repro.core.wal import scan_wal
from repro.errors import ReproError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.disk_csr import open_disk_csr
from repro.graphs.sampling import sample_vertex_pairs

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get(
        "PYTHONPATH", ""
    )
    return env


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestAtomicSave:
    def test_interrupted_save_leaves_no_partial_file(self, ba_graph, tmp_path, monkeypatch):
        # A save that dies before the rename must leave neither a
        # partial file at the final name nor temp debris behind.
        import repro.core.serialization as ser

        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        target = tmp_path / "index.hl"
        save_oracle(oracle, target)
        before = target.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(ser.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_oracle(oracle, target)
        monkeypatch.undo()

        assert target.read_bytes() == before  # old file untouched
        assert list(tmp_path.glob("*.tmp")) == []  # debris cleaned up

    def test_save_overwrites_atomically(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        target = tmp_path / "index.hl"
        save_oracle(oracle, target)
        save_oracle(oracle, target)  # overwrite via rename, not truncate
        assert load_oracle(ba_graph, target).labelling == oracle.labelling.as_vertex_major()


class TestSnapshotSpoolDurability:
    def test_sequence_resumes_after_restart(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        first = SnapshotSpool(tmp_path / "spool")
        assert first.publish(oracle).name == "gen-000000.hl"
        assert first.publish(oracle).name == "gen-000001.hl"

        # A restarted writer must continue the sequence, never reuse a
        # number an old worker may still have mapped.
        second = SnapshotSpool(tmp_path / "spool")
        assert second.publish(oracle).name == "gen-000002.hl"
        assert second.latest().name == "gen-000002.hl"
        assert [p.name for p in second.generations()] == [
            "gen-000000.hl",
            "gen-000001.hl",
            "gen-000002.hl",
        ]

    def test_owned_spool_refuses_close_with_live_generations(self, ba_graph):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        spool = SnapshotSpool()  # owned temporary directory
        path = spool.publish(oracle)
        assert spool.live_generations() == [path]
        with pytest.raises(ReproError, match="live generations"):
            spool.close()
        assert path.exists()  # refusal must not have deleted anything
        spool.retire(path)
        spool.close()  # no longer live -> allowed
        assert not spool.directory.exists()

    def test_forced_close_overrides_live_guard(self, ba_graph):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        spool = SnapshotSpool()
        spool.publish(oracle)
        spool.close(force=True)
        assert not spool.directory.exists()

    def test_unowned_spool_close_keeps_directory(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        spool = SnapshotSpool(tmp_path / "spool")
        path = spool.publish(oracle)
        spool.close()  # caller's directory: never deleted
        assert path.exists()

    def test_graph_sidecar_round_trip(self, ba_graph, tmp_path):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        spool = SnapshotSpool(tmp_path / "spool")
        path = spool.publish(oracle, graph=True)
        sidecar = SnapshotSpool.graph_sidecar_for(path)
        assert sidecar.exists()
        restored = open_disk_csr(sidecar, mmap=False)
        assert restored.num_vertices == ba_graph.num_vertices
        assert sorted(restored.edges()) == sorted(ba_graph.edges())
        spool.retire(path)
        assert not sidecar.exists()

    def test_interrupted_publish_keeps_previous_generation(
        self, ba_graph, tmp_path, monkeypatch
    ):
        import repro.core.serialization as ser

        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        spool = SnapshotSpool(tmp_path / "spool")
        gen0 = spool.publish(oracle)
        before = gen0.read_bytes()

        monkeypatch.setattr(
            ser.os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("crash"))
        )
        with pytest.raises(OSError):
            spool.publish(oracle)
        monkeypatch.undo()

        assert gen0.read_bytes() == before
        assert spool.generations() == [gen0]  # no partial gen-000001.hl
        loaded = load_oracle(ba_graph, gen0, mmap=True)
        assert loaded.query(0, 1) == oracle.query(0, 1)


_KILL_MID_PUBLISH_CHILD = textwrap.dedent(
    """
    import os, sys, time
    from pathlib import Path

    import repro.core.serialization as ser
    from repro.core.dynamic import DynamicHighwayCoverOracle
    from repro.core.serialization import SnapshotSpool
    from repro.core.wal import WriteAheadLog
    from repro.graphs.generators import barabasi_albert_graph

    workdir = Path(sys.argv[1])
    graph = barabasi_albert_graph(120, 2, seed=41)
    oracle = DynamicHighwayCoverOracle(num_landmarks=6).build(graph)
    spool = SnapshotSpool(workdir / "spool")
    spool.publish(oracle)  # gen-000000.hl, complete

    oracle.attach_wal(WriteAheadLog(workdir / "wal.log"))
    u, v = map(int, sys.argv[2:4])
    oracle.insert_edge(u, v)

    real_replace = os.replace
    def stalling_replace(src, dst):
        (workdir / "mid-publish").touch()  # signal: tmp written + fsynced
        time.sleep(120)                    # parent SIGKILLs us here
        real_replace(src, dst)

    ser.os.replace = stalling_replace
    spool.publish(oracle)  # never completes
    """
)


class TestKillWriterMidPublish:
    def test_old_generation_survives_kill_mid_publish(self, tmp_path):
        graph = barabasi_albert_graph(120, 2, seed=41)
        u, v = next(
            (a, b)
            for a in range(120)
            for b in range(a + 1, 120)
            if not graph.has_edge(a, b)
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _KILL_MID_PUBLISH_CHILD, str(tmp_path), str(u), str(v)],
            env=_child_env(),
        )
        try:
            _wait_for(
                (tmp_path / "mid-publish").exists,
                message="child to reach the stalled rename",
            )
        finally:
            child.kill()
            child.wait()

        spool_dir = tmp_path / "spool"
        # The second publish never reached its final name: the only
        # generation is the old one, plus nameless temp debris.
        assert [p.name for p in sorted(spool_dir.glob("*.hl"))] == ["gen-000000.hl"]
        assert len(list(spool_dir.glob("*.tmp"))) == 1

        # The old generation is intact, fsck-clean, and mappable.
        gen0 = spool_dir / "gen-000000.hl"
        assert fsck_path(gen0).ok
        oracle0 = load_oracle(graph, gen0, mmap=True)

        # The WAL holds the un-snapshotted update; restart = gen0 + replay
        # serves the same distances as a fresh build of the final graph.
        assert [(r.op, r.u, r.v) for r in scan_wal(tmp_path / "wal.log").records] == [
            ("insert_edge", u, v)
        ]
        recovered = open_oracle(graph, index=gen0, wal=tmp_path / "wal.log")
        fresh = build_oracle(
            graph.with_edges_added([(u, v)]), "hl", num_landmarks=6
        )
        pairs = sample_vertex_pairs(graph, 150, seed=7)
        assert np.array_equal(recovered.query_many(pairs), fresh.query_many(pairs))
        recovered.wal.close()

        # A restarted spool resumes numbering past the surviving file.
        restarted = SnapshotSpool(spool_dir)
        assert restarted.publish(oracle0).name == "gen-000001.hl"


_KILL_MID_CHURN_CHILD = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    from repro.api import open_oracle
    from repro.graphs.generators import barabasi_albert_graph

    workdir = Path(sys.argv[1])
    graph = barabasi_albert_graph(120, 2, seed=42)
    oracle = open_oracle(graph, wal=workdir / "wal.log", num_landmarks=6)

    inserted = []
    candidates = (
        (u, v)
        for u in range(120)
        for v in range(u + 1, 120)
        if not graph.has_edge(u, v)
    )
    (workdir / "churning").touch()
    while True:  # churn until the parent SIGKILLs us
        u, v = next(candidates)
        oracle.insert_edge(u, v)
        inserted.append((u, v))
        if len(inserted) % 3 == 0:
            du, dv = inserted.pop(0)
            oracle.delete_edge(du, dv)
    """
)


class TestSigkillMidChurn:
    def test_restart_replays_to_byte_identical_distances(self, tmp_path):
        wal_path = tmp_path / "wal.log"
        child = subprocess.Popen(
            [sys.executable, "-c", _KILL_MID_CHURN_CHILD, str(tmp_path)],
            env=_child_env(),
        )
        try:
            # Let it apply a nontrivial amount of churn, then pull the plug.
            _wait_for(
                lambda: wal_path.exists() and wal_path.stat().st_size > 8 + 25 * 10,
                message="at least 10 WAL records",
            )
            time.sleep(0.2)  # land the kill at an arbitrary point
        finally:
            child.kill()
            child.wait()

        # Every acknowledged record survives; a torn tail is possible
        # but must be repaired silently on reopen.
        scan = scan_wal(wal_path)
        assert len(scan.records) >= 10

        graph = barabasi_albert_graph(120, 2, seed=42)
        recovered = open_oracle(graph, wal=wal_path, num_landmarks=6)
        assert len(recovered.wal) == len(scan.records)

        # Rebuild the final graph from the log and compare byte-for-byte.
        final = graph
        for record in scan.records:
            if record.op == "insert_edge":
                final = final.with_edges_added([(record.u, record.v)])
            else:
                final = final.with_edges_removed([(record.u, record.v)])
        fresh = build_oracle(final, "hl", num_landmarks=6)
        pairs = sample_vertex_pairs(graph, 200, seed=8)
        assert np.array_equal(recovered.query_many(pairs), fresh.query_many(pairs))
        assert (
            recovered.labelling.as_vertex_major() == fresh.labelling.as_vertex_major()
        )
        recovered.wal.close()


class TestShardedServiceRecovery:
    def test_sharded_restart_replays_wal(self, tmp_path):
        graph = barabasi_albert_graph(120, 2, seed=43)
        (u1, v1), (u2, v2) = [
            pair
            for pair in ((a, b) for a in range(120) for b in range(a + 1, 120))
            if not graph.has_edge(*pair)
        ][:2]
        wal_path = tmp_path / "wal.log"

        service = open_oracle(
            graph, shards=2, wal=wal_path, num_landmarks=6, spool_dir=tmp_path / "spool"
        )
        try:
            service.insert_edge(u1, v1)
            stats = service.stats()
            assert stats["wal"] == str(wal_path)
            # Remap mode publishes + truncates after every update.
            assert stats["wal_records"] == 0
            pairs = sample_vertex_pairs(graph, 100, seed=9)
            expected = service.query_many(pairs)
            latest = Path(stats["snapshot"])
            sidecar = SnapshotSpool.graph_sidecar_for(latest)
            assert sidecar.exists()  # recovery can reconstruct the graph
        finally:
            service.close()

        # Restart against the published generation's graph + the WAL.
        restarted = open_oracle(
            open_disk_csr(sidecar),
            shards=2,
            index=latest,
            wal=wal_path,
            spool_dir=tmp_path / "spool2",
        )
        try:
            assert np.array_equal(restarted.query_many(pairs), expected)
            restarted.insert_edge(u2, v2)
            fresh = build_oracle(
                graph.with_edges_added([(u1, v1), (u2, v2)]),
                "hl",
                num_landmarks=6,
            )
            assert np.array_equal(restarted.query_many(pairs), fresh.query_many(pairs))
        finally:
            restarted.close()
