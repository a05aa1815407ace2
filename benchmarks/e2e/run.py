#!/usr/bin/env python3
"""End-to-end benchmark of the highway-cover distance oracle.

Runs seeded workloads against the real entry points — ``repro build``,
``repro ingest`` and ``repro serve``, each a child process — drives the
server over the wire protocol from this one process, verifies every
answer, and prints every metric by name with its unit. The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Usage::

    python3 benchmarks/e2e/run.py --workload point-open --seed 1
        [--seconds 10] [--trace 0|1] [--smoke] [--repeat N] [--record]

``--trace 1`` starts the product through ``traced_main.py`` and reports
the per-layer metrics instead of the end-to-end ones; ``--record``
appends the run to ``results/BENCH_e2e.json``; ``--repeat N`` runs
seeds ``seed .. seed+N-1`` and reports medians plus the spread that
``BENCHMARK.json``'s bounds are calibrated from. Without ``--workload``
every workload runs in turn. All files the benchmark writes live under
``benchmarks/e2e/.work/``; each run removes its own directory there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TMP = WORK / "tmp"
RECORDS = HERE / "results" / "BENCH_e2e.json"
CALIBRATION = HERE / "results" / "calibration.json"

clock = time.perf_counter

#: glibc settings the out-of-core memory bound is stated under
#: (see ``tools/gauntlet.py``): every >= 128 KiB array is mmap-backed,
#: so a phase's scratch returns to the OS when it is freed.
OOC_MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "MALLOC_TRIM_THRESHOLD_": "131072",
    "MALLOC_ARENA_MAX": "2",
}


#: A stopped server must exit within this long. ``NetServer.stop`` itself
#: waits up to 5 s for in-flight requests and 5 s for open connections,
#: so a longer wait means a hang, not a slow drain.
STOP_TIMEOUT_S = 15.0
#: ``asyncio.run`` installs its SIGINT handler without a wakeup fd, so a
#: SIGINT that lands just before an idle loop blocks in ``epoll_wait``
#: waits for the loop's next event. A server still running this long
#: after SIGINT is given one (a connection); ``stop_wakeups`` counts them.
STOP_WAKEUP_S = 2.0


class BenchError(RuntimeError):
    """The run is invalid: a guard tripped or a product child misbehaved."""


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    graph: str  # "ba" (in-memory build) or "attach" (out-of-core build)
    serve_flags: tuple
    loop: str  # "open" or "closed"
    batch: bool = False
    rate: float = 0.0  # open-loop reads per second
    update_rate: float = 0.0  # open-loop updates per second
    #: Reads the updating client pipelines right behind each update
    #: (read-your-writes): they wait out the whole repair at the gate.
    update_reads: int = 0

    @property
    def ooc(self) -> bool:
        return self.graph == "attach"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point-open", "ba", ("--mmap",), "open", rate=1000),
        Workload("batch-closed", "ba", ("--mmap",), "closed", batch=True),
        Workload("churn-open", "ba", ("--dynamic",), "open", rate=500, update_rate=0.5,
                 update_reads=64),
        Workload("build-ooc", "attach", ("--mmap",), "open", rate=1000),
    )
}


@dataclass(frozen=True)
class Scale:
    ba_nodes: int
    ba_m: int
    ba_landmarks: int
    attach_nodes: int
    attach_degree: int
    attach_landmarks: int
    batch_pairs: int
    rate_factor: float
    setups: int
    warmup_s: float
    bfs_checks: int
    max_lag_ms: float


FULL = Scale(100_000, 3, 20, 40_000, 16, 16, 16, 1.0, 3, 1.0, 16, 10.0)
SMOKE = Scale(5_000, 3, 12, 5_000, 8, 8, 16, 0.1, 1, 0.25, 4, 50.0)

#: Latency and throughput are medians over this many equal sub-windows.
#: With the default 10 s window each is 2 s long and, in churn-open,
#: holds exactly one update.
SUBWINDOWS = 5

#: The metric names and units the benchmark promises, from ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# -- Product children ---------------------------------------------------------


class Spawner:
    """Client of ``spawner.py``, which starts and reaps the product children.

    Start it before this process grows (see ``spawner.py``). Messages are
    read without blocking the caller beyond the timeout it passes.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.buffer = b""
        self.replies: Dict[int, dict] = {}
        self.exits: Dict[int, dict] = {}
        self.next_id = 0

    def _send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()

    def _pump(self, timeout: float) -> None:
        import select

        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        if not ready:
            return
        data = os.read(self.proc.stdout.fileno(), 1 << 16)
        if not data:
            raise BenchError("the spawner process died")
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        for line in lines:
            message = json.loads(line)
            if "exit" in message:
                self.exits[message["exit"]] = message
            else:
                self.replies[message["id"]] = message

    def spawn(self, cmd: List[str], env: dict, cwd: Path, log: Path) -> dict:
        self.next_id += 1
        self._send({"op": "spawn", "id": self.next_id, "cmd": cmd, "env": env,
                    "cwd": str(cwd), "log": str(log)})
        while self.next_id not in self.replies:
            self._pump(10.0)
        return self.replies.pop(self.next_id)

    def signal(self, pid: int, sig: int) -> None:
        self._send({"op": "signal", "pid": pid, "sig": int(sig)})

    def exit_of(self, pid: int, timeout: float) -> Optional[dict]:
        """The child's exit record, waiting at most ``timeout`` seconds.

        Each record is handed out once, so a later child that reuses the
        pid never sees it.
        """
        deadline = clock() + timeout
        while pid not in self.exits:
            remaining = deadline - clock()
            if remaining <= 0:
                return None
            self._pump(remaining)
        return self.exits.pop(pid)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


SPAWNER: Optional[Spawner] = None


class Child:
    """One ``repro`` CLI process; its exit status and peak RSS come from
    the spawner's ``os.wait4``."""

    def __init__(self, tag: str, args: List[str], run_dir: Path, trace: bool,
                 extra_env: Optional[Dict[str, str]] = None) -> None:
        self.tag = tag
        self.log_path = run_dir / f"{tag}.log"
        self.spans_path = run_dir / f"{tag}.spans.json" if trace else None
        if trace:
            cmd = [sys.executable, str(HERE / "traced_main.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        # faulthandler lets ``kill`` dump every thread's stack to the log.
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(TMP),
                   PYTHONUNBUFFERED="1", PYTHONFAULTHANDLER="1", **(extra_env or {}))
        self.status: Optional[int] = None
        self.rss_mib = 0.0
        self.ended = float("nan")
        self.address = None  # (host, port) once a server is listening
        self.wakeups = 0
        reply = SPAWNER.spawn(cmd + args, env, run_dir, self.log_path)
        self.pid, self.started = reply["pid"], reply["started"]

    def poll(self, timeout: float = 0.0) -> bool:
        """True once the child has exited (waiting up to ``timeout``)."""
        if self.status is None:
            record = SPAWNER.exit_of(self.pid, timeout)
            if record is not None:
                self.status, self.rss_mib, self.ended = (
                    record["code"], record["rss_mib"], record["ended"]
                )
        return self.status is not None

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-6000:]

    def wait(self, timeout: float) -> None:
        """Wait for a clean exit; raise on timeout or a non-zero status."""
        if not self.poll(timeout):
            self.kill(dump=True)
            raise BenchError(f"{self.tag} did not exit within {timeout:g}s:\n{self.log_tail()}")
        if self.status != 0:
            raise BenchError(f"{self.tag} exited with {self.status}:\n{self.log_tail()}")

    def stop(self) -> None:
        """SIGINT, then require a clean exit within ``STOP_TIMEOUT_S``."""
        if self.status is None:
            SPAWNER.signal(self.pid, signal.SIGINT)
        if not self.poll(STOP_WAKEUP_S) and self.address is not None:
            self.wakeups += 1
            try:
                socket.create_connection(self.address, timeout=1).close()
            except OSError:
                pass
        self.wait(STOP_TIMEOUT_S)

    def kill(self, dump: bool = False) -> None:
        """Kill the child; with ``dump``, SIGABRT first so the log shows
        where every thread was."""
        if dump and not self.poll():
            SPAWNER.signal(self.pid, signal.SIGABRT)
            self.poll(5.0)
        if not self.poll():
            SPAWNER.signal(self.pid, signal.SIGKILL)
            self.poll(30.0)


def admin_request(host: str, port: int, op: int) -> dict:
    """One HEALTH or STATS round trip on a fresh blocking connection."""
    from repro.serving.net import wire

    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(wire.encode_frame(op, 1, 0, b""))
        decoder = wire.FrameDecoder()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                raise BenchError("server closed the admin connection")
            for frame in decoder.feed(data):
                return json.loads(wire.raise_for_frame(frame).payload)


def wait_ready(serve: Child, timeout: float = 60.0):
    """Block until ``repro serve`` answers HEALTH; returns (host, port, t)."""
    from repro.serving.net.wire import Op

    deadline = clock() + timeout
    while True:
        found = re.search(r"serving on ([\d.]+):(\d+)", serve.log_path.read_text(errors="replace"))
        if found:
            break
        if serve.poll():
            raise BenchError(f"serve exited before listening:\n{serve.log_tail()}")
        if clock() > deadline:
            raise BenchError("serve did not start listening in time")
        time.sleep(0.001)
    serve.address = (found.group(1), int(found.group(2)))
    admin_request(*serve.address, Op.HEALTH)
    return serve.address[0], serve.address[1], clock()


# -- One workload run -----------------------------------------------------------


@dataclass
class Setup:
    seconds: float
    children: List[Child]
    ready_at: float


@dataclass
class RunState:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    run_dir: Path
    children: List[Child] = field(default_factory=list)

    def spawn(self, tag, args, extra_env=None) -> Child:
        child = Child(tag, args, self.run_dir, self.trace, extra_env)
        self.children.append(child)
        return child

    def kill_all(self) -> None:
        for child in self.children:
            child.kill()


def generate_inputs(workload: Workload, seed: int, scale: Scale, run_dir: Path) -> dict:
    """Write the graph file; seed the streams every request is drawn from."""
    import e2e_inputs as gen

    if workload.ooc:
        n = scale.attach_nodes
        edges = gen.attachment_edges(n, scale.attach_degree, seed)
    else:
        n = scale.ba_nodes
        edges = gen.barabasi_albert_edges(n, scale.ba_m, seed)
    edge_path = run_dir / "edges.txt"
    gen.write_edge_list(edge_path, edges)
    rng = gen.rng_for(seed, workload.name)
    return {
        "n": n, "edges": edges, "edge_path": edge_path, "rng": rng,
        "update_edges": gen.non_edges(rng, n, edges, 64),
    }


def read_schedule(workload: Workload, inputs: dict, scale: Scale, seconds: float):
    """Open-loop arrival offsets and their pairs (seeded, run-length aware)."""
    import e2e_inputs as gen

    rate = workload.rate * scale.rate_factor
    offsets = gen.poisson_offsets(inputs["rng"], rate, scale.warmup_s + seconds)
    pairs = gen.uniform_pairs(inputs["rng"], inputs["n"], len(offsets))
    return offsets, pairs


class PairStream:
    """An endless seeded sequence of uniform pairs, drawn in chunks."""

    def __init__(self, rng, n: int) -> None:
        self.rng, self.n = rng, n
        self.buffer, self.pos = None, 0

    def take(self, count: int):
        """The next ``count`` pairs as a ``(count, 2)`` array."""
        import e2e_inputs as gen

        if self.buffer is None or self.pos + count > len(self.buffer):
            self.buffer, self.pos = gen.uniform_pairs(self.rng, self.n, 1 << 16), 0
        self.pos += count
        return self.buffer[self.pos - count:self.pos]


def product_setup(state: RunState, inputs: dict, index: int, keep: bool) -> tuple:
    """Build (or ingest + build out-of-core) and serve; time to HEALTH."""
    wl, scale, run_dir = state.workload, state.scale, state.run_dir
    index_path = run_dir / "index.hl"
    children = []
    if wl.ooc:
        graph_path = run_dir / "graph.rpdc"
        ingest = state.spawn(f"ingest{index}", [
            "ingest", str(inputs["edge_path"]), "-o", str(graph_path),
            "--chunk-mb", "2", "--memory-budget-mb", "8",
        ], OOC_MALLOC_ENV)
        ingest.wait(120)
        build = state.spawn(f"build{index}", [
            "build", str(graph_path), "-o", str(index_path), "--out-of-core",
            "-k", str(scale.attach_landmarks), "--chunk-size", "1",
            "--edge-block", "262144",
        ], OOC_MALLOC_ENV)
        build.wait(120)
        children += [ingest, build]
    else:
        graph_path = inputs["edge_path"]
        build = state.spawn(f"build{index}", [
            "build", str(graph_path), "-o", str(index_path),
            "-k", str(scale.ba_landmarks),
        ])
        build.wait(120)
        children.append(build)
    serve = state.spawn(f"serve{index}", [
        "serve", str(graph_path), str(index_path), "--port", "0", *wl.serve_flags,
    ])
    host, port, ready = wait_ready(serve)
    children.append(serve)
    setup = Setup(ready - children[0].started, children, ready)
    if not keep:
        serve.stop()
    return setup, (host, port), serve, graph_path, index_path


async def drive(state: RunState, inputs: dict, host: str, port: int) -> dict:
    """Warm-up plus the measured window; returns the request logs."""
    import asyncio

    import numpy as np

    import e2e_load as load
    from repro.serving.net import wire
    from repro.serving.net.wire import Op

    wl, scale, seconds = state.workload, state.scale, state.seconds
    conns = await load.connect(host, port, 2)
    decode = wire.decode_distances if wl.batch else wire.decode_f64
    reads, updates = load.Log(decode), load.Log(wire.decode_u64)
    encode = wire.encode_pairs if wl.batch else load.encode_query
    op = Op.BATCH if wl.batch else Op.QUERY
    if wl.loop == "open":
        offsets, pairs = read_schedule(wl, inputs, scale, seconds)
        indices = [reads.add(0.0, pair) for pair in pairs]
    start = clock() + 0.05
    window = (start + scale.warmup_s, start + scale.warmup_s + seconds)
    tasks = []
    if wl.loop == "open":
        for index, offset in zip(indices, offsets.tolist()):
            reads.due[index] = start + offset
        tasks.append(load.open_loop(conns, reads, op, encode, indices))
        if wl.update_rate:
            count = max(1, int(seconds * wl.update_rate))
            due = [window[0] + (0.5 + j) * seconds / count for j in range(count)]
            edges = inputs["update_edges"]
            items = [
                (Op.INSERT_EDGE if j % 2 == 0 else Op.DELETE_EDGE, edges[j // 2])
                for j in range(count)
            ]
            follow_pairs = iter(inputs["rng"].integers(
                0, inputs["n"], size=(count * wl.update_reads, 2), dtype=np.int64
            ))

            def follow(update_due: float) -> None:
                for _ in range(wl.update_reads):
                    pair = next(follow_pairs)
                    conns[0].send(op, encode(pair), reads, reads.add(update_due, pair))

            tasks.append(load.sequential(conns[0], updates, items, due, follow))
    else:
        stream = PairStream(inputs["rng"], inputs["n"])
        await asyncio.sleep(max(0.0, start - clock()))
        tasks += [
            load.closed_loop(conn, reads, op, encode,
                             lambda: stream.take(scale.batch_pairs), window[1])
            for conn in conns
        ]
    await asyncio.gather(*tasks)
    await load.settle([reads, updates], conns, timeout=15.0)
    errors = [str(c.error) for c in conns if c.error is not None]
    for conn in conns:
        await conn.close()
    return {"reads": reads, "updates": updates, "window": window, "errors": errors}


def verify(state: RunState, inputs: dict, logs: dict, graph_path: Path, index_path: Path) -> dict:
    """Check every answered read (and update) against references.

    Every answer is compared with the product's own in-process point
    query on the same snapshot; a seeded sample is also checked against
    an independent BFS. Reads of the churn workload are checked against
    the graph at the generation that answered them: after an odd number
    of updates one extra edge ``(u, v)`` is present, and
    ``d'(s, t) = min(d(s, t), d(s, u) + 1 + d(v, t), d(s, v) + 1 + d(u, t))``.
    """
    import numpy as np

    import e2e_inputs as gen
    from repro.api import open_oracle
    from repro.serving.net.wire import Status

    wl, reads, updates = state.workload, logs["reads"], logs["updates"]
    ok = [i for i, s in enumerate(reads.status) if s == Status.OK]
    if any(s != Status.OK for s in updates.status):
        raise BenchError(f"an update failed: statuses {updates.status}")
    if wl.batch:
        pairs = np.concatenate([reads.payloads[i] for i in ok]) if ok else np.empty((0, 2), np.int64)
        served = np.concatenate([reads.values[i] for i in ok]) if ok else np.empty(0)
        gens = np.repeat([reads.generation[i] for i in ok],
                         [len(reads.payloads[i]) for i in ok]).astype(np.int64)
    else:
        pairs = np.asarray([reads.payloads[i] for i in ok], dtype=np.int64).reshape(-1, 2)
        served = np.asarray([reads.values[i] for i in ok], dtype=float)
        gens = np.asarray([reads.generation[i] for i in ok], dtype=np.int64)

    oracle = open_oracle(str(graph_path), index=str(index_path), mmap=True)
    cache: Dict[tuple, float] = {}

    def ref(s: int, t: int) -> float:
        key = (s, t) if s <= t else (t, s)
        if key not in cache:
            cache[key] = oracle.query(*key)
        return cache[key]

    applied = gens - 1
    expected = np.empty(len(pairs))
    for i, ((s, t), k) in enumerate(zip(pairs.tolist(), applied.tolist())):
        d = ref(s, t)
        if k % 2 == 1:
            u, v = inputs["update_edges"][(k - 1) // 2].tolist()
            d = min(d, ref(s, u) + 1 + ref(v, t), ref(s, v) + 1 + ref(u, t))
        expected[i] = d
    wrong = int((expected != served).sum())

    base = np.flatnonzero(applied % 2 == 0)
    sample = gen.rng_for(state.seed, "bfs-sample").choice(
        base, size=min(state.scale.bfs_checks, len(base)), replace=False
    ) if len(base) else []
    indptr, indices = gen.csr_of(inputs["n"], inputs["edges"])
    for i in sample:
        s, t = pairs[i]
        truth = gen.bfs(indptr, indices, int(s))[int(t)]
        if served[i] != (float("inf") if truth < 0 else float(truth)):
            wrong += 1
    return {"wrong": wrong, "checked": len(pairs), "bfs_checked": len(sample)}


def summarize(state: RunState, logs: dict) -> dict:
    """End-to-end numbers of the measured window.

    Latency percentiles and throughput are computed per sub-window and
    the median over the sub-windows is reported: the host's CPU slows by
    up to a third for episodes of seconds, and a median keeps an episode
    that touches fewer than half of the sub-windows from moving the
    result. The tail is p95, not p99: the hypervisor stalls the vCPUs
    for milliseconds at a time, which sets p99 (kept in the record) and
    spreads it by up to 0.6 of its median from run to run.
    """
    import numpy as np

    from repro.serving.net.wire import Status

    reads, updates, (lo, hi) = logs["reads"], logs["updates"], logs["window"]
    due = np.asarray(reads.due)
    sent = np.asarray(reads.sent)
    done = np.asarray(reads.done)
    status = np.asarray(reads.status)
    in_window = (due >= lo) & (due < hi)
    ok = in_window & (status == Status.OK)
    latency_ms = (done - due) * 1e3
    sizes = np.asarray([len(p) if state.workload.batch else 1 for p in reads.payloads])
    part = ((due - lo) * SUBWINDOWS // (hi - lo)).astype(int)
    parts = [ok & (part == j) for j in range(SUBWINDOWS)]
    parts = [sel for sel in parts if sel.any()]
    upd_due = np.asarray(updates.due)
    upd_window = (upd_due >= lo) & (upd_due < hi) if len(upd_due) else np.zeros(0, bool)
    upd_ok = upd_window & (np.asarray(updates.status) == Status.OK)
    update_ms = (np.asarray(updates.done) - upd_due)[upd_ok] * 1e3
    lag_ms = (sent[in_window] - due[in_window]) * 1e3

    def median_over_parts(stat) -> float:
        return float(np.median([stat(sel) for sel in parts])) if parts else float("nan")

    return {
        "p50_ms": median_over_parts(lambda sel: np.percentile(latency_ms[sel], 50)),
        "p95_ms": median_over_parts(lambda sel: np.percentile(latency_ms[sel], 95)),
        "p99_ms": median_over_parts(lambda sel: np.percentile(latency_ms[sel], 99)),
        "pairs_per_s": median_over_parts(lambda sel: sizes[sel].sum() * SUBWINDOWS / (hi - lo)),
        "mean_latency_us": float(latency_ms[ok].mean() * 1e3) if ok.any() else float("nan"),
        "requests": int(in_window.sum()),
        "samples": int(ok.sum()),
        "samples_per_subwindow": min((int(sel.sum()) for sel in parts), default=0),
        "refused": int((in_window & (status == Status.OVERLOADED)).sum()),
        "failed": int((in_window & ~ok).sum() + (upd_window & ~upd_ok).sum()),
        "attempted": int(in_window.sum() + upd_window.sum()),
        "update_ms": float(np.median(update_ms)) if update_ms.size else 0.0,
        "updates": int(upd_ok.sum()),
        "lag_p99_ms": float(np.percentile(lag_ms, 99)) if lag_ms.size else 0.0,
        "sent_on_time": float((sent[in_window] <= hi).mean()) if in_window.any() else 1.0,
    }


def check_clean(run_dir: Path, expected: set) -> None:
    """No product temp files may outlive a run (spills, partial writes)."""
    stray = sorted(p.name for p in run_dir.iterdir() if p.name not in expected
                   and not p.name.endswith((".log", ".spans.json")))
    stray += sorted(p.name for p in TMP.iterdir() if not p.name.startswith("repro-kernels-"))
    if stray:
        raise BenchError(f"product left files behind: {stray}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scale: Scale, client_tracer=None) -> dict:
    """One complete run: inputs, set-ups, window, verification, metrics."""
    import e2e_load as load
    from repro.serving.net.wire import Op

    run_dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    state = RunState(workload, seed, seconds, trace, scale, run_dir)
    try:
        inputs = generate_inputs(workload, seed, scale, run_dir)
        setups = []
        for index in range(scale.setups):
            keep = index == scale.setups - 1
            setup, address, serve, graph_path, index_path = product_setup(state, inputs, index, keep)
            setups.append(setup)
        logs = load.run(drive(state, inputs, *address))
        stats = admin_request(*address, Op.STATS)
        serve.stop()
        check_clean(run_dir, {"edges.txt", "graph.rpdc", "index.hl"})
        if logs["errors"]:
            raise BenchError(f"connection lost: {logs['errors']}")
        window = summarize(state, logs)
        window["stop_wakeups"] = sum(c.wakeups for c in state.children)
        if workload.loop == "open":
            if window["lag_p99_ms"] > scale.max_lag_ms:
                raise BenchError(f"load generator ran late: lag p99 {window['lag_p99_ms']:.2f} ms")
            if window["sent_on_time"] < 0.99:
                raise BenchError(f"only {window['sent_on_time']:.1%} of requests were sent in the window")
        checks = verify(state, inputs, logs, graph_path, index_path)
        result = {
            "window": window,
            "checks": checks,
            "metrics": {
                "setup_s": statistics.median(s.seconds for s in setups),
                "p50_ms": window["p50_ms"],
                "p95_ms": window["p95_ms"],
                "pairs_per_s": window["pairs_per_s"],
                "peak_rss_mib": max(c.rss_mib for c in state.children),
                "index_mib": index_path.stat().st_size / (1 << 20),
            },
        }
        if trace:
            import e2e_layers

            result["layers"] = e2e_layers.per_layer(
                state, inputs, setups, serve, logs, window, stats, client_tracer
            )
        return result
    except BaseException:
        state.kill_all()
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# -- Reporting ------------------------------------------------------------------


def machine() -> dict:
    from repro.core.kernels import get_kernel

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"

    return {
        "commit": first_line(["git", "rev-parse", "--short", "HEAD"]),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "cc": first_line(["cc", "--version"]),
        "os_kernel": platform.release(),
        "kernel": get_kernel().name,
    }


def append_json(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")


def report_line(result: dict, trace: bool) -> dict:
    window = result["window"]
    names = PER_LAYER if trace else END_TO_END
    values = result["layers"] if trace else result["metrics"]
    return {
        "correct": result["checks"]["wrong"] == 0,
        "attempted": window["attempted"],
        "failed": window["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }


def print_human(name: str, seed: int, result: dict, trace: bool) -> None:
    window, checks = result["window"], result["checks"]
    print(f"== {name} seed={seed}: {window['requests']} requests in window, "
          f"{window['samples']} latency samples, {checks['checked']} answers "
          f"verified ({checks['bfs_checked']} against BFS), wrong={checks['wrong']}, "
          f"failed={window['failed']}")
    for key, unit in END_TO_END.items():
        print(f"  {key:32s} {result['metrics'][key]:14.4f} {unit}")
    if trace:
        for key, unit in PER_LAYER.items():
            print(f"  {key:32s} {result['layers'][key]:14.4f} {unit}")


def spread(values: List[float]) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": median, "min": values[0], "max": values[-1],
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "range_bound": max(0.10, 2 * (values[-1] - values[0]) / median) if median else 0.10,
        "values": values,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="workload to run (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default 10; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and windows, for the test suite")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed..seed+N-1 and report medians")
    parser.add_argument("--record", action="store_true",
                        help="append each run to results/BENCH_e2e.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the repro source tree is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # Children must stop on SIGINT even when this process was started
    # with SIGINT ignored (a caught signal resets to the default on exec).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    global SPAWNER
    SPAWNER = Spawner()
    try:
        return run_all(args)
    finally:
        SPAWNER.close()


def run_all(args) -> int:
    scale = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 10.0)
    trace = bool(args.trace)
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    sys.path.insert(0, str(SRC))

    from repro.core.kernels import get_kernel

    get_kernel()  # compile the kernel cache once, outside every timing
    client_tracer = None
    if trace:
        import e2e_trace

        client_tracer = e2e_trace.Tracer()
        client_tracer.install(e2e_trace.CLIENT_FUNCTION_TARGETS, e2e_trace.CLIENT_METHOD_TARGETS)
    info = machine() if args.record else None
    names = [args.workload] if args.workload else list(WORKLOADS)
    lines, correct = [], True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            result = run_workload(WORKLOADS[name], seed, seconds, trace, scale, client_tracer)
            print_human(name, seed, result, trace)
            line = report_line(result, trace)
            correct &= line["correct"]
            runs.append(line)
            if args.record:
                append_json(RECORDS, {
                    **info, "date": time.strftime("%Y-%m-%d"), "workload": name,
                    "seed": seed, "seconds": seconds, "smoke": args.smoke,
                    "trace": trace, "metrics": result["metrics"],
                    "layers": result.get("layers"), "window": result["window"],
                    "verdict": {**result["checks"], "correct": line["correct"]},
                })
            print(json.dumps(line), flush=True)
        if args.repeat > 1:
            table = {
                key: spread([r["metrics"][key]["value"] for r in runs])
                for key in runs[0]["metrics"]
            }
            for key, s in table.items():
                print(f"  {name} {key:32s} median {s['median']:12.4f}  "
                      f"iqr/median {s['iqr_share']:6.3f}  2*range/median {s['range_bound']:6.3f}")
            if args.record:
                append_json(CALIBRATION, {
                    **info, "date": time.strftime("%Y-%m-%d"), "workload": name,
                    "seeds": [args.seed, args.seed + args.repeat - 1],
                    "seconds": seconds, "trace": trace, "spread": table,
                })
            runs = [{
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {k: {"value": s["median"], "unit": runs[0]["metrics"][k]["unit"]}
                            for k, s in table.items()},
            }]
        lines.append((name, runs[0]))
    if len(lines) > 1:
        summary = {
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "metrics": {f"{n}.{k}": v for n, l in lines for k, v in l["metrics"].items()},
        }
        print(json.dumps(summary), flush=True)
    elif args.repeat > 1:
        print(json.dumps(lines[0][1]), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        sys.exit(1)
