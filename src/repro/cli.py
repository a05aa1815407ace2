"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats <graph>`` — Table-1-style statistics for a graph file
  (edge-list text or a disk-backed ``.rpdc`` CSR; every command that
  takes a graph accepts either, sniffed by magic).
* ``ingest <edgelist[.gz]> -o graph.rpdc [--name N] [--chunk-mb C]
  [--memory-budget-mb M]`` — stream a SNAP-style edge list (plain or
  gzipped) into a disk-backed CSR with bounded memory
  (:mod:`repro.datasets.ingest`); the output opens zero-copy via
  ``np.memmap`` everywhere a graph is accepted.
* ``build <graph> -o index.hl [-k 20] [--strategy degree]
  [--engine stacked|looped] [--chunk-size C] [--parallel]
  [--store vertex|landmark] [--from-edgelist] [--out-of-core]`` —
  build and persist an HL index as a mappable snapshot
  (the stacked engine is the default; all engines and both label-store
  backends produce byte-identical indexes). ``--from-edgelist``
  streams the text through ``ingest`` into a temporary disk CSR first;
  ``--out-of-core`` spills label chunks to disk and scatters them
  straight into the snapshot (:mod:`repro.core.ooc`) — same bytes,
  ``O(n)`` peak memory.
* ``query <edgelist> <index> s t [s t ...] [--mmap] [--kernel K]`` —
  exact distances from a saved index; ``--mmap`` maps the index
  zero-copy instead of reading it into RAM, ``--kernel`` selects the
  query kernel backend (see ``kernels``). With ``--remote HOST:PORT``
  the positionals are all vertex ids and the distances come from a
  running ``repro serve`` over the wire protocol instead of a local
  index.
* ``serve <edgelist> <index> [--host H] [--port P] [--shards N]
  [--dynamic] [--mmap] [--kernel K] [--spool DIR [--poll-s S]]
  [--max-queue Q] [--worker-threads T]`` — host the index behind the
  asyncio TCP front door (:mod:`repro.serving.net`): bounded-ingress
  admission control with retry-after backpressure, and — with
  ``--spool`` — zero-downtime rollover to every new snapshot
  generation a writer publishes into that directory.
* ``net-bench [--readers R] [--rounds N] [--rollovers K] [--shards S]
  [--out F]`` — the mixed read/write wire benchmark
  (:mod:`repro.serving.net.loadgen`): reader clients hammer a live
  server while snapshot generations publish mid-load; asserts zero
  failed requests and per-generation byte-identity, reports the
  QPS/p50/p99 curve.
* ``query-batch <edgelist> <index> [--pairs-file F | --random N]
  [--mmap] [--kernel K] [--threads T]`` — bulk exact distances through
  the vectorized batch engine; ``--threads`` splits the batch across a
  :class:`~repro.serving.QueryExecutor` thread pool (auto-sized by
  default: one thread per CPU when the kernel releases the GIL).
* ``bench-dataset <name>`` — build HL on one surrogate and report
  CT/ALS/size/coverage.
* ``serve-bench [--threads 16] [--queries 2000] [--shards N]
  [--exec-threads M]`` — drive a
  :class:`~repro.serving.DistanceService` with a synthetic concurrent
  workload, assert exactness against looped ``oracle.query``, and
  report QPS / batch occupancy / latency percentiles. ``--shards N``
  (N > 1) backs the hosted graph with the multi-process
  :class:`~repro.serving.ShardedDistanceService` instead of the
  in-process oracle; ``--exec-threads M`` sizes the per-entry (and
  per-shard) executor thread pool (default: auto).
* ``shard-bench [--shards 4] [--batches 16] [--threads M]`` — compare
  single-process ``query_many`` against the process-sharded service on
  the same bulk workload, assert byte-identical answers, and report
  per-config throughput plus the cached-point-query rate.
  ``--threads M`` runs every worker's batches on an M-thread executor
  (N shards × M threads).
* ``fsck <path> [<path> ...]`` — validate snapshot, write-ahead-log
  and disk-CSR files offline: every format invariant
  (magic/version/flags, section alignment, offsets, id ranges, highway
  sentinel symmetry; WAL checksums and torn tails; CSR indptr and
  row-order invariants) is checked and *all* violations reported, with
  salvage guidance. Exit 0 = every file clean, 1 = at least one
  violated invariant, 2 = a path could not be read.
* ``methods`` — list every registered oracle method with its
  capability set (the README matrix, live).
* ``kernels`` — list the query kernel backends
  (:mod:`repro.core.kernels`) with availability, a ``compiled`` and a
  ``releases_gil`` column (the flag that decides whether the
  thread-parallel executor auto-scales past one thread), and which
  backend this environment auto-selects.
* ``datasets`` — list the twelve surrogate networks.

The CLI wraps the same public API the examples use — every oracle is
constructed through :func:`repro.api.open_oracle` /
:func:`repro.api.build_oracle` — so the index can be produced and
consumed from shell pipelines.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import available_methods, build_oracle, open_oracle
from repro.api.protocol import ALL_CAPABILITIES
from repro.datasets.registry import dataset_names, load_dataset
from repro.graphs.sampling import sample_vertex_pairs
from repro.graphs.stats import compute_stats
from repro.landmarks.selection import STRATEGIES
from repro.utils.formatting import format_bytes, format_table


def _load_graph(path: str):
    """Open a graph argument: edge-list text or a disk CSR, by magic."""
    from repro.api.factory import as_graph

    return as_graph(path)


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    stats = compute_stats(graph)
    print(
        format_table(
            ["n", "m", "m/n", "avg.deg", "max.deg", "|G|"],
            [
                [
                    f"{stats.num_vertices:,}",
                    f"{stats.num_edges:,}",
                    f"{stats.edge_vertex_ratio:.1f}",
                    f"{stats.avg_degree:.3f}",
                    stats.max_degree,
                    format_bytes(stats.size_bytes),
                ]
            ],
        )
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.datasets.ingest import ingest_edge_list

    report = ingest_edge_list(
        args.edgelist,
        args.output,
        name=args.name,
        chunk_bytes=args.chunk_mb * (1 << 20),
        memory_budget_bytes=args.memory_budget_mb * (1 << 20),
        wide=True if args.wide else None,
    )
    print(report.summary())
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.parallel and args.engine == "looped":
        print(
            "error: --parallel always uses the stacked engine; "
            "drop --engine looped",
            file=sys.stderr,
        )
        return 2
    if args.out_of_core and (args.parallel or args.engine == "looped"):
        print(
            "error: --out-of-core uses the stacked engine; drop "
            "--parallel / --engine looped",
            file=sys.stderr,
        )
        return 2
    source = args.graph
    ingest_dir = None
    try:
        if args.from_edgelist:
            import tempfile

            from repro.datasets.ingest import ingest_edge_list

            ingest_dir = tempfile.TemporaryDirectory(prefix="repro-build-")
            source = f"{ingest_dir.name}/graph.rpdc"
            report = ingest_edge_list(args.graph, source)
            print(report.summary())
        if args.out_of_core:
            from repro.api.factory import as_graph
            from repro.core.ooc import build_snapshot_out_of_core
            from repro.landmarks.selection import select_landmarks

            graph = as_graph(source)
            landmark_ids = select_landmarks(
                graph, args.landmarks, strategy=args.strategy
            )
            memmapped = hasattr(graph.csr.indices, "_mmap")
            report = build_snapshot_out_of_core(
                graph,
                landmark_ids,
                args.output,
                chunk_size=args.chunk_size,
                edge_block=args.edge_block,
                release_graph_pages=memmapped,
            )
            print(
                f"built HL/ooc(k={args.landmarks}, {args.strategy}) in "
                f"{report.construction_seconds:.2f}s; "
                f"entries={report.entries}; wrote "
                f"{format_bytes(report.bytes_written)} to {args.output}"
            )
            return 0
        oracle = build_oracle(
            source,
            "hl",
            num_landmarks=args.landmarks,
            landmark_strategy=args.strategy,
            parallel=args.parallel,
            engine=args.engine,
            chunk_size=args.chunk_size,
            store=args.store,
        )
        written = oracle.save(args.output)
    finally:
        if ingest_dir is not None:
            ingest_dir.cleanup()
    builder = "HL-P" if args.parallel else f"HL/{args.engine}"
    print(
        f"built {builder}(k={args.landmarks}, {args.strategy}, "
        f"store={args.store}) in "
        f"{oracle.construction_seconds:.2f}s; ALS="
        f"{oracle.average_label_size():.1f}; wrote {format_bytes(written)} "
        f"to {args.output}"
    )
    return 0


def _parse_address(remote: str):
    """Split a ``HOST:PORT`` CLI argument; raises ``ValueError``."""
    host, sep, port = remote.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--remote wants HOST:PORT, got {remote!r}")
    return host, int(port)


def _cmd_query(args: argparse.Namespace) -> int:
    vertices = list(args.vertices)
    if args.remote is not None:
        # Remote mode needs no local graph/index: the two positionals
        # are the first vertex pair.
        try:
            extra = [int(args.graph), int(args.index)]
        except ValueError:
            print(
                "error: with --remote, all positionals are vertex ids",
                file=sys.stderr,
            )
            return 2
        vertices = extra + vertices
    if len(vertices) % 2:
        print("error: provide an even number of vertex ids (s t pairs)", file=sys.stderr)
        return 2
    if args.remote is not None:
        from repro.serving.net import NetClient

        try:
            host, port = _parse_address(args.remote)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with NetClient(host, port) as client:
            for i in range(0, len(vertices), 2):
                s, t = vertices[i], vertices[i + 1]
                d = client.query(s, t)
                rendered = "inf" if d == float("inf") else f"{d:.0f}"
                print(f"d({s}, {t}) = {rendered}")
        return 0
    oracle = open_oracle(
        args.graph, index=args.index, mmap=args.mmap, kernel=args.kernel
    )
    for i in range(0, len(vertices), 2):
        s, t = vertices[i], vertices[i + 1]
        d = oracle.query(s, t)
        rendered = "inf" if d == float("inf") else f"{d:.0f}"
        print(f"d({s}, {t}) = {rendered}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.net import NetServer, SnapshotRollover

    graph = _load_graph(args.graph)
    backend = open_oracle(
        graph,
        index=args.index,
        mmap=args.mmap,
        dynamic=args.dynamic,
        shards=args.shards if args.shards > 1 else None,
        kernel=args.kernel,
    )
    rollover = None
    if args.spool is not None:
        rollover = SnapshotRollover(
            args.spool,
            graph=graph,
            mmap=bool(args.mmap),
            kernel=args.kernel,
            shards=args.shards if args.shards > 1 else None,
            poll_s=args.poll_s,
        )
    server = NetServer(
        backend,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        worker_threads=args.worker_threads,
        rollover=rollover,
        owns_backend=True,
    )
    server.run_forever()
    return 0


def _cmd_net_bench(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.serving.net.loadgen import run_net_bench

    try:
        run_net_bench(
            n=args.n,
            landmarks=args.landmarks,
            readers=args.readers,
            rounds=args.rounds,
            batch_size=args.batch_size,
            rollovers=args.rollovers,
            shards=args.shards if args.shards > 1 else None,
            kernel=args.kernel,
            seed=args.seed,
            out=args.out,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_query_batch(args: argparse.Namespace) -> int:
    import numpy as np

    oracle = open_oracle(
        args.graph, index=args.index, mmap=args.mmap, kernel=args.kernel
    )
    graph = oracle.graph
    if args.pairs_file is not None:
        import warnings

        try:
            with warnings.catch_warnings():
                # Empty pair files are legal; silence loadtxt's no-data warning.
                warnings.simplefilter("ignore", UserWarning)
                pairs = np.loadtxt(args.pairs_file, dtype=np.int64, ndmin=2)
        except ValueError:
            print("error: pairs file must hold two vertex ids per line", file=sys.stderr)
            return 2
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            print("error: pairs file must hold two vertex ids per line", file=sys.stderr)
            return 2
    else:
        pairs = sample_vertex_pairs(graph, args.random, seed=args.seed)
    from repro.serving.executor import QueryExecutor

    with QueryExecutor.for_oracle(oracle, threads=args.threads) as executor:
        distances, covered = executor.run(
            lambda chunk: oracle.query_many(chunk, return_coverage=True),
            pairs,
        )
    for (s, t), d in zip(pairs, distances):
        rendered = "inf" if d == float("inf") else f"{d:.0f}"
        print(f"{int(s)} {int(t)} {rendered}")
    coverage = float(covered.mean()) if len(pairs) else 0.0
    print(
        f"# pairs={len(pairs)} coverage={coverage:.3f} "
        f"threads={executor.threads}",
        file=sys.stderr,
    )
    return 0


def _cmd_bench_dataset(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale)
    oracle = build_oracle(graph, "hl", num_landmarks=args.landmarks)
    pairs = sample_vertex_pairs(graph, args.pairs, seed=1)
    coverage = oracle.batch_engine().coverage_ratio(pairs)
    print(
        format_table(
            ["dataset", "n", "m", "CT", "ALS", "index", "coverage"],
            [
                [
                    args.name,
                    f"{graph.num_vertices:,}",
                    f"{graph.num_edges:,}",
                    f"{oracle.construction_seconds:.2f}s",
                    f"{oracle.average_label_size():.1f}",
                    format_bytes(oracle.size_bytes()),
                    f"{coverage:.2f}",
                ]
            ],
        )
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import threading

    import numpy as np

    from repro.graphs.generators import barabasi_albert_graph
    from repro.serving import DistanceService

    if args.graph is not None:
        graph = _load_graph(args.graph)
    else:
        graph = barabasi_albert_graph(args.n, 4, seed=7, name="serve-bench")
    oracle = build_oracle(
        graph, "hl", num_landmarks=args.landmarks, kernel=args.kernel
    )
    pairs = sample_vertex_pairs(graph, args.queries, seed=args.seed)

    # Ground truth the slow, unambiguous way: one looped oracle.query.
    expected = np.array(
        [oracle.query(int(s), int(t)) for s, t in pairs], dtype=float
    )

    sharded = None
    tmpdir = None
    if args.shards > 1:
        import tempfile

        from repro.serving import ShardedDistanceService

        # Serve the already-built index through N worker processes
        # mapping one shared snapshot (the ground-truth oracle stays
        # untouched in this process). The directory must outlive the
        # workers that map the file.
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        snapshot = f"{tmpdir.name}/bench.hl"
        oracle.save(snapshot)
        sharded = ShardedDistanceService.from_snapshot(
            graph, snapshot, shards=args.shards, kernel=args.kernel,
            threads=args.exec_threads,
        )

    results = np.full(len(pairs), np.nan, dtype=float)
    errors: List[BaseException] = []
    try:
        with DistanceService(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            # With a sharded backend the executor pools live in the
            # worker processes (threads= above); the facade entry stays
            # sequential rather than threading over IPC-bound calls.
            threads=None if sharded is not None else args.exec_threads,
        ) as service:
            service.register("bench", sharded if sharded is not None else oracle)

            def drive(lo: int, hi: int) -> None:
                try:
                    for i in range(lo, hi):
                        results[i] = service.query(
                            "bench", int(pairs[i, 0]), int(pairs[i, 1])
                        )
                except BaseException as exc:  # surfaced after the join
                    errors.append(exc)

            bounds = np.linspace(0, len(pairs), args.threads + 1).astype(int)
            threads = [
                threading.Thread(target=drive, args=(int(lo), int(hi)))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = service.stats("bench")
    finally:
        if sharded is not None:
            sharded.close()
        if tmpdir is not None:
            tmpdir.cleanup()

    if errors:
        print(f"error: a client thread failed: {errors[0]!r}", file=sys.stderr)
        return 1

    mismatches = int((results != expected).sum())
    print(
        format_table(
            ["threads", "shards", "queries", "QPS", "batches", "occupancy", "p50", "p99"],
            [
                [
                    args.threads,
                    args.shards,
                    stats["queries"],
                    f"{stats['qps']:,.0f}",
                    stats["batches"],
                    f"{stats['batch_occupancy']:.1f}",
                    f"{stats['p50_ms']:.2f}ms",
                    f"{stats['p99_ms']:.2f}ms",
                ]
            ],
        )
    )
    if mismatches:
        print(
            f"error: {mismatches}/{len(pairs)} coalesced answers differ "
            f"from looped oracle.query",
            file=sys.stderr,
        )
        return 1
    if stats["batch_occupancy"] <= 1.0 and args.threads > 1:
        print(
            "error: no batch coalescing happened (occupancy <= 1)",
            file=sys.stderr,
        )
        return 1
    print(f"exact: {len(pairs)}/{len(pairs)} match looped oracle.query")
    return 0


def _cmd_shard_bench(args: argparse.Namespace) -> int:
    import os
    import tempfile
    import time

    import numpy as np

    from repro.graphs.generators import barabasi_albert_graph
    from repro.serving import ShardedDistanceService

    if args.graph is not None:
        graph = _load_graph(args.graph)
    else:
        graph = barabasi_albert_graph(args.n, 3, seed=7, name="shard-bench")
    oracle = build_oracle(
        graph, "hl", num_landmarks=args.landmarks, kernel=args.kernel
    )
    pairs = sample_vertex_pairs(graph, args.pairs, seed=args.seed)
    batches = np.array_split(pairs, args.batches)

    # Single-process baseline: the same bulk workload through one
    # vectorized engine (what DistanceService.query_many would run).
    t0 = time.perf_counter()
    expected = np.concatenate([oracle.query_many(b) for b in batches])
    single_s = time.perf_counter() - t0

    # Serve the already-built index, don't rebuild it: save once and let
    # every worker map the snapshot (the directory outlives the workers).
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-shard-bench-")
    snapshot = f"{tmpdir.name}/bench.hl"
    oracle.save(snapshot)
    with ShardedDistanceService.from_snapshot(
        graph, snapshot, shards=args.shards, kernel=args.kernel,
        threads=args.threads,
    ) as svc:
        t0 = time.perf_counter()
        sharded = np.concatenate([svc.query_many(b) for b in batches])
        sharded_s = time.perf_counter() - t0
        # Hot-pair phase: the same point queries twice; the second pass
        # is answered by the in-front QueryCache.
        hot = pairs[: min(len(pairs), 256)]
        for s, t in hot:
            svc.query(int(s), int(t))
        t0 = time.perf_counter()
        cached = [svc.query(int(s), int(t)) for s, t in hot]
        cached_s = time.perf_counter() - t0
        stats = svc.stats()
    tmpdir.cleanup()

    mismatches = int((sharded != expected).sum())
    cache_ok = cached == [float(x) for x in expected[: len(hot)]]
    speedup = single_s / sharded_s if sharded_s else float("inf")
    print(
        format_table(
            ["config", "pairs", "wall", "QPS", "vs single"],
            [
                ["single-process", len(pairs), f"{single_s:.3f}s",
                 f"{len(pairs) / single_s:,.0f}", "-"],
                [f"sharded x{args.shards}", len(pairs), f"{sharded_s:.3f}s",
                 f"{len(pairs) / sharded_s:,.0f}", f"{speedup:.2f}x"],
                ["cached points", len(hot), f"{cached_s:.3f}s",
                 f"{len(hot) / cached_s:,.0f}" if cached_s else "inf", "-"],
            ],
        )
    )
    print(
        f"cores={os.cpu_count()} cache_hits={stats['cache']['hits']} "
        f"snapshot={stats['snapshot']}"
    )
    if mismatches or not cache_ok:
        if mismatches:
            print(
                f"error: {mismatches}/{len(pairs)} sharded answers differ "
                f"from the single-process engine",
                file=sys.stderr,
            )
        if not cache_ok:
            print(
                f"error: cached point answers differ from the "
                f"single-process engine ({len(hot)} hot pairs)",
                file=sys.stderr,
            )
        return 1
    print(f"exact: {len(pairs)}/{len(pairs)} match single-process query_many")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.core.fsck import fsck_path

    worst = 0
    for raw in args.paths:
        report = fsck_path(raw)
        unreadable = any(f.code == "unreadable" for f in report.findings)
        if report.ok:
            detail = next(
                (f.message for f in report.findings if f.code == "clean"),
                "clean",
            )
            print(f"{report.path}: OK ({report.kind}: {detail})")
        else:
            print(f"{report.path}: CORRUPT ({report.kind})")
        for finding in report.findings:
            if finding.code == "clean":
                continue
            stream = sys.stderr if finding.severity == "error" else sys.stdout
            print(
                f"  {finding.severity.upper()} [{finding.code}] "
                f"{finding.message}",
                file=stream,
            )
        if unreadable:
            worst = max(worst, 2)
        elif not report.ok:
            worst = max(worst, 1)
    return worst


def _cmd_methods(_: argparse.Namespace) -> int:
    rows = []
    for spec in available_methods():
        marks = [
            "x" if cap in spec.capabilities else "-"
            for cap in ALL_CAPABILITIES
        ]
        rows.append(
            [spec.name, *marks, "x" if spec.supports_dynamic else "-", spec.description]
        )
    print(
        format_table(
            ["method", "batch", "dynamic", "snapshot", "paths", "dyn-opt", "description"],
            rows,
        )
    )
    return 0


def _cmd_kernels(_: argparse.Namespace) -> int:
    from repro.core.kernels import (
        KERNEL_NAMES,
        available_kernels,
        get_kernel,
    )

    usable = set(available_kernels())
    default = get_kernel().name
    rows = []
    for name in KERNEL_NAMES:
        if name in usable:
            backend = get_kernel(name)
            compiled = "x" if backend.compiled else "-"
            nogil = "x" if backend.releases_gil else "-"
            status = "available"
        else:
            compiled = nogil = "?"
            status = "unavailable"
        rows.append(
            [name, compiled, nogil, "x" if name == default else "-", status]
        )
    print(
        format_table(
            ["kernel", "compiled", "releases_gil", "default", "status"], rows
        )
    )
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    for name in dataset_names():
        print(name)
    return 0


def _add_kernel_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        default=None,
        metavar="NAME",
        help="query kernel backend (numpy/cext; "
        "default: auto-detect, see 'repro kernels')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Highway cover labelling: exact distance queries (EDBT 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="Table-1-style statistics for a graph")
    p_stats.add_argument("graph", help="edge-list file or disk CSR (.rpdc)")
    p_stats.set_defaults(func=_cmd_stats)

    p_ingest = sub.add_parser(
        "ingest",
        help="stream an edge-list file into a disk-backed CSR (.rpdc)",
    )
    p_ingest.add_argument("edgelist", help="edge-list text file (may be .gz)")
    p_ingest.add_argument(
        "-o", "--output", required=True, help="disk-CSR output path"
    )
    p_ingest.add_argument(
        "--name", default=None, help="graph name stored in the header"
    )
    p_ingest.add_argument(
        "--chunk-mb",
        type=int,
        default=4,
        help="text chunk size read per parse step (MiB)",
    )
    p_ingest.add_argument(
        "--memory-budget-mb",
        type=int,
        default=64,
        help="approximate RAM budget for the scatter passes (MiB)",
    )
    p_ingest.add_argument(
        "--wide",
        action="store_true",
        help="force 64-bit adjacency ids (auto-selected when needed)",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_build = sub.add_parser("build", help="build and save an HL index")
    p_build.add_argument("graph", help="edge-list file or disk CSR (.rpdc)")
    p_build.add_argument("-o", "--output", required=True, help="index output path")
    p_build.add_argument("-k", "--landmarks", type=int, default=20)
    p_build.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="degree"
    )
    p_build.add_argument(
        "--engine",
        choices=("stacked", "looped"),
        default="stacked",
        help="construction engine (identical output; stacked is faster)",
    )
    p_build.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="landmarks per stacked pass (bounds construction memory)",
    )
    p_build.add_argument(
        "--parallel",
        action="store_true",
        help="build with the chunk-parallel HL-P builder",
    )
    p_build.add_argument(
        "--store",
        choices=("vertex", "landmark"),
        default="vertex",
        help="in-memory label-store backend (identical snapshot on disk)",
    )
    p_build.add_argument(
        "--from-edgelist",
        action="store_true",
        help="stream-ingest the graph to a temporary disk CSR first "
        "(bounded parse memory for huge edge lists)",
    )
    p_build.add_argument(
        "--out-of-core",
        action="store_true",
        help="spill labels to disk during construction and assemble the "
        "v2 snapshot without holding it in RAM",
    )
    p_build.add_argument(
        "--edge-block",
        type=int,
        default=None,
        help="edges per BFS expansion block with --out-of-core "
        "(bounds resident adjacency pages)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="query distances from a saved index")
    p_query.add_argument(
        "graph", help="edge-list file (a vertex id with --remote)"
    )
    p_query.add_argument(
        "index", help="index file from 'build' (a vertex id with --remote)"
    )
    p_query.add_argument(
        "vertices", nargs="*", type=int, help="s t [s t ...]"
    )
    p_query.add_argument(
        "--mmap",
        action="store_true",
        help="map the v2 index zero-copy instead of reading it into RAM",
    )
    p_query.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT",
        help="query a running 'repro serve' over the wire instead of a "
        "local index (all positionals become vertex ids)",
    )
    _add_kernel_option(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_net_serve = sub.add_parser(
        "serve",
        help="host an index behind the asyncio TCP front door",
    )
    p_net_serve.add_argument("graph", help="edge-list file")
    p_net_serve.add_argument(
        "index", nargs="?", default=None,
        help="index file from 'build' (default: build in-process)",
    )
    p_net_serve.add_argument("--host", default="127.0.0.1")
    p_net_serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    p_net_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through N worker processes (1 = in-process oracle)",
    )
    p_net_serve.add_argument(
        "--dynamic",
        action="store_true",
        help="promote to a dynamic oracle so wire INSERT/DELETE work",
    )
    p_net_serve.add_argument(
        "--mmap",
        action="store_true",
        help="map the v2 index zero-copy instead of reading it into RAM",
    )
    p_net_serve.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help="watch this SnapshotSpool directory and roll over to new "
        "generations with zero downtime",
    )
    p_net_serve.add_argument(
        "--poll-s", type=float, default=0.25, help="spool poll interval"
    )
    p_net_serve.add_argument("--max-queue", type=int, default=1024)
    p_net_serve.add_argument("--worker-threads", type=int, default=2)
    _add_kernel_option(p_net_serve)
    p_net_serve.set_defaults(func=_cmd_serve)

    p_net_bench = sub.add_parser(
        "net-bench",
        help="mixed read/write wire benchmark with mid-load rollover, "
        "exactness-verified",
    )
    p_net_bench.add_argument(
        "--n", type=int, default=2000, help="synthetic graph size"
    )
    p_net_bench.add_argument("-k", "--landmarks", type=int, default=16)
    p_net_bench.add_argument("--readers", type=int, default=4)
    p_net_bench.add_argument(
        "--rounds", type=int, default=24, help="batches per reader"
    )
    p_net_bench.add_argument("--batch-size", type=int, default=64)
    p_net_bench.add_argument(
        "--rollovers", type=int, default=2,
        help="snapshot generations published mid-load",
    )
    p_net_bench.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve each generation through N worker processes",
    )
    p_net_bench.add_argument("--seed", type=int, default=0)
    p_net_bench.add_argument(
        "--out", default=None, metavar="F",
        help="also write the report lines to this file",
    )
    _add_kernel_option(p_net_bench)
    p_net_bench.set_defaults(func=_cmd_net_bench)

    p_batch = sub.add_parser(
        "query-batch",
        help="bulk exact distances via the vectorized batch engine",
    )
    p_batch.add_argument("graph", help="edge-list file")
    p_batch.add_argument("index", help="index file from 'build'")
    source = p_batch.add_mutually_exclusive_group()
    source.add_argument(
        "--pairs-file", help="file with one 's t' pair per line"
    )
    source.add_argument(
        "--random", type=int, default=1000, help="sample this many random pairs"
    )
    p_batch.add_argument("--seed", type=int, default=0, help="seed for --random")
    p_batch.add_argument(
        "--mmap",
        action="store_true",
        help="map the v2 index zero-copy instead of reading it into RAM",
    )
    _add_kernel_option(p_batch)
    p_batch.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="T",
        help="executor threads the batch is split across (default: auto — "
        "one per CPU when the kernel releases the GIL, else sequential)",
    )
    p_batch.set_defaults(func=_cmd_query_batch)

    p_bench = sub.add_parser("bench-dataset", help="profile HL on a surrogate")
    p_bench.add_argument("name", choices=dataset_names())
    p_bench.add_argument("--scale", type=float, default=0.15)
    p_bench.add_argument("-k", "--landmarks", type=int, default=20)
    p_bench.add_argument("--pairs", type=int, default=200)
    p_bench.set_defaults(func=_cmd_bench_dataset)

    p_serve = sub.add_parser(
        "serve-bench",
        help="drive DistanceService with a concurrent workload and "
        "verify exactness",
    )
    p_serve.add_argument(
        "--graph", default=None, help="edge-list file (default: synthetic BA)"
    )
    p_serve.add_argument(
        "--n", type=int, default=5000, help="synthetic graph size"
    )
    p_serve.add_argument("-k", "--landmarks", type=int, default=20)
    p_serve.add_argument("--threads", type=int, default=16)
    p_serve.add_argument(
        "--queries", type=int, default=2000, help="total queries across threads"
    )
    p_serve.add_argument("--max-batch", type=int, default=512)
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="back the graph with N worker processes (1 = in-process oracle)",
    )
    p_serve.add_argument(
        "--exec-threads",
        type=int,
        default=None,
        metavar="M",
        help="executor thread-pool size per entry (or per shard worker "
        "with --shards > 1); default: auto from the kernel's "
        "releases_gil flag",
    )
    _add_kernel_option(p_serve)
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_shard = sub.add_parser(
        "shard-bench",
        help="single-process vs process-sharded bulk throughput, "
        "exactness-verified",
    )
    p_shard.add_argument(
        "--graph", default=None, help="edge-list file (default: synthetic BA)"
    )
    p_shard.add_argument(
        "--n", type=int, default=20000, help="synthetic graph size"
    )
    p_shard.add_argument("-k", "--landmarks", type=int, default=20)
    p_shard.add_argument("--shards", type=int, default=4)
    p_shard.add_argument(
        "--pairs", type=int, default=20000, help="total bulk query pairs"
    )
    p_shard.add_argument(
        "--batches", type=int, default=16, help="bulk calls the workload is split into"
    )
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="M",
        help="executor threads per shard worker (N shards x M threads; "
        "default: auto from the kernel's releases_gil flag)",
    )
    _add_kernel_option(p_shard)
    p_shard.set_defaults(func=_cmd_shard_bench)

    p_fsck = sub.add_parser(
        "fsck",
        help="validate snapshot / WAL files and report violated invariants",
    )
    p_fsck.add_argument(
        "paths",
        nargs="+",
        help="snapshot (.hl), write-ahead-log, or disk-CSR (.rpdc) files "
        "to check",
    )
    p_fsck.set_defaults(func=_cmd_fsck)

    p_methods = sub.add_parser(
        "methods", help="list registered oracle methods and capabilities"
    )
    p_methods.set_defaults(func=_cmd_methods)

    p_kernels = sub.add_parser(
        "kernels",
        help="list the query kernel backends (numpy, cext) and the local "
        "default",
    )
    p_kernels.set_defaults(func=_cmd_kernels)

    p_list = sub.add_parser("datasets", help="list the surrogate networks")
    p_list.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — standard CLI etiquette.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
