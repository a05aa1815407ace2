"""Benchmark: kernel backends on the single-query hot path.

The kernel layer (:mod:`repro.core.kernels`) hosts the three query hot
loops — highway-row decode, the Eq. 4 label-intersection bound, and the
Algorithm 2 bounded bidirectional BFS — behind swappable backends. This
benchmark answers the same random-pair workload through ``oracle.query``
once per available backend, asserts the distances are **byte-identical**
across backends, and reports per-query latency. The acceptance bar: on
the full workload (20k-vertex BA, k=20) the best compiled backend must
beat the interpreted ``numpy`` reference by **>= 10x** on single-query
latency. The batch path (``query_many``) is reported per backend too,
since the stacked multi-target kernel also moved behind the seam.

Environment knobs (for CI smoke runs):

* ``REPRO_BENCH_KERNEL_N`` — graph size (default 20000).
* ``REPRO_BENCH_KERNEL_PAIRS`` — workload size (default 400).

Run standalone with ``python benchmarks/bench_kernels.py`` (``--smoke``
for the small CI configuration, which asserts exactness across backends
but relaxes the 10x bar — tiny graphs leave the BFS too shallow to
amortize). Results are recorded in ``benchmarks/results/kernels.txt``.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from conftest import RESULTS_DIR, save_and_print

from repro.core.kernels import available_kernels, get_kernel
from repro.core.query import HighwayCoverOracle
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.sampling import sample_vertex_pairs
from repro.utils.formatting import format_table

NUM_VERTICES = int(os.environ.get("REPRO_BENCH_KERNEL_N", "20000"))
NUM_PAIRS = int(os.environ.get("REPRO_BENCH_KERNEL_PAIRS", "400"))
NUM_LANDMARKS = 20
#: Acceptance bar on the full workload (ISSUE 7): best compiled backend
#: vs the numpy reference on single-query latency.
FULL_WORKLOAD_SPEEDUP = 10.0


def _time_point_queries(oracle, pairs) -> float:
    """Best-of-3 wall time for the looped scalar query path."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for s, t in pairs:
            oracle.query(int(s), int(t))
        best = min(best, time.perf_counter() - start)
    return best


def main(smoke: bool = False) -> int:
    global NUM_VERTICES, NUM_PAIRS
    if smoke:
        NUM_VERTICES = min(NUM_VERTICES, 1500)
        NUM_PAIRS = min(NUM_PAIRS, 200)

    graph = barabasi_albert_graph(NUM_VERTICES, 3, seed=7, name="kernel-bench")
    oracle = HighwayCoverOracle(num_landmarks=NUM_LANDMARKS).build(graph)
    pairs = sample_vertex_pairs(graph, NUM_PAIRS, seed=9)
    print(
        f"kernel benchmark: n={graph.num_vertices:,}, m={graph.num_edges:,}, "
        f"k={NUM_LANDMARKS}, {NUM_PAIRS:,} pairs, "
        f"backends={', '.join(available_kernels())}"
    )

    rows = []
    per_query_us = {}
    reference = None
    for name in available_kernels():
        backend = get_kernel(name)
        oracle.set_kernel(name)
        oracle.query(int(pairs[0, 0]), int(pairs[0, 1]))  # warm caches
        point_s = _time_point_queries(oracle, pairs)
        point = np.array(
            [oracle.query(int(s), int(t)) for s, t in pairs], dtype=float
        )
        oracle.query_many(pairs[:16])
        start = time.perf_counter()
        batch = oracle.query_many(pairs)
        batch_s = time.perf_counter() - start

        if reference is None:
            reference = (name, point, batch)
        else:
            ref_name, ref_point, ref_batch = reference
            assert np.array_equal(point, ref_point), (
                f"kernel {name!r} point queries diverged from {ref_name!r}"
            )
            assert np.array_equal(batch, ref_batch), (
                f"kernel {name!r} query_many diverged from {ref_name!r}"
            )

        per_query_us[name] = point_s / len(pairs) * 1e6
        rows.append(
            [
                name,
                "yes" if backend.compiled else "no",
                "yes" if backend.releases_gil else "no",
                f"{per_query_us[name]:.1f}",
                f"{batch_s / len(pairs) * 1e6:.1f}",
                "",  # speedup column filled below
            ]
        )

    numpy_us = per_query_us["numpy"]
    for row in rows:
        row[-1] = f"{numpy_us / per_query_us[row[0]]:.1f}x"

    rendered = format_table(
        ["backend", "compiled", "no-GIL", "query [us]", "batch [us/pair]",
         "vs numpy"],
        rows,
    )
    title = (
        f"Kernel backends: single-query latency and batch throughput "
        f"(n={graph.num_vertices:,}, k={NUM_LANDMARKS}, {NUM_PAIRS:,} pairs"
        f"{', smoke' if smoke else ''})"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    save_and_print(RESULTS_DIR, "kernels", title, rendered)

    compiled = [n for n in per_query_us if get_kernel(n).compiled]
    print(
        f"exactness: all backends byte-identical on the shared workload; "
        f"compiled backends: {', '.join(compiled) or 'none'}"
    )
    if compiled:
        best = min(compiled, key=per_query_us.get)
        speedup = numpy_us / per_query_us[best]
        if not smoke and speedup < FULL_WORKLOAD_SPEEDUP:
            print(
                f"FAIL: best compiled backend {best!r} is {speedup:.1f}x vs "
                f"numpy, below the {FULL_WORKLOAD_SPEEDUP:.0f}x acceptance "
                f"bar",
                file=sys.stderr,
            )
            return 1
    elif not smoke:
        print(
            "WARN: no compiled backend available (no C compiler); the "
            "10x bar was not exercised",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(smoke="--smoke" in sys.argv))
