"""Benchmark: O(affected) dynamic repair and mmap snapshot loading.

Two serving-side costs of the dynamic extension are measured against
their pre-LabelStore ("seed") counterparts:

1. **Insert-repair throughput.** The seed repair path rebuilt the whole
   label store on every update: rerun the affected landmarks' pruned
   BFSs, then re-accumulate *all* ``k`` landmarks — extracting each
   unaffected landmark's entries with a ``flatnonzero`` scan over the
   flat CSR arrays — and freeze a fresh store. The landmark-major
   store instead splices only the affected runs in O(affected entries).
   Both paths share the identical stacked BFS, so the measured delta is
   purely label-store bookkeeping. The acceptance bar is >= 5x on a
   20k-vertex BA graph at k=64 for an insert affecting <= 8 landmarks,
   with the repaired labelling byte-identical to a fresh build.

2. **Snapshot-load latency.** A snapshot loaded with ``mmap=True``
   maps the label arrays zero-copy; the copying load reads the whole
   index into RAM. The table reports both.

Environment knobs (for CI smoke runs):

* ``REPRO_BENCH_DYN_N`` — graph size (default 20000).

Run standalone with ``python benchmarks/bench_dynamic.py``
(``--smoke`` for the small CI configuration).
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import save_and_print

from repro.core.construction import build_highway_cover_labelling
from repro.core.construction_engine import stacked_pruned_bfs
from repro.core.dynamic import DynamicHighwayCoverOracle
from repro.core.labels import LabelAccumulator
from repro.core.serialization import load_oracle, save_oracle
from repro.graphs.generators import barabasi_albert_graph
from repro.utils.formatting import format_table

NUM_VERTICES = int(os.environ.get("REPRO_BENCH_DYN_N", "20000"))
NUM_LANDMARKS = 64
MAX_AFFECTED = 8
#: Acceptance bar on the full workload; smoke graphs amortize less.
FULL_WORKLOAD_SPEEDUP = 5.0


def _time_best(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _low_impact_insertions(oracle, limit: int = 3):
    """Distance-2 non-edges whose insertion affects <= MAX_AFFECTED landmarks.

    Close pairs sit on nearly equal BFS levels for most landmarks, which
    is exactly the local-update regime the repair is built for.
    """
    graph = oracle.graph
    rng = np.random.default_rng(17)
    found = []
    for u in rng.permutation(graph.num_vertices):
        u = int(u)
        neighbors = graph.neighbors(u)
        if len(neighbors) == 0:
            continue
        via = int(neighbors[rng.integers(len(neighbors))])
        for v in graph.neighbors(via):
            v = int(v)
            if v == u or graph.has_edge(u, v) or oracle._landmark_mask[v]:
                continue
            affected = oracle._affected_landmarks(u, v)
            if 1 <= len(affected) <= MAX_AFFECTED:
                found.append((u, v, affected))
                break
        if len(found) >= limit:
            break
    return found


def test_repair_speedup_and_correctness(results_dir):
    """Spliced repair vs seed whole-store rebuild: identical bytes, >= 5x."""
    graph = barabasi_albert_graph(NUM_VERTICES, 3, seed=7)
    oracle = DynamicHighwayCoverOracle(num_landmarks=NUM_LANDMARKS).build(graph)
    landmark_ids = oracle.highway.landmarks
    mask = oracle._landmark_mask
    k = len(landmark_ids)
    frozen = oracle.labelling.as_vertex_major()

    cases = _low_impact_insertions(oracle)
    assert cases, "no low-impact insertion candidates found"

    rows = []
    worst_speedup = float("inf")
    for case_index, (u, v, affected) in enumerate(cases):
        new_graph = graph.with_edges_added([(u, v)])
        affected_set = {int(r) for r in affected}
        indices = [i for i, r in enumerate(landmark_ids) if int(r) in affected_set]
        index_set = set(indices)
        roots = landmark_ids[indices]

        # Persistent landmark-major store, as the dynamic oracle keeps it.
        store = frozen.as_landmark_major()

        def spliced_repair():
            per_v, per_d, _ = stacked_pruned_bfs(new_graph, roots, mask, landmark_ids)
            for slot, index in enumerate(indices):
                store.set_landmark_result(index, per_v[slot], per_d[slot])

        def seed_repair():
            # The pre-LabelStore path: same BFS, then re-accumulate every
            # landmark (flatnonzero scan per unaffected one) and freeze.
            per_v, per_d, _ = stacked_pruned_bfs(new_graph, roots, mask, landmark_ids)
            accumulator = LabelAccumulator(new_graph.num_vertices, k)
            slot = 0
            for index in range(k):
                if index in index_set:
                    vertices, distances = per_v[slot], per_d[slot]
                    slot += 1
                else:
                    vertices, distances = frozen.entries_of_landmark(index)
                accumulator.add_landmark_result(index, vertices, distances)
            return accumulator.freeze()

        # Correctness first: the spliced store must match a fresh build.
        spliced_repair()
        if case_index == 0:
            fresh, _ = build_highway_cover_labelling(
                new_graph, [int(r) for r in landmark_ids]
            )
            assert store == fresh, "spliced repair diverged from fresh build"

        seed_s = _time_best(seed_repair)
        spliced_s = _time_best(spliced_repair)
        speedup = seed_s / spliced_s
        worst_speedup = min(worst_speedup, speedup)
        rows.append(
            [
                f"({u}, {v})",
                len(affected),
                f"{seed_s * 1e3:.1f}",
                f"{spliced_s * 1e3:.1f}",
                f"{speedup:.1f}x",
            ]
        )

    required = FULL_WORKLOAD_SPEEDUP if NUM_VERTICES >= 20_000 else 1.0
    assert worst_speedup >= required, (
        f"repair speedup {worst_speedup:.1f}x below the {required:.1f}x bar "
        f"(BA n={NUM_VERTICES}, k={NUM_LANDMARKS}, <= {MAX_AFFECTED} affected)"
    )
    save_and_print(
        results_dir,
        "dynamic",
        f"Dynamic insert repair: landmark-major splice vs seed rebuild "
        f"(BA n={NUM_VERTICES}, k={NUM_LANDMARKS})",
        format_table(
            ["edge", "affected", "seed [ms]", "spliced [ms]", "speedup"],
            rows,
        ),
    )


def test_snapshot_load_latency(results_dir, tmp_path):
    """v2 mmap loads zero-copy and without reading the label arrays."""
    graph = barabasi_albert_graph(NUM_VERTICES, 3, seed=7)
    oracle = DynamicHighwayCoverOracle(num_landmarks=NUM_LANDMARKS).build(graph)
    v2_path = tmp_path / "index.v2.hl"
    v2_bytes = save_oracle(oracle, v2_path)

    timings = {
        "v2 copy": _time_best(lambda: load_oracle(graph, v2_path)),
        "v2 mmap": _time_best(lambda: load_oracle(graph, v2_path, mmap=True)),
    }

    mapped = load_oracle(graph, v2_path, mmap=True)
    for array in (
        mapped.labelling.offsets,
        mapped.labelling.landmark_indices,
        mapped.labelling.distances,
    ):
        assert isinstance(array, np.memmap), "label arrays must stay on-disk"
    rng = np.random.default_rng(5)
    for s, t in rng.integers(0, graph.num_vertices, size=(25, 2)):
        assert mapped.query(int(s), int(t)) == oracle.query(int(s), int(t))

    rows = [
        [mode, f"{seconds * 1e3:.2f}"]
        for mode, seconds in timings.items()
    ]
    rows.append(["index size", f"{v2_bytes:,} bytes"])
    save_and_print(
        results_dir,
        "dynamic_load",
        f"Snapshot load latency (BA n={NUM_VERTICES}, k={NUM_LANDMARKS})",
        format_table(["mode", "load [ms]"], rows),
    )


if __name__ == "__main__":  # standalone: python benchmarks/bench_dynamic.py
    import pytest
    import sys

    argv = sys.argv[1:]
    if "--smoke" in argv:
        argv.remove("--smoke")
        os.environ.setdefault("REPRO_BENCH_DYN_N", "2000")
    raise SystemExit(pytest.main([__file__, "-q", "-s"] + argv))
