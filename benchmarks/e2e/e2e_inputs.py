"""Seeded inputs for the end-to-end benchmark, and an independent BFS.

Everything here is derived from the workload seed alone and uses no
``repro`` code, so the product only ever sees the generated files and
wire requests, and the ground-truth BFS shares no code with the system
it checks.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent, reproducible random stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), *stream.encode()])


def barabasi_albert_edges(n: int, m: int, seed: int) -> np.ndarray:
    """Preferential-attachment graph: vertex ``v >= m`` links to ``m``
    distinct earlier vertices drawn proportionally to degree.

    Vertex ids are ``0..n-1`` and every vertex has an edge, so the
    product's id compaction is the identity.
    """
    rng = random.Random(seed)
    ends = list(range(m))
    edges = np.empty((n - m, m, 2), dtype=np.int64)
    for v in range(m, n):
        targets = set()
        while len(targets) < m:
            targets.add(ends[int(rng.random() * len(ends))])
        ordered = sorted(targets)
        edges[v - m, :, 0] = v
        edges[v - m, :, 1] = ordered
        ends.extend(ordered)
        ends.extend([v] * m)
    return edges.reshape(-1, 2)


def attachment_edges(n: int, degree: int, seed: int) -> np.ndarray:
    """Vertex ``v`` links to ``min(v, degree)`` uniform earlier vertices.

    Connected and mildly skewed; may repeat an edge, which the ingest
    path must deduplicate.
    """
    rng = rng_for(seed, "attach")
    vs = np.arange(1, n, dtype=np.int64)
    heads = np.repeat(vs, np.minimum(vs, degree))
    tails = (rng.random(heads.size) * heads).astype(np.int64)
    return np.column_stack([heads, tails])


def write_edge_list(path: Path, edges: np.ndarray) -> None:
    """Write ``u v`` lines, the text format ``repro build``/``ingest`` read."""
    with open(path, "w") as handle:
        handle.write("# generated by benchmarks/e2e\n")
        handle.writelines(f"{u} {v}\n" for u, v in edges.tolist())


def csr_of(n: int, edges: np.ndarray):
    """Undirected CSR ``(indptr, indices)`` of an edge array."""
    heads = np.concatenate([edges[:, 0], edges[:, 1]])
    tails = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(heads, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr, tails[order]


def bfs(indptr: np.ndarray, indices: np.ndarray, source: int, extra=None) -> np.ndarray:
    """Hop distances from ``source`` (``-1`` = unreachable).

    ``extra`` is an optional additional undirected edge ``(u, v)``.
    """
    n = indptr.size - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts, ends = indptr[frontier], indptr[frontier + 1]
        counts = ends - starts
        offsets = np.repeat(ends - np.cumsum(counts), counts)
        neighbours = indices[offsets + np.arange(counts.sum())]
        if extra is not None:
            u, v = extra
            hits = [v] if (frontier == u).any() else []
            hits += [u] if (frontier == v).any() else []
            neighbours = np.concatenate([neighbours, np.asarray(hits, dtype=np.int64)])
        neighbours = np.unique(neighbours)
        frontier = neighbours[dist[neighbours] < 0]
        dist[frontier] = level
    return dist


def uniform_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` vertex pairs drawn uniformly over all ordered pairs."""
    return rng.integers(0, n, size=(count, 2), dtype=np.int64)


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival times in ``[0, duration)`` of a Poisson process of ``rate``/s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.2) + 64)
    times = np.cumsum(gaps)
    while times[-1] < duration:
        times = np.concatenate([times, times[-1] + np.cumsum(rng.exponential(1.0 / rate, 1024))])
    return times[times < duration]


def non_edges(rng: np.random.Generator, n: int, edges: np.ndarray, count: int) -> np.ndarray:
    """``count`` distinct vertex pairs that are not edges (nor loops)."""
    present = set(map(tuple, np.sort(edges, axis=1).tolist()))
    chosen = []
    while len(chosen) < count:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in present:
            present.add((u, v))
            chosen.append((u, v))
    return np.asarray(chosen, dtype=np.int64).reshape(-1, 2)
