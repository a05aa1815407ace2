"""Property-based tests for the extension modules.

Hypothesis drives random graphs and random mutations through the
dynamic-update, serialization, batch and path-reconstruction layers,
asserting each is indistinguishable from the ground-truth recomputation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import DynamicHighwayCoverOracle
from repro.core.paths import shortest_path
from repro.core.query import HighwayCoverOracle
from repro.core.serialization import load_oracle, save_oracle
from repro.graphs.graph import Graph
from repro.search.bfs import UNREACHED, bfs_distances


@st.composite
def connected_graphs(draw, min_vertices=3, max_vertices=30):
    """A random connected graph (random tree plus extra edges)."""
    n = draw(st.integers(min_vertices, max_vertices))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = [(i + 1, p) for i, p in enumerate(parents)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return Graph(n, edges)


@st.composite
def graphs_with_landmarks(draw):
    graph = draw(connected_graphs())
    k = draw(st.integers(1, min(5, graph.num_vertices)))
    landmarks = draw(
        st.lists(
            st.integers(0, graph.num_vertices - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return graph, landmarks


@given(graphs_with_landmarks(), st.data())
@settings(max_examples=40, deadline=None)
def test_dynamic_insert_equals_rebuild(graph_landmarks, data):
    """After any insertion, the repaired index equals a fresh build."""
    graph, landmarks = graph_landmarks
    oracle = DynamicHighwayCoverOracle(landmarks=landmarks).build(graph)
    n = graph.num_vertices
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    if u == v or graph.has_edge(u, v):
        return
    oracle.insert_edge(u, v)
    fresh = HighwayCoverOracle(landmarks=landmarks).build(oracle.graph)
    assert oracle.labelling == fresh.labelling
    assert np.array_equal(oracle.highway.matrix, fresh.highway.matrix)


@given(graphs_with_landmarks(), st.data())
@settings(max_examples=30, deadline=None)
def test_serialization_round_trip(graph_landmarks, data):
    import tempfile
    from pathlib import Path

    graph, landmarks = graph_landmarks
    oracle = HighwayCoverOracle(landmarks=landmarks).build(graph)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.hl"
        save_oracle(oracle, path)
        loaded = load_oracle(graph, path)
    s = data.draw(st.integers(0, graph.num_vertices - 1))
    t = data.draw(st.integers(0, graph.num_vertices - 1))
    assert loaded.query(s, t) == oracle.query(s, t)
    assert loaded.labelling == oracle.labelling


@given(graphs_with_landmarks())
@settings(max_examples=30, deadline=None)
def test_batch_query_equals_scalar(graph_landmarks):
    graph, landmarks = graph_landmarks
    oracle = HighwayCoverOracle(landmarks=landmarks).build(graph)
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, graph.num_vertices, size=(12, 2))
    distances, covered = oracle.batch_engine().query_many(
        pairs, return_coverage=True
    )
    for i, (s, t) in enumerate(pairs):
        assert distances[i] == oracle.query(int(s), int(t))
        assert covered[i] == oracle.is_covered(int(s), int(t))


@given(graphs_with_landmarks(), st.data())
@settings(max_examples=40, deadline=None)
def test_path_reconstruction_valid_and_tight(graph_landmarks, data):
    graph, landmarks = graph_landmarks
    oracle = HighwayCoverOracle(landmarks=landmarks).build(graph)
    s = data.draw(st.integers(0, graph.num_vertices - 1))
    t = data.draw(st.integers(0, graph.num_vertices - 1))
    path = shortest_path(oracle, s, t)
    truth = bfs_distances(graph, s)[t]
    if truth == UNREACHED:
        assert path is None
        return
    assert path is not None
    assert path[0] == s and path[-1] == t
    assert len(path) - 1 == truth
    for a, b in zip(path, path[1:]):
        assert graph.has_edge(a, b)
