"""Property tests (hypothesis) for snapshot serialization.

Hypothesis draws the *shape* of a synthetic oracle — landmark count
(narrow 8-bit ids vs wide 32-bit ids), extra vertices, label density,
unreachable-pair probability and a numpy seed — and numpy generates the
bulk arrays, which keeps example generation fast while still exploring
the corners that matter: narrow/wide landmark ids, unreachable highway
pairs (the 0xFFFF sentinel), empty labellings, and disconnected graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.highway import Highway
from repro.core.labels import HighwayCoverLabelling
from repro.core.query import HighwayCoverOracle
from repro.core.serialization import load_oracle, save_oracle
from repro.errors import ReproError
from repro.graphs.graph import Graph

from builder_harness import HARNESS_GRAPHS


def _synthetic_oracle(k, extra, seed, density, inf_prob):
    """An oracle shell with random-but-valid labels and highway."""
    n = k + extra
    rng = np.random.default_rng(seed)
    offsets = np.zeros(n + 1, dtype=np.int64)
    all_ids, all_dists = [], []
    for v in range(n):
        count = 0
        if v >= k:  # landmarks carry no label
            count = int(rng.binomial(min(k, 8), density))
        if count:
            chosen = np.sort(
                rng.choice(k, size=count, replace=False)
            ).astype(np.int32)
            all_ids.append(chosen)
            all_dists.append(rng.integers(1, 256, size=count).astype(np.int32))
        offsets[v + 1] = offsets[v] + count
    ids = (
        np.concatenate(all_ids) if all_ids else np.empty(0, dtype=np.int32)
    )
    dists = (
        np.concatenate(all_dists) if all_dists else np.empty(0, dtype=np.int32)
    )
    values = rng.integers(1, 65535, size=(k, k)).astype(float)
    values[rng.random((k, k)) < inf_prob] = np.inf  # 0xFFFF sentinel on disk
    matrix = np.zeros((k, k))
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    matrix[upper] = values[upper]
    matrix = matrix + matrix.T
    np.fill_diagonal(matrix, 0.0)

    graph = Graph(n, [])
    highway = Highway(list(range(k)), matrix)
    labelling = HighwayCoverLabelling(n, k, offsets, ids, dists)
    oracle = HighwayCoverOracle(num_landmarks=k, landmarks=list(range(k)))
    oracle.graph = graph
    oracle.labelling = labelling
    oracle.highway = highway
    oracle._landmark_mask = highway.landmark_mask(n)
    return graph, oracle


def _assert_state_equal(loaded, oracle):
    original = oracle.labelling.as_vertex_major()
    restored = loaded.labelling.as_vertex_major()
    assert np.array_equal(restored.offsets, original.offsets)
    assert np.array_equal(restored.landmark_indices, original.landmark_indices)
    assert np.array_equal(restored.distances, original.distances)
    assert np.array_equal(loaded.highway.matrix, oracle.highway.matrix)
    assert np.array_equal(loaded.highway.landmarks, oracle.highway.landmarks)


oracle_shapes = st.tuples(
    st.integers(1, 12) | st.integers(250, 300),  # narrow and wide landmark ids
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),  # inf_prob = 1.0 → every off-diagonal pair 0xFFFF
)


class TestRoundTripProperties:
    @settings(max_examples=30, deadline=None)
    @given(shape=oracle_shapes)
    def test_save_load_round_trip(self, tmp_path_factory, shape):
        graph, oracle = _synthetic_oracle(*shape)
        path = tmp_path_factory.mktemp("ser") / "index.hl"
        save_oracle(oracle, path)
        _assert_state_equal(load_oracle(graph, path), oracle)

    @settings(max_examples=20, deadline=None)
    @given(shape=oracle_shapes)
    def test_mmap_load_matches_copy_load(self, tmp_path_factory, shape):
        graph, oracle = _synthetic_oracle(*shape)
        path = tmp_path_factory.mktemp("ser") / "index.hl"
        save_oracle(oracle, path)
        mapped = load_oracle(graph, path, mmap=True)
        _assert_state_equal(mapped, oracle)
        assert isinstance(mapped.labelling.offsets, np.memmap)

    @settings(max_examples=20, deadline=None)
    @given(shape=oracle_shapes, cut=st.floats(0.0, 1.0))
    def test_any_truncation_is_a_clear_error(
        self, tmp_path_factory, shape, cut
    ):
        graph, oracle = _synthetic_oracle(*shape)
        path = tmp_path_factory.mktemp("ser") / "index.hl"
        size = save_oracle(oracle, path)
        keep = min(int(size * cut), size - 1)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ReproError):
            load_oracle(graph, path)


class TestRealGraphs:
    def test_disconnected_graph_round_trip(self, tmp_path):
        graph = HARNESS_GRAPHS["disconnected"]()
        oracle = HighwayCoverOracle(num_landmarks=6).build(graph)
        assert np.isinf(oracle.highway.matrix).any(), (
            "disconnected fixture should exercise the 0xFFFF sentinel"
        )
        path = tmp_path / "index.hl"
        save_oracle(oracle, path)
        loaded = load_oracle(graph, path)
        _assert_state_equal(loaded, oracle)
        rng = np.random.default_rng(3)
        for s, t in rng.integers(0, graph.num_vertices, size=(40, 2)):
            assert loaded.query(int(s), int(t)) == oracle.query(int(s), int(t))

    def test_landmark_store_snapshots_identically(self, tmp_path, ba_graph):
        """Mutable and frozen backends serialize to identical bytes."""
        frozen = HighwayCoverOracle(num_landmarks=7, store="vertex").build(ba_graph)
        mutable = HighwayCoverOracle(num_landmarks=7, store="landmark").build(ba_graph)
        a, b = tmp_path / "a.hl", tmp_path / "b.hl"
        save_oracle(frozen, a)
        save_oracle(mutable, b)
        assert a.read_bytes() == b.read_bytes()
