"""Randomized cross-validation and edge cases for the batch query engine.

The contract under test: ``oracle.query_many(pairs)`` is bitwise
identical to looping ``oracle.query`` over the rows, which in turn equals
plain-BFS ground truth on the full graph — over random graph families,
disconnected graphs, and landmark counts from k=1 to k=n.
"""

import numpy as np
import pytest

from repro.core.batch_engine import BatchQueryEngine, as_pair_array
from repro.core.query import HighwayCoverOracle
from repro.errors import VertexError
from repro.graphs.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.graphs.sampling import sample_vertex_pairs
from repro.search.bfs import UNREACHED, bfs_distances


def disconnected_graph(seed: int) -> Graph:
    """Two random components plus a few isolated vertices."""
    left = barabasi_albert_graph(70, 2, seed=seed)
    right = erdos_renyi_graph(50, 3.0, seed=seed + 1)
    edges = list(left.edges()) + [(u + 70, v + 70) for u, v in right.edges()]
    return Graph(126, edges, name="disconnected")  # 120..125 isolated


GRAPH_FACTORIES = [
    pytest.param(lambda: erdos_renyi_graph(90, 4.0, seed=13), id="erdos-renyi"),
    pytest.param(lambda: barabasi_albert_graph(120, 2, seed=29), id="barabasi-albert"),
    pytest.param(lambda: disconnected_graph(5), id="disconnected"),
]


def ground_truth_distances(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """Plain BFS distances on the full graph, inf for unreachable."""
    out = np.empty(len(pairs), dtype=float)
    by_source = {}
    for i, (s, t) in enumerate(pairs):
        s, t = int(s), int(t)
        if s not in by_source:
            dist = bfs_distances(graph, s).astype(float)
            dist[dist == UNREACHED] = np.inf
            by_source[s] = dist
        out[i] = by_source[s][t]
    return out


def exercise_pairs(graph: Graph, oracle: HighwayCoverOracle, seed: int) -> np.ndarray:
    """Random pairs plus deliberate special cases (s==t, landmarks, dups)."""
    pairs = sample_vertex_pairs(graph, 250, seed=seed)
    landmarks = oracle.highway.landmarks
    special = np.asarray(
        [
            [4, 4],
            [int(landmarks[0]), int(landmarks[-1])],
            [int(landmarks[0]), 7],
            [9, int(landmarks[-1])],
        ],
        dtype=np.int64,
    )
    return np.vstack([pairs, special, pairs[:10], pairs[:10, ::-1]])


class TestRandomizedCrossValidation:
    @pytest.mark.parametrize("make_graph", GRAPH_FACTORIES)
    @pytest.mark.parametrize("num_landmarks", ["one", "few", "all"])
    def test_engine_equals_scalar_equals_bfs(self, make_graph, num_landmarks):
        graph = make_graph()
        k = {"one": 1, "few": 6, "all": graph.num_vertices}[num_landmarks]
        oracle = HighwayCoverOracle(num_landmarks=k).build(graph)
        pairs = exercise_pairs(graph, oracle, seed=17)

        batch = oracle.query_many(pairs)
        scalar = np.asarray([oracle.query(int(s), int(t)) for s, t in pairs])
        truth = ground_truth_distances(graph, pairs)
        # Bitwise identity, inf included: array_equal treats inf == inf.
        assert np.array_equal(batch, scalar)
        assert np.array_equal(batch, truth)

    @pytest.mark.parametrize("make_graph", GRAPH_FACTORIES)
    def test_bounds_match_scalar(self, make_graph):
        graph = make_graph()
        oracle = HighwayCoverOracle(num_landmarks=5).build(graph)
        pairs = exercise_pairs(graph, oracle, seed=23)
        bounds = oracle.batch_engine().upper_bounds(pairs)
        for i, (s, t) in enumerate(pairs):
            assert bounds[i] == oracle.upper_bound(int(s), int(t))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_many_seeds_small_graphs(self, seed):
        graph = erdos_renyi_graph(40, 3.0, seed=seed)
        oracle = HighwayCoverOracle(num_landmarks=3).build(graph)
        pairs = sample_vertex_pairs(graph, 120, seed=seed)
        batch = oracle.query_many(pairs)
        assert np.array_equal(batch, ground_truth_distances(graph, pairs))

    def test_deep_bound_fallback_path(self):
        """Force the bidirectional fallback and check it stays exact."""
        graph = barabasi_albert_graph(150, 2, seed=3)
        oracle = HighwayCoverOracle(num_landmarks=4).build(graph)
        engine = BatchQueryEngine(
            oracle.graph, oracle.labelling, oracle.highway, max_stacked_expansions=0
        )
        pairs = sample_vertex_pairs(graph, 200, seed=11)
        distances, _ = engine.query_many(pairs)
        assert np.array_equal(distances, ground_truth_distances(graph, pairs))


class TestEdgeCases:
    @pytest.fixture(scope="class")
    def oracle(self):
        return HighwayCoverOracle(num_landmarks=5).build(disconnected_graph(9))

    def test_empty_pairs(self, oracle):
        empty = np.empty((0, 2), dtype=np.int64)
        assert len(oracle.query_many(empty)) == 0
        distances, covered = oracle.query_many(empty, return_coverage=True)
        assert len(distances) == 0 and len(covered) == 0
        assert oracle.batch_engine().coverage_ratio(empty) == 0.0
        # Empty float arrays are accepted too (np.empty defaults to float).
        assert len(oracle.query_many(np.empty((0, 2)))) == 0

    def test_same_vertex_pairs(self, oracle):
        landmark = int(oracle.highway.landmarks[0])
        pairs = np.asarray([[3, 3], [landmark, landmark], [125, 125]])
        distances, covered = oracle.query_many(pairs, return_coverage=True)
        assert distances.tolist() == [0.0, 0.0, 0.0]
        assert covered.all()

    def test_duplicate_pairs(self, oracle):
        pairs = np.asarray([[2, 50], [2, 50], [50, 2], [2, 50]])
        distances = oracle.query_many(pairs)
        assert len(set(distances.tolist())) == 1
        assert distances[0] == oracle.query(2, 50)

    def test_both_endpoints_landmarks(self, oracle):
        landmarks = [int(r) for r in oracle.highway.landmarks]
        pairs = np.asarray([[r1, r2] for r1 in landmarks for r2 in landmarks])
        distances, covered = oracle.query_many(pairs, return_coverage=True)
        assert covered.all()
        for (r1, r2), d in zip(pairs, distances):
            assert d == oracle.highway.distance(int(r1), int(r2))

    def test_unreachable_pairs_are_inf(self, oracle):
        # 0 lives in the left component, 80 in the right, 125 is isolated.
        pairs = np.asarray([[0, 80], [0, 125], [125, 121]])
        distances = oracle.query_many(pairs)
        assert np.isinf(distances).all()

    def test_coverage_mask_agrees_with_is_covered(self, oracle):
        pairs = exercise_pairs(oracle.graph, oracle, seed=31)
        _, covered = oracle.query_many(pairs, return_coverage=True)
        expected = np.asarray(
            [oracle.is_covered(int(s), int(t)) for s, t in pairs]
        )
        assert np.array_equal(covered, expected)

    def test_coverage_ratio_matches_figure9_statistic(self, oracle):
        pairs = sample_vertex_pairs(oracle.graph, 150, seed=2)
        expected = np.mean(
            [oracle.is_covered(int(s), int(t)) for s, t in pairs]
        )
        ratio = oracle.batch_engine().coverage_ratio(pairs)
        assert ratio == pytest.approx(float(expected))


class TestValidation:
    @pytest.fixture(scope="class")
    def oracle(self):
        return HighwayCoverOracle(num_landmarks=4).build(
            barabasi_albert_graph(60, 2, seed=8)
        )

    @pytest.mark.parametrize(
        "bad",
        [
            np.asarray([1, 2, 3]),
            np.zeros((3, 3), dtype=np.int64),
            np.zeros((2, 2, 2), dtype=np.int64),
        ],
        ids=["flat", "k3", "3d"],
    )
    def test_bad_shapes_rejected_everywhere(self, oracle, bad):
        engine = oracle.batch_engine()
        for fn in (
            engine.query_many, engine.upper_bounds, engine.coverage_ratio
        ):
            with pytest.raises(ValueError):
                fn(bad)

    def test_float_pairs_rejected(self, oracle):
        bad = np.asarray([[0.5, 2.0]])
        engine = oracle.batch_engine()
        for fn in (
            engine.query_many, engine.upper_bounds, engine.coverage_ratio
        ):
            with pytest.raises(ValueError):
                fn(bad)

    def test_out_of_range_vertices_rejected(self, oracle):
        with pytest.raises(VertexError):
            oracle.batch_engine().upper_bounds(np.asarray([[0, 60]]))
        with pytest.raises(VertexError):
            oracle.batch_engine().query_many(np.asarray([[-1, 2]]))

    def test_as_pair_array_normalizes(self):
        out = as_pair_array([(0, 1), (2, 3)], num_vertices=4)
        assert out.dtype == np.int64 and out.shape == (2, 2)
        empty = as_pair_array(np.empty((0, 2)), num_vertices=4)
        assert empty.dtype == np.int64 and empty.shape == (0, 2)
