"""Tests for vectorized batch queries through the oracle's batch engine."""

import numpy as np
import pytest

from repro.core.query import HighwayCoverOracle
from repro.graphs.sampling import sample_vertex_pairs


@pytest.fixture(scope="module")
def oracle(request):
    from repro.graphs.generators import barabasi_albert_graph

    graph = barabasi_albert_graph(300, 3, seed=11)
    return HighwayCoverOracle(num_landmarks=8).build(graph)


@pytest.fixture(scope="module")
def engine(oracle):
    return oracle.batch_engine()


class TestBatchQuery:
    def test_matches_scalar_queries(self, oracle, engine):
        pairs = sample_vertex_pairs(oracle.graph, 150, seed=2)
        distances, covered = engine.query_many(pairs, return_coverage=True)
        for i, (s, t) in enumerate(pairs):
            assert distances[i] == oracle.query(int(s), int(t))
            assert covered[i] == oracle.is_covered(int(s), int(t))

    def test_same_vertex_pairs(self, engine):
        pairs = np.asarray([[3, 3], [5, 5]])
        distances, covered = engine.query_many(pairs, return_coverage=True)
        assert distances.tolist() == [0.0, 0.0]
        assert covered.all()

    def test_landmark_pairs(self, oracle, engine):
        landmarks = [int(r) for r in oracle.highway.landmarks[:3]]
        pairs = np.asarray([[landmarks[0], landmarks[1]], [landmarks[2], 100]])
        distances, _ = engine.query_many(pairs, return_coverage=True)
        assert distances[0] == oracle.query(landmarks[0], landmarks[1])
        assert distances[1] == oracle.query(landmarks[2], 100)

    def test_bad_shape_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.query_many(np.asarray([1, 2, 3]))

    def test_without_coverage(self, oracle, engine):
        pairs = sample_vertex_pairs(oracle.graph, 20, seed=3)
        distances, covered = engine.query_many(pairs)
        assert covered is None
        assert len(distances) == 20


class TestBounds:
    def test_batch_bounds_match_scalar(self, oracle, engine):
        pairs = sample_vertex_pairs(oracle.graph, 60, seed=4)
        bounds = engine.upper_bounds(pairs)
        for i, (s, t) in enumerate(pairs):
            assert bounds[i] == oracle.upper_bound(int(s), int(t))


class TestCoverage:
    def test_ratio_in_unit_interval(self, oracle, engine):
        pairs = sample_vertex_pairs(oracle.graph, 100, seed=5)
        ratio = engine.coverage_ratio(pairs)
        assert 0.0 <= ratio <= 1.0

    def test_empty_pairs(self, engine):
        assert engine.coverage_ratio(np.empty((0, 2), dtype=np.int64)) == 0.0
