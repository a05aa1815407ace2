"""Conformance suite for the capability-based oracle API.

Every method registered in :mod:`repro.api.factory` is run through the
same gauntlet on scale-free, small-world, and disconnected graphs:
build, exact point queries against BFS ground truth, ``query_many``
against looped ``query``, and — capability by capability — the checks
that what an oracle *advertises* through ``capabilities()`` matches
what it *does*. The suite is what makes the protocol's contracts
(module docstring of :mod:`repro.api.protocol`) enforceable rather
than aspirational; a newly registered backend gets the whole gauntlet
for free.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import (
    Capability,
    DistanceOracle,
    available_methods,
    build_oracle,
    capabilities_of,
    make_oracle,
    open_oracle,
    resolve_method,
)
from repro.graphs.connectivity import largest_connected_component
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.graphs.graph import Graph
from repro.search.bfs import bfs_distance

#: Fast constructor options per method (tests favour small indexes).
METHOD_OPTIONS = {
    "hl": dict(num_landmarks=8),
    "hl-p": dict(num_landmarks=8, workers=2),
    "hl8": dict(num_landmarks=8),
    "hl-dyn": dict(num_landmarks=8),
    "fd": dict(num_landmarks=6),
    "alt": dict(num_landmarks=6),
    "pll": {},
    "isl": {},
    "bfs": {},
    "bibfs": {},
    "dijkstra": {},
}

METHOD_NAMES = sorted(METHOD_OPTIONS)

#: Online methods: contractually zero-size indexes.
ZERO_INDEX_METHODS = ("bfs", "bibfs", "dijkstra")


def _registry_is_covered():
    return sorted(spec.name for spec in available_methods()) == METHOD_NAMES


def _disconnected_graph() -> Graph:
    """Two components: a 2-chorded cycle and a star, plus an isolate."""
    cycle = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)]
    star = [(12, 12 + i) for i in range(1, 7)]
    return Graph(20, cycle + star, name="disconnected")


@pytest.fixture(scope="module")
def conformance_graphs():
    ws, _ = largest_connected_component(watts_strogatz_graph(90, 4, 0.1, seed=6))
    return {
        "ba": barabasi_albert_graph(120, 3, seed=5),
        "ws": ws,
        "disconnected": _disconnected_graph(),
    }


def _sample_pairs(graph: Graph, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, graph.num_vertices, size=(count, 2))
    pairs[0] = (0, 0)  # always include a same-vertex pair
    pairs[1] = (0, graph.num_vertices - 1)  # spans components when split
    return pairs.astype(np.int64)


def test_method_list_matches_registry():
    """This suite covers exactly the registered methods — a new
    registration must add itself to METHOD_OPTIONS to get the gauntlet."""
    assert _registry_is_covered()


@pytest.mark.parametrize("method", METHOD_NAMES)
class TestConformance:
    def test_protocol_shape(self, method):
        oracle = make_oracle(method, **METHOD_OPTIONS[method])
        assert isinstance(oracle, DistanceOracle)
        assert isinstance(oracle.name, str) and oracle.name
        caps = oracle.capabilities()
        assert isinstance(caps, frozenset)
        assert caps == capabilities_of(oracle)
        assert all(isinstance(c, Capability) for c in caps)

    def test_spec_capabilities_match_instance(self, method):
        """The registry's declared contract equals what a
        default-configured instance actually advertises — the spec is
        load-bearing (open_oracle's snapshot gate), not display-only."""
        assert resolve_method(method).capabilities == capabilities_of(
            make_oracle(method)
        )

    def test_exact_queries_and_batch(self, method, conformance_graphs):
        for graph in conformance_graphs.values():
            oracle = build_oracle(graph, method, **METHOD_OPTIONS[method])
            pairs = _sample_pairs(graph, 25, seed=17)
            looped = np.array(
                [oracle.query(int(s), int(t)) for s, t in pairs], dtype=float
            )
            truth = np.array(
                [bfs_distance(graph, int(s), int(t)) for s, t in pairs]
            )
            assert np.array_equal(looped, truth), (method, graph.name)
            # Capability.BATCH contract: query_many == looped query.
            assert Capability.BATCH in oracle.capabilities()
            batched = np.asarray(oracle.query_many(pairs), dtype=float)
            assert np.array_equal(batched, looped), (method, graph.name)

    def test_size_accounting_is_total(self, method, conformance_graphs):
        """size_bytes / average_label_size never raise on a built oracle,
        and are contractually zero for the index-free methods."""
        oracle = make_oracle(method, **METHOD_OPTIONS[method])
        if method in ZERO_INDEX_METHODS:
            # Zero even before build: the zero *is* the answer.
            assert oracle.size_bytes() == 0
            assert oracle.average_label_size() == 0.0
        oracle.build(conformance_graphs["ba"])
        size = oracle.size_bytes()
        als = oracle.average_label_size()
        assert isinstance(size, int) and size >= 0
        assert als >= 0.0
        if method in ZERO_INDEX_METHODS:
            assert size == 0 and als == 0.0
        else:
            assert size > 0

    def test_dynamic_capability_matches_behaviour(self, method, conformance_graphs):
        graph = conformance_graphs["ba"]
        oracle = build_oracle(graph, method, **METHOD_OPTIONS[method])
        advertises = Capability.DYNAMIC in oracle.capabilities()
        has_both = hasattr(oracle, "insert_edge") and hasattr(oracle, "delete_edge")
        # Honesty: advertised iff both update directions exist (FD's
        # insert-only repair must not advertise).
        assert advertises == has_both
        if not advertises:
            return
        rng = np.random.default_rng(3)
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
            if u != v and not graph.has_edge(u, v):
                break
        oracle.insert_edge(u, v)
        assert oracle.query(u, v) == 1.0
        pairs = _sample_pairs(oracle.graph, 20, seed=23)
        truth = [bfs_distance(oracle.graph, int(s), int(t)) for s, t in pairs]
        assert [oracle.query(int(s), int(t)) for s, t in pairs] == truth
        oracle.delete_edge(u, v)
        truth = [bfs_distance(oracle.graph, int(s), int(t)) for s, t in pairs]
        assert [oracle.query(int(s), int(t)) for s, t in pairs] == truth

    def test_snapshot_capability_round_trip(self, method, conformance_graphs, tmp_path):
        graph = conformance_graphs["ba"]
        oracle = build_oracle(graph, method, **METHOD_OPTIONS[method])
        if Capability.SNAPSHOT not in oracle.capabilities():
            # Non-snapshot methods must be rejected by the restore path.
            with pytest.raises((ValueError, AttributeError)):
                open_oracle(graph, index=tmp_path / "x.hl", method=method)
            return
        path = tmp_path / f"{method}.hl"
        written = oracle.save(path)
        assert written == path.stat().st_size > 0
        pairs = _sample_pairs(graph, 20, seed=29)
        for mmap in (False, True):
            restored = open_oracle(graph, index=path, mmap=mmap)
            assert np.array_equal(
                np.asarray(restored.query_many(pairs), dtype=float),
                np.asarray(oracle.query_many(pairs), dtype=float),
            )

    def test_paths_capability(self, method, conformance_graphs):
        graph = conformance_graphs["disconnected"]
        oracle = build_oracle(graph, method, **METHOD_OPTIONS[method])
        if Capability.PATHS not in oracle.capabilities():
            return
        for s, t in ((0, 6), (1, 4), (13, 14)):
            path = oracle.shortest_path(s, t)
            assert path is not None and path[0] == s and path[-1] == t
            assert len(path) - 1 == oracle.query(s, t)
        assert oracle.shortest_path(0, 13) is None  # cross-component


class TestFactories:
    def test_aliases_resolve_case_insensitively(self):
        for alias, canonical in (
            ("HL", "hl"),
            ("HL-P", "hl-p"),
            ("HL(8)", "hl8"),
            ("IS-L", "isl"),
            ("Bi-BFS", "bibfs"),
            ("dijkstra", "dijkstra"),
        ):
            assert resolve_method(alias).name == canonical

    def test_unknown_method_lists_options(self):
        with pytest.raises(KeyError, match="unknown method"):
            make_oracle("HHL")

    def test_dynamic_flag_routes_to_dynamic_oracle(self, conformance_graphs):
        from repro.core.dynamic import DynamicHighwayCoverOracle

        oracle = build_oracle(
            conformance_graphs["ba"], "hl", dynamic=True, num_landmarks=6
        )
        assert isinstance(oracle, DynamicHighwayCoverOracle)
        assert Capability.DYNAMIC in oracle.capabilities()

    def test_dynamic_flag_rejected_for_static_methods(self):
        with pytest.raises(ValueError, match="no dynamic variant"):
            make_oracle("pll", dynamic=True)

    def test_open_oracle_reads_edge_lists(self, tmp_path):
        edge_file = tmp_path / "g.txt"
        edge_file.write_text("0 1\n1 2\n2 3\n")
        oracle = open_oracle(edge_file, method="hl", num_landmarks=2)
        assert oracle.query(0, 3) == 3.0

    def test_open_oracle_rejects_mmap_without_index(self, conformance_graphs):
        with pytest.raises(ValueError, match="mmap"):
            open_oracle(conformance_graphs["ba"], mmap=True)

    def test_open_oracle_rejects_options_with_index(
        self, conformance_graphs, tmp_path
    ):
        graph = conformance_graphs["ba"]
        path = tmp_path / "i.hl"
        build_oracle(graph, "hl", num_landmarks=4).save(path)
        with pytest.raises(ValueError, match="ignored"):
            open_oracle(graph, index=path, num_landmarks=9)

    def test_open_oracle_promotes_snapshots_to_dynamic(
        self, conformance_graphs, tmp_path
    ):
        graph = conformance_graphs["ba"]
        path = tmp_path / "i.hl"
        build_oracle(graph, "hl", num_landmarks=6).save(path)
        oracle = open_oracle(graph, index=path, dynamic=True)
        assert Capability.DYNAMIC in oracle.capabilities()
        rng = np.random.default_rng(5)
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
            if u != v and not graph.has_edge(u, v):
                break
        oracle.insert_edge(u, v)
        assert oracle.query(u, v) == 1.0

    def test_open_oracle_rejects_bad_source(self):
        with pytest.raises(TypeError, match="Graph or an edge-list path"):
            open_oracle(12345)

    def test_registry_specs_have_descriptions(self):
        for spec in available_methods():
            assert spec.description
            assert spec.capabilities  # every method at least batches


class TestDeprecationShim:
    """The protocol's package-level re-export imports without warnings."""

    def test_baselines_package_reexport_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.baselines import DistanceOracle as via_package
        assert via_package is DistanceOracle
