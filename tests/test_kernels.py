"""The kernel layer: registry, conformance gauntlet, and hot-path fixes.

Covers:

* backend selection — explicit names, the ``REPRO_KERNEL`` environment
  variable, auto-detection order, and the error contract
  (:class:`KernelError` / :class:`KernelUnavailableError`);
* the conformance gauntlet — every backend available in this
  environment answers byte-identically across the builder harness's
  topology grid, the op-level interface, and the committed durability
  snapshot;
* the profiler-surfaced hot-path fixes — ``is_covered`` computing its
  bound once, steady-state point queries allocating no O(n) scratch,
  and provably-disconnected pairs skipping the search entirely.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.api import build_oracle, make_oracle, open_oracle
from repro.core import kernels as kernel_registry
from repro.core.kernels import (
    AUTO_ORDER,
    KERNEL_NAMES,
    KernelBackend,
    available_kernels,
    get_kernel,
    get_label_state,
    get_workspace,
    resolve_kernel,
)
from repro.core.kernels import interface as kernel_interface
from repro.core.query import HighwayCoverOracle
from repro.errors import KernelError, KernelUnavailableError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph
from repro.search.bfs import UNREACHED, bfs_distances

from builder_harness import (
    _disconnected_graph,
    assert_kernels_agree,
    harness_cases,
    sample_query_pairs,
)

FIXTURE_SNAPSHOT = (
    Path(__file__).resolve().parent / "fixtures" / "durability" / "clean.hl"
)


class CountingKernel(KernelBackend):
    """Delegating backend that counts calls per operation."""

    compiled = False
    releases_gil = False

    def __init__(self, inner: KernelBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = {
            "decode": 0,
            "upper_bound": 0,
            "bounded_distance": 0,
            "multi_target": 0,
        }

    def decode(self, state, r_index, vertex):
        self.calls["decode"] += 1
        return self.inner.decode(state, r_index, vertex)

    def upper_bound(self, state, s, t):
        self.calls["upper_bound"] += 1
        return self.inner.upper_bound(state, s, t)

    def bounded_distance(self, csr, source, target, bound, excluded, workspace):
        self.calls["bounded_distance"] += 1
        return self.inner.bounded_distance(
            csr, source, target, bound, excluded, workspace
        )

    def multi_target(self, csr, n, sources, targets, target_group, bounds,
                     excluded, workspace, cells_budget=1 << 26):
        self.calls["multi_target"] += 1
        return self.inner.multi_target(
            csr, n, sources, targets, target_group, bounds, excluded,
            workspace, cells_budget,
        )


def _counting_oracle(graph, **options):
    """A built oracle whose backend records per-operation call counts.

    The counter is attached directly to ``oracle.kernel`` (bypassing
    ``set_kernel``, which normalizes to registry names so oracles stay
    picklable).
    """
    oracle = HighwayCoverOracle(**options).build(graph)
    counter = CountingKernel(get_kernel("numpy"))
    oracle.kernel = counter
    oracle._batch_engine = None
    return oracle, counter


# -- Registry and selection ---------------------------------------------------


class TestRegistry:
    def test_numpy_always_available(self):
        names = available_kernels()
        assert "numpy" in names
        assert set(names) <= {"numpy", "cext"}

    def test_backends_are_cached_singletons(self):
        assert get_kernel("numpy") is get_kernel("numpy")

    def test_unknown_name_raises_kernel_error(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel("fortran")

    @pytest.mark.parametrize("name", ["numba", "pyloop"])
    def test_removed_backends_are_unknown(self, name):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel(name)

    def test_unavailable_backend_raises(self, monkeypatch, tmp_path):
        """Without a compiler, an explicit ``cext`` request raises and
        auto-detection falls back to ``numpy``."""
        from repro.core.kernels import cext

        monkeypatch.setattr(cext, "_find_compiler", lambda: None)
        monkeypatch.setattr(
            cext, "_cache_path", lambda: tmp_path / "librepro_kernels.so"
        )
        monkeypatch.setattr(kernel_registry, "_instances", {})
        monkeypatch.setattr(kernel_registry, "_auto_default", None)
        monkeypatch.delenv(kernel_registry.ENV_VAR, raising=False)
        with pytest.raises(KernelUnavailableError, match="compiler"):
            get_kernel("cext")
        assert get_kernel().name == "numpy"
        assert available_kernels() == ["numpy"]

    def test_auto_detection_order_is_cext_then_numpy(self, monkeypatch):
        monkeypatch.delenv(kernel_registry.ENV_VAR, raising=False)
        assert AUTO_ORDER == ("cext", "numpy")
        expected = "cext" if "cext" in available_kernels() else "numpy"
        assert get_kernel().name == expected

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernel_registry.ENV_VAR, "numpy")
        assert get_kernel().name == "numpy"

    def test_env_var_is_an_explicit_request(self, monkeypatch):
        monkeypatch.setenv(kernel_registry.ENV_VAR, "no-such-kernel")
        with pytest.raises(KernelError):
            get_kernel()

    def test_resolve_passes_backend_instances_through(self):
        backend = get_kernel("numpy")
        assert resolve_kernel(backend) is backend
        assert resolve_kernel("numpy") is backend
        assert resolve_kernel(None).name in KERNEL_NAMES

    def test_gil_and_compilation_metadata(self):
        expectations = {
            "numpy": (False, False),
            "cext": (True, True),
        }
        for name in available_kernels():
            backend = get_kernel(name)
            compiled, releases_gil = expectations[name]
            assert backend.compiled is compiled
            assert backend.releases_gil is releases_gil

    def test_oracle_rejects_unknown_kernel_eagerly(self):
        with pytest.raises(KernelError):
            HighwayCoverOracle(num_landmarks=2, kernel="fortran")

    def test_set_kernel_validates_and_stores_the_name(self, ba_graph):
        oracle = HighwayCoverOracle(num_landmarks=4).build(ba_graph)
        with pytest.raises(KernelError):
            oracle.set_kernel("fortran")
        oracle.set_kernel("numpy")
        assert oracle.kernel == "numpy"
        assert oracle.kernel_backend.name == "numpy"
        oracle.set_kernel(None)
        assert oracle.kernel is None

    def test_make_oracle_kernel_is_hl_family_only(self):
        oracle = make_oracle("hl", kernel="numpy")
        assert oracle.kernel == "numpy"
        with pytest.raises(ValueError, match="kernel seam"):
            make_oracle("bfs", kernel="numpy")


# -- Conformance gauntlet -----------------------------------------------------


@pytest.mark.parametrize(
    "case_id,graph,landmarks",
    [pytest.param(*case, id=case[0]) for case in harness_cases()],
)
def test_kernels_agree_across_topologies(case_id, graph, landmarks):
    """Every available backend is byte-identical on the harness grid."""
    assert_kernels_agree(graph, landmarks)


class TestOpLevelConformance:
    """Direct backend-interface comparisons (masks, inf bounds, decode)."""

    @pytest.fixture(scope="class")
    def built(self, ba_graph):
        oracle = HighwayCoverOracle(num_landmarks=8).build(ba_graph)
        state = get_label_state(oracle.labelling, oracle.highway)
        return oracle, state

    def test_decode_matches_reference(self, built):
        oracle, state = built
        reference = get_kernel("numpy")
        rng = np.random.default_rng(5)
        vertices = rng.integers(0, oracle.graph.num_vertices, size=24)
        for name in available_kernels():
            backend = get_kernel(name)
            for r_index in range(oracle.highway.num_landmarks):
                for v in vertices:
                    v = int(v)
                    if state.count(v) == 0:
                        continue
                    assert backend.decode(state, r_index, v) == reference.decode(
                        state, r_index, v
                    ), f"{name}: decode({r_index}, {v})"

    def test_bounded_distance_with_and_without_mask(self, built):
        oracle, _ = built
        graph, mask = oracle.graph, oracle._landmark_mask
        reference = get_kernel("numpy")
        workspace = get_workspace(graph.num_vertices)
        rng = np.random.default_rng(6)
        free = np.flatnonzero(~mask)
        cases = []
        for _ in range(40):
            s, t = rng.choice(free, size=2, replace=False)
            for bound in (2.0, 3.0, 6.0, float("inf")):
                cases.append((int(s), int(t), bound))
        for name in available_kernels():
            backend = get_kernel(name)
            for s, t, bound in cases:
                for excluded in (None, mask):
                    got = backend.bounded_distance(
                        graph.csr, s, t, bound, excluded, workspace
                    )
                    want = reference.bounded_distance(
                        graph.csr, s, t, bound, excluded, workspace
                    )
                    assert got == want, f"{name}: ({s},{t},{bound},{excluded is not None})"
                # The workspace contract: side is clean between calls.
                assert not workspace.side.any()

    def test_multi_target_with_inf_bounds(self, built):
        oracle, _ = built
        graph, mask = oracle.graph, oracle._landmark_mask
        reference = get_kernel("numpy")
        workspace = get_workspace(graph.num_vertices)
        rng = np.random.default_rng(7)
        free = np.flatnonzero(~mask)
        sources = rng.choice(free, size=6, replace=False).astype(np.int64)
        targets, groups, bounds = [], [], []
        for g, src in enumerate(sources):
            picks = rng.choice(free[free != src], size=5, replace=False)
            targets.extend(int(p) for p in picks)
            groups.extend([g] * 5)
            bounds.extend([2.0, 3.0, 4.0, 5.0, float("inf")])
        targets = np.array(targets, dtype=np.int64)
        groups = np.array(groups, dtype=np.int64)
        bounds = np.array(bounds, dtype=float)
        want = reference.multi_target(
            graph.csr, graph.num_vertices, sources, targets, groups,
            bounds, mask, workspace,
        )
        for name in available_kernels():
            backend = get_kernel(name)
            got = backend.multi_target(
                graph.csr, graph.num_vertices, sources, targets, groups,
                bounds, mask, workspace,
            )
            assert np.array_equal(got, want), f"{name}: multi_target diverged"
            assert (workspace.levels == -1).all()


def test_kernels_agree_on_committed_snapshot():
    """All backends answer identically from the durability fixture."""
    graph = barabasi_albert_graph(60, 2, seed=97)
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, graph.num_vertices, size=(200, 2), dtype=np.int64)
    reference = None
    for name in available_kernels():
        oracle = open_oracle(graph, index=FIXTURE_SNAPSHOT, kernel=name)
        assert oracle.kernel == name
        distances = oracle.query_many(pairs)
        if reference is None:
            reference = (name, distances)
        else:
            assert np.array_equal(distances, reference[1]), (
                f"kernel {name!r} diverged from {reference[0]!r} on clean.hl"
            )


def test_oracle_with_kernel_survives_pickling(ba_graph):
    """Backends never ride along in pickles — only the request name does."""
    for name in available_kernels():
        oracle = HighwayCoverOracle(num_landmarks=4, kernel=name).build(ba_graph)
        assert oracle.query(1, 200) == pickle.loads(pickle.dumps(oracle)).query(
            1, 200
        )


# -- Satellite: is_covered computes its bound once ----------------------------


class TestIsCoveredSingleBound:
    def test_one_bound_one_search_per_call(self, ba_graph):
        oracle, counter = _counting_oracle(ba_graph, num_landmarks=8)
        mask = oracle._landmark_mask
        free = np.flatnonzero(~mask)
        s, t = int(free[3]), int(free[-5])
        oracle.is_covered(s, t)
        assert counter.calls["upper_bound"] == 1, (
            "is_covered must compute the Eq. 4 bound exactly once"
        )
        assert counter.calls["bounded_distance"] == 1, (
            "is_covered must run the bounded search exactly once"
        )

    def test_trivial_classes_never_search(self, ba_graph):
        oracle, counter = _counting_oracle(ba_graph, num_landmarks=8)
        landmark = int(oracle.highway.landmarks[0])
        non_landmark = int(np.flatnonzero(~oracle._landmark_mask)[0])
        assert oracle.is_covered(5, 5) is True
        assert oracle.is_covered(landmark, non_landmark) is True
        assert oracle.is_covered(landmark, int(oracle.highway.landmarks[1])) is True
        assert counter.calls["upper_bound"] == 0
        assert counter.calls["bounded_distance"] == 0

    def test_verdicts_match_definition(self, ba_graph):
        oracle = HighwayCoverOracle(num_landmarks=8).build(ba_graph)
        pairs = sample_query_pairs(ba_graph, oracle.highway.landmarks, count=48)
        for s, t in pairs:
            s, t = int(s), int(t)
            assert oracle.is_covered(s, t) == (
                oracle.query(s, t) == oracle.upper_bound(s, t)
            )

    def test_figure9_coverage_unchanged(self, ba_graph):
        """Scalar is_covered agrees with the batch coverage statistic."""
        oracle = HighwayCoverOracle(num_landmarks=8).build(ba_graph)
        pairs = sample_query_pairs(ba_graph, oracle.highway.landmarks, count=48)
        _, covered = oracle.query_many(pairs, return_coverage=True)
        looped = np.array(
            [oracle.is_covered(int(s), int(t)) for s, t in pairs], dtype=bool
        )
        assert np.array_equal(covered, looped)


# -- Satellite: steady-state point queries allocate no O(n) scratch -----------


class TestWorkspaceReuse:
    def test_point_queries_reuse_scratch(self, ba_graph, monkeypatch):
        oracle = HighwayCoverOracle(num_landmarks=8).build(ba_graph)
        pairs = sample_query_pairs(ba_graph, oracle.highway.landmarks, count=32)
        warm = [oracle.query(int(s), int(t)) for s, t in pairs]

        allocations = []
        real_alloc = kernel_interface.scratch_alloc

        def counting_alloc(n, dtype):
            allocations.append((n, dtype))
            return real_alloc(n, dtype)

        monkeypatch.setattr(kernel_interface, "scratch_alloc", counting_alloc)
        hot = [oracle.query(int(s), int(t)) for s, t in pairs]
        assert hot == warm
        assert allocations == [], (
            f"steady-state point queries allocated O(n) scratch: {allocations}"
        )

    def test_workspace_is_per_thread_and_per_size(self):
        ws = get_workspace(64)
        assert ws is get_workspace(64)
        assert ws is not get_workspace(128)
        assert ws.side.shape == (64,)
        assert not ws.side.any()
        assert (ws.levels == -1).all()


# -- Satellite: disconnected pairs short-circuit before searching -------------


class TestDisconnectedShortCircuit:
    """Pairs provably disconnected from the labels never search.

    The fixture graph has two BA components plus isolated vertices.
    Landmark placement decides the class: landmarks only in the left
    component leave the right component label-free (its pairs must
    still search, unbounded); one landmark per component makes
    cross-component labels non-empty yet the bound infinite (no
    search needed).
    """

    LEFT = (3, 17)        # vertices of the 40-vertex left component
    RIGHT = (45, 62)      # vertices of the 30-vertex right component
    ISOLATED = (70, 71)   # two of the trailing isolated vertices

    def test_one_empty_label_skips_the_search(self):
        graph = _disconnected_graph()
        oracle, counter = _counting_oracle(graph, num_landmarks=2,
                                           landmarks=[0, 1])
        left, right = self.LEFT[0], self.RIGHT[0]
        assert oracle.query(left, right) == float("inf")
        assert oracle.is_covered(left, right) is True
        assert counter.calls["bounded_distance"] == 0

    def test_infinite_bound_with_nonempty_labels_skips_the_search(self):
        graph = _disconnected_graph()
        # One landmark per component: cross-component labels are both
        # non-empty but no landmark pair connects them.
        oracle, counter = _counting_oracle(graph, num_landmarks=2,
                                           landmarks=[0, 40])
        left, right = self.LEFT[1], self.RIGHT[1]
        assert oracle.upper_bound(left, right) == float("inf")
        assert oracle.query(left, right) == float("inf")
        assert counter.calls["bounded_distance"] == 0

    def test_both_labels_empty_still_searches(self):
        graph = _disconnected_graph()
        oracle, counter = _counting_oracle(graph, num_landmarks=2,
                                           landmarks=[0, 1])
        u, v = self.RIGHT
        truth = bfs_distances(graph, u)[v]
        assert truth != UNREACHED
        assert oracle.query(u, v) == float(truth)
        assert counter.calls["bounded_distance"] == 1
        # Two label-free vertices in *different* components: the search
        # runs (nothing proves disconnection offline) and returns inf.
        iso_a, iso_b = self.ISOLATED
        assert oracle.query(iso_a, iso_b) == float("inf")
        assert counter.calls["bounded_distance"] == 2
        assert oracle.is_covered(iso_a, iso_b) is True

    def test_batch_engine_applies_the_same_short_circuit(self):
        graph = _disconnected_graph()
        oracle, counter = _counting_oracle(graph, num_landmarks=2,
                                           landmarks=[0, 40])
        pairs = np.array(
            [
                [self.LEFT[0], self.RIGHT[0]],   # bound inf, labels non-empty
                [self.LEFT[0], self.LEFT[1]],    # ordinary searched pair
                [self.ISOLATED[0], self.LEFT[0]],  # one empty label
                [self.ISOLATED[0], self.ISOLATED[1]],  # both empty
            ],
            dtype=np.int64,
        )
        distances = oracle.query_many(pairs)
        looped = np.array(
            [oracle.query(int(s), int(t)) for s, t in pairs], dtype=float
        )
        assert np.array_equal(distances, looped)
        assert np.isinf(distances[0]) and np.isinf(distances[2])
        assert np.isfinite(distances[1])
        assert np.isinf(distances[3])

    def test_disconnected_coverage_flags(self):
        graph = _disconnected_graph()
        oracle, _ = _counting_oracle(graph, num_landmarks=2, landmarks=[0, 40])
        pairs = np.array(
            [[self.LEFT[0], self.RIGHT[0]], [self.ISOLATED[0], self.LEFT[0]]],
            dtype=np.int64,
        )
        _, covered = oracle.query_many(pairs, return_coverage=True)
        # inf bound == inf distance: the labels alone decide these pairs.
        assert covered.all()


# -- End-to-end: building through the factory with each backend ---------------


@pytest.mark.parametrize("name", available_kernels())
def test_build_oracle_with_explicit_kernel(name, ba_graph):
    oracle = build_oracle(ba_graph, "hl", num_landmarks=4, kernel=name)
    assert oracle.kernel == name
    assert oracle.kernel_backend.name == name
    reference = build_oracle(ba_graph, "hl", num_landmarks=4, kernel="numpy")
    for s, t in ((0, 250), (7, 133), (42, 42)):
        assert oracle.query(s, t) == reference.query(s, t)
