"""Span recording around the public functions of each ``repro`` layer.

The benchmark attributes time to layers without touching ``src/``: it
rebinds each layer's public function (or method) to a timing wrapper,
in the defining module *and* in every loaded ``repro`` module that
imported it by name, so callers hit the wrapper whatever name they use.

A span is ``(layer, start, end, parent, note)`` recorded per thread;
``parent`` indexes the enclosing span of the same thread (``-1`` when
none) and ``note`` is a per-call count (pairs searched, landmarks
repaired, ...). Times are ``time.perf_counter()``, which is
CLOCK_MONOTONIC on Linux and therefore comparable across processes.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Wire codec functions, timed on both ends of a connection.
CODEC_FUNCTIONS = (
    "encode_frame", "encode_pair", "encode_pairs", "decode_pair",
    "decode_pairs", "encode_f64", "decode_f64", "encode_distances",
    "decode_distances",
)


def _len_arg(index: int) -> Callable:
    return lambda args, kwargs, result: len(args[index])


def _len_result(args, kwargs, result) -> int:
    return len(result)


#: (module, function, layer, note) — functions rebound by name.
FUNCTION_TARGETS = (
    ("repro.datasets.ingest", "ingest_edge_list", "ingest",
     lambda a, k, r: r.buckets),
    ("repro.graphs.io", "read_edge_list", "graph.load", None),
    ("repro.graphs.disk_csr", "open_disk_csr", "graph.load", None),
    ("repro.landmarks.selection", "select_landmarks", "selection", None),
    ("repro.core.construction_engine", "stacked_pruned_bfs", "bfs", None),
    ("repro.graphs.csr", "bitset_neighbor_or", "neighbor_or", None),
    ("repro.core.ooc", "build_snapshot_out_of_core", "ooc",
     lambda a, k, r: r.entries),
    ("repro.utils.memory", "trim_heap", "trim", None),
    ("repro.graphs.disk_csr", "drop_resident_pages", "drop_pages", None),
    ("repro.core.serialization", "save_oracle", "snapshot.save", None),
    ("repro.core.serialization", "load_oracle", "snapshot.load", None),
    ("repro.search.bounded", "bounded_grouped_multi_target_distances",
     "bounded.grouped", _len_arg(2)),
    ("repro.search.bounded", "bounded_bidirectional_distance",
     "bounded.bidir", None),
) + tuple(
    ("repro.serving.net.wire", name, "codec", None) for name in CODEC_FUNCTIONS
)

#: (module, class, method, layer, note) — methods rebound on the class.
METHOD_TARGETS = (
    ("repro.core.query", "HighwayCoverOracle", "query", "query", None),
    ("repro.core.query", "HighwayCoverOracle", "query_many", "query", None),
    ("repro.core.batch_engine", "BatchQueryEngine", "query_many", "engine",
     _len_arg(1)),
    ("repro.core.dynamic", "DynamicHighwayCoverOracle", "insert_edge",
     "repair", _len_result),
    ("repro.core.dynamic", "DynamicHighwayCoverOracle", "delete_edge",
     "repair", _len_result),
    ("repro.serving.net.wire", "FrameDecoder", "feed", "codec", None),
) + tuple(
    (module, cls, method, f"kernel.{method}", None)
    for module, cls in (
        ("repro.core.kernels.cext", "CExtKernel"),
        ("repro.core.kernels.numpy_backend", "NumpyKernel"),
    )
    for method in ("upper_bound", "bounded_distance", "multi_target")
)

#: Only the client side of the wire is timed in the load process.
CLIENT_FUNCTION_TARGETS = tuple(t for t in FUNCTION_TARGETS if t[2] == "codec")
CLIENT_METHOD_TARGETS = tuple(t for t in METHOD_TARGETS if t[3] == "codec")


class Tracer:
    """Per-thread in-memory span store plus the wrapper factory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[List[tuple]] = []
        self._lock = threading.Lock()

    def _state(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans, state.stack = [], []
            with self._lock:
                self._threads.append(state.spans)
        return state

    def wrap(self, layer: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` with each call recorded as a span of ``layer``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack, spans = state.stack, state.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = note(args, kwargs, result) if note and result is not None else 1
                spans[index] = (layer, start, end, parent, count)

        return traced

    def install(self, functions=FUNCTION_TARGETS, methods=METHOD_TARGETS) -> None:
        """Rebind every target to a wrapper (see the module docstring)."""
        for module_name, name, layer, note in functions:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            traced = self.wrap(layer, original, note)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, name, None) is original
                ):
                    setattr(loaded, name, traced)
        for module_name, cls_name, name, layer, note in methods:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, name, self.wrap(layer, cls.__dict__[name], note))

    def spans(self) -> List[List[tuple]]:
        """Every thread's completed spans (``None`` marks one still open)."""
        with self._lock:
            return [list(spans) for spans in self._threads]

    def dump(self, path) -> None:
        """Write all spans as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"threads": self.spans()}, handle)


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a direct call, in seconds."""

    def noop():
        return 0

    traced = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


class SpanSet:
    """Spans of one process, with self times and window filtering."""

    def __init__(self, threads: List[List[Optional[list]]]) -> None:
        self.threads = [[s for s in spans] for spans in threads]

    @classmethod
    def load(cls, path) -> "SpanSet":
        with open(path) as handle:
            return cls(json.load(handle)["threads"])

    def select(self, layer: str, lo: float = float("-inf"), hi: float = float("inf"),
               top_level: bool = False, parent_layer: Optional[str] = None):
        """Yield ``(duration, self_time, note)`` of matching closed spans
        whose outermost enclosing span lies inside ``[lo, hi]``."""
        for spans in self.threads:
            child_time: Dict[int, float] = {}
            root: List[int] = []
            for index, span in enumerate(spans):
                # A parent is always recorded before its children.
                root.append(index if span is None or span[3] < 0 else root[span[3]])
                if span is not None and span[3] >= 0:
                    child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
            for index, span in enumerate(spans):
                outer = spans[root[index]]
                if span is None or span[0] != layer or outer[1] < lo or outer[2] > hi:
                    continue
                parent = spans[span[3]] if span[3] >= 0 else None
                if top_level and parent is not None:
                    continue
                if parent_layer is not None and (parent is None or parent[0] != parent_layer):
                    continue
                duration = span[2] - span[1]
                yield duration, duration - child_time.get(index, 0.0), span[4]

    def total(self, layer: str, **filters) -> float:
        return sum(d for d, _, _ in self.select(layer, **filters))

    def self_total(self, layer: str, **filters) -> float:
        return sum(s for _, s, _ in self.select(layer, **filters))

    def calls(self, layer: str, **filters) -> int:
        return sum(1 for _ in self.select(layer, **filters))

    def notes(self, layer: str, **filters) -> int:
        return sum(n for _, _, n in self.select(layer, **filters))

    def count_between(self, lo: float, hi: float) -> int:
        """All spans inside ``[lo, hi]``, for the overhead estimate."""
        return sum(
            1 for spans in self.threads for s in spans
            if s is not None and s[1] >= lo and s[2] <= hi
        )
