"""Per-layer metrics of a traced run, computed from the recorded spans.

Two breakdowns, each closed by a named remainder so nothing is dropped:

* **Request path.** The mean client latency of the window (from due
  time to reply) is ``client.codec_us + wire.codec_us + query.busy_us +
  server.residual_us``, all in microseconds per request. The residual
  is TCP, the server's event loop, admission, the read/write gate and
  the pool handoff, plus any generator lateness.
* **Set-up.** The mean ``setup_s`` is ``ingest.s + graph.load_s +
  selection.s + construction_engine.bfs_s + ooc.self_s +
  snapshot.save_s + snapshot.load_s + setup.unattributed_s``; the
  remainder is interpreter start-up, imports, argument parsing, the
  server's bind and the HEALTH round trip.

The other metrics break those parts down further (kernels inside
``query.busy_us``, ``csr.neighbor_or_s`` inside the BFS, trims inside
ingest and the out-of-core build) or count work.
"""

from __future__ import annotations

import statistics
from functools import lru_cache

import e2e_trace
from e2e_trace import SpanSet

SETUP_PARTS = (
    "ingest.s", "graph.load_s", "selection.s", "construction_engine.bfs_s",
    "ooc.self_s", "snapshot.save_s", "snapshot.load_s",
)


@lru_cache(maxsize=1)
def _wrapper_cost_s() -> float:
    return e2e_trace.wrapper_cost_s()


def _setup_layers(setup, edge_bytes: int) -> dict:
    """Set-up parts of one product set-up (all of its children's spans)."""
    values = dict.fromkeys(SETUP_PARTS + (
        "ingest.mb_per_s", "ingest.buckets", "construction_engine.passes",
        "csr.neighbor_or_s", "csr.neighbor_or_calls", "ooc.entries",
        "memory.trim_s", "memory.trim_calls", "disk_csr.drop_pages_calls",
    ), 0.0)
    spans = 0
    for child in setup.children:
        hi = setup.ready_at if child.tag.startswith("serve") else float("inf")
        s = SpanSet.load(child.spans_path)
        spans += s.count_between(float("-inf"), hi)
        values["ingest.s"] += s.total("ingest", hi=hi)
        values["ingest.buckets"] += s.notes("ingest", hi=hi)
        values["graph.load_s"] += s.total("graph.load", hi=hi, top_level=True)
        values["selection.s"] += s.total("selection", hi=hi)
        values["construction_engine.bfs_s"] += s.total("bfs", hi=hi)
        values["construction_engine.passes"] += s.calls("bfs", hi=hi)
        values["csr.neighbor_or_s"] += s.total("neighbor_or", hi=hi)
        values["csr.neighbor_or_calls"] += s.calls("neighbor_or", hi=hi)
        values["ooc.self_s"] += s.total("ooc", hi=hi) - s.total("bfs", hi=hi, parent_layer="ooc")
        values["ooc.entries"] += s.notes("ooc", hi=hi)
        values["snapshot.save_s"] += s.total("snapshot.save", hi=hi)
        values["snapshot.load_s"] += s.total("snapshot.load", hi=hi)
        values["memory.trim_s"] += s.total("trim", hi=hi)
        values["memory.trim_calls"] += s.calls("trim", hi=hi)
        values["disk_csr.drop_pages_calls"] += s.calls("drop_pages", hi=hi)
    if values["ingest.s"]:
        values["ingest.mb_per_s"] = edge_bytes / 1e6 / values["ingest.s"]
    values["setup.unattributed_s"] = setup.seconds - sum(values[k] for k in SETUP_PARTS)
    values["trace.setup_overhead_pct"] = 100.0 * spans * _wrapper_cost_s() / setup.seconds
    return values


def per_layer(state, inputs, setups, serve, logs, window, stats, client_tracer) -> dict:
    """Every per-layer metric of one traced run (see the module docstring)."""
    per_setup = [_setup_layers(s, inputs["edge_path"].stat().st_size) for s in setups]
    out = {k: statistics.fmean(v[k] for v in per_setup) for k in per_setup[0]}
    out["build.peak_rss_mib"] = max(
        c.rss_mib for s in setups for c in s.children if not c.tag.startswith("serve")
    )

    lo = logs["window"][0]
    hi = max((d for d in logs["reads"].done if d == d), default=logs["window"][1])
    server = SpanSet.load(serve.spans_path)
    client = SpanSet(client_tracer.spans())
    requests = max(window["requests"], 1)

    def per_request_us(spans: SpanSet, layer: str, **filters) -> float:
        return spans.total(layer, lo=lo, hi=hi, **filters) * 1e6 / requests

    out["client.codec_us"] = per_request_us(client, "codec")
    out["wire.codec_us"] = per_request_us(server, "codec")
    out["query.busy_us"] = per_request_us(server, "query", top_level=True)
    out["query.calls"] = server.calls("query", lo=lo, hi=hi, top_level=True)
    out["server.residual_us"] = window["mean_latency_us"] - (
        out["client.codec_us"] + out["wire.codec_us"] + out["query.busy_us"]
    )
    engine_pairs = server.notes("engine", lo=lo, hi=hi)
    searched = server.notes("bounded.grouped", lo=lo, hi=hi) + server.calls("bounded.bidir", lo=lo, hi=hi)
    out["batch_engine.self_us_per_pair"] = (
        server.self_total("engine", lo=lo, hi=hi) * 1e6 / engine_pairs if engine_pairs else 0.0
    )
    out["batch_engine.search_share"] = searched / engine_pairs if engine_pairs else 0.0
    out["bounded.grouped_us"] = per_request_us(server, "bounded.grouped")
    out["bounded.grouped_pairs"] = server.notes("bounded.grouped", lo=lo, hi=hi)
    out["bounded.bidir_us"] = per_request_us(server, "bounded.bidir")
    out["bounded.bidir_pairs"] = server.calls("bounded.bidir", lo=lo, hi=hi)
    for op in ("upper_bound", "bounded_distance", "multi_target"):
        out[f"kernels.{op}_us"] = per_request_us(server, f"kernel.{op}")
        out[f"kernels.{op}_calls"] = server.calls(f"kernel.{op}", lo=lo, hi=hi)
    repairs = list(server.select("repair", lo=lo, hi=hi))
    out["dynamic.repair_ms"] = statistics.fmean(d for d, _, _ in repairs) * 1e3 if repairs else 0.0
    out["dynamic.affected"] = statistics.fmean(n for _, _, n in repairs) if repairs else 0.0
    out["client.update_ms"] = window["update_ms"]
    out["server.rejected"] = int(stats.get("rejected", 0))
    out["loadgen.lag_p99_ms"] = window["lag_p99_ms"]
    spans = client.count_between(lo, hi) + server.count_between(lo, hi)
    out["trace.overhead_pct"] = (
        100.0 * spans / requests * _wrapper_cost_s() * 1e6 / window["mean_latency_us"]
    )
    return out
