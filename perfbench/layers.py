"""Per-layer metrics of a traced pass, computed from the recorded spans.

Timings come from the spans of the pass's measured phase ("load");
the deterministic counts (partial leaves, covered nodes, shards
touched) come from the phases given as ``count_phases``, which hold
the same work in every run of a seed.  A layer the workload bypasses
reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from harness import pctl
from tracing import EXTRA, N, REQ, T0, T1, SpanRecorder, covered_ns

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("server.self_us_p50", "us"),
    ("sqlfront.compile_us_p50", "us"),
    ("sqlfront.calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.repeat_share", "ratio"),
    ("cache.evictions", "count"),
    ("cache.lookup_us_p50", "us"),
    ("batcher.wait_us_p50", "us"),
    ("batcher.avg_batch_size", "queries"),
    ("batcher.linger_flush_frac", "ratio"),
    ("sharded.self_us_per_batch", "us"),
    ("routing.plan_us_per_batch", "us"),
    ("routing.shards_touched_mean", "shards"),
    ("fleet.round_trip_us_p50", "us"),
    ("fleet.round_trip_us_p99", "us"),
    ("fleet.wire_bytes_per_op", "B"),
    ("fleet.first_answer_s", "s"),
    ("persist.save_s", "s"),
    ("stream.drain_self_us_per_record", "us"),
    ("stream.records_per_drain", "records"),
    ("engine.insert_many_us_per_row", "us"),
    ("engine.delete_many_us_per_row", "us"),
    ("engine.query_many_us_per_query", "us"),
    ("engine.self_us_per_batch", "us"),
    ("dpt.insert_rows_us_per_row", "us"),
    ("dpt.query_many_us_per_query", "us"),
    ("dpt.frontier_many_us_per_query", "us"),
    ("dpt.partial_leaves_per_query", "leaves"),
    ("dpt.covered_nodes_per_query", "nodes"),
    ("reservoir.update_us_per_row", "us"),
    ("reservoir.pool_rows", "rows"),
    ("range_index.update_us_per_row", "us"),
    ("range_index.rebuilds", "count"),
    ("sketch.update_us_per_row", "us"),
    ("maint.repartitions", "count"),
    ("maint.reoptimize_ms_p50", "ms"),
    ("maint.partition_ms_p50", "ms"),
    ("maint.catchup_ms_p50", "ms"),
    ("maint.ingest_stall_p99_ms", "ms"),
    ("maint.reopt_blocking_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("ops.failed_frac", "ratio"),
)

ENGINE_SPANS = ("engine.insert_many", "engine.delete_many",
                "engine.query_many")


def _per_unit(rec: SpanRecorder, names: Iterable[str],
              phases: Sequence[str]) -> float:
    """Inclusive microseconds per work unit over the named spans."""
    total_us = units = 0
    for name in names:
        for i in rec.select(name, phases):
            span = rec.spans[i]
            total_us += (span[T1] - span[T0]) / 1e3
            units += span[N]
    return total_us / units if units else 0.0


def _self_mean(rec: SpanRecorder, names: Iterable[str],
               phases: Sequence[str], kids, per_unit: bool = False
               ) -> float:
    """Mean self time per span (or per work unit)."""
    selves, units = [], 0
    for name in names:
        for i in rec.select(name, phases):
            selves.append(rec.self_us(i, kids))
            units += rec.spans[i][N]
    if not selves:
        return 0.0
    if per_unit:
        return float(np.sum(selves)) / units if units else 0.0
    return float(np.mean(selves))


def _extra_per_query(rec: SpanRecorder, key: str,
                     phases: Sequence[str]) -> float:
    total = n = 0
    for i in rec.select("dpt.query_many", phases):
        span = rec.spans[i]
        total += span[EXTRA][key]
        n += span[N]
    return total / n if n else 0.0


def engine_histogram_p99_ms(engine, name: str) -> float:
    """p99 of an in-process engine stall histogram (max over shards),
    in ms; 0 for the fleet, whose engines live in worker processes."""
    from repro.core.janus import JanusAQP
    from repro.core.sharded import ShardedJanusAQP
    if isinstance(engine, JanusAQP):
        hists = [engine.metrics.histogram(name)]
    elif isinstance(engine, ShardedJanusAQP):
        hists = [engine.metrics.histogram(name, shard=str(s))
                 for s in range(engine.n_shards)]
    else:
        return 0.0
    return 1e3 * max(h.percentile(0.99) for h in hists)


def service_counters(server) -> Dict[str, int]:
    """Snapshot of the cache and batcher counters the server exposes."""
    cache, batcher = server.cache.stats, server.batcher.stats
    return {"hits": cache.hits, "misses": cache.misses,
            "evictions": cache.evictions, "batches": batcher.n_batches,
            "batched_queries": batcher.n_queries,
            "flush_full": batcher.n_flush_full,
            "flush_linger": batcher.n_flush_linger}


def counters_delta(before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def server_self_us(rec: SpanRecorder, windows: Dict[int, List[tuple]],
                   task_of_conn: Dict[int, int]) -> List[float]:
    """Per-request front-door self time (microseconds).

    ``windows[c]`` holds ``(start_ns, end_ns)`` of connection ``c``'s
    client-observed requests; ``task_of_conn`` maps the connection to
    the server task that handled it.  A request's children are the
    event-loop spans of that task inside its window (SQL compile,
    cache lookups, batcher submit-to-answer, which contains the engine
    call); its self time is the window minus the union of those
    intervals.  It includes HTTP and JSON work on both ends of the
    loopback connection.
    """
    loop_spans: Dict[int, List[int]] = {}
    for i, span in enumerate(rec.spans):
        if span[REQ]:
            loop_spans.setdefault(span[REQ], []).append(i)
    out = []
    for conn, spans in windows.items():
        task = task_of_conn.get(conn)
        mine = sorted(loop_spans.get(task, ()),
                      key=lambda i: rec.spans[i][T0])
        starts = [rec.spans[i][T0] for i in mine]
        for a, b in spans:
            lo = np.searchsorted(starts, a)
            hi = np.searchsorted(starts, b)
            kids = [(rec.spans[i][T0], rec.spans[i][T1])
                    for i in mine[lo:hi]]
            out.append((b - a - covered_ns(a, b, kids)) / 1e3)
    return out


def layer_metrics(rec: SpanRecorder, engine, *,
                  count_phases: Sequence[str],
                  server_self: Sequence[float] = (),
                  service: Optional[Dict[str, int]] = None,
                  repeat_share: float = 0.0,
                  routing_touched: float = 0.0,
                  fleet_wire_bytes_per_op: float = 0.0,
                  fleet_first_answer_s: float = 0.0,
                  persist_save_s: float = 0.0,
                  repartitions: int = 0, pool_rows: int = 0,
                  lag_p99_ms: float = 0.0, overhead_pct: float = 0.0,
                  failed_frac: float = 0.0) -> Dict[str, float]:
    load = ("load",)
    kids = rec.children()
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    m["server.self_us_p50"] = pctl(server_self, 50)
    m["sqlfront.compile_us_p50"] = pctl(
        rec.durations_us("sqlfront.compile", load), 50)
    m["sqlfront.calls"] = float(len(rec.select("sqlfront.compile", load)))
    if service:
        lookups = service["hits"] + service["misses"]
        m["cache.hit_ratio"] = service["hits"] / lookups if lookups else 0.0
        m["cache.evictions"] = float(service["evictions"])
        m["batcher.avg_batch_size"] = (
            service["batched_queries"] / service["batches"]
            if service["batches"] else 0.0)
        flushes = service["flush_full"] + service["flush_linger"]
        m["batcher.linger_flush_frac"] = \
            service["flush_linger"] / flushes if flushes else 0.0
    m["cache.repeat_share"] = repeat_share
    m["cache.lookup_us_p50"] = pctl(rec.durations_us("cache.lookup", load),
                                  50)
    m["batcher.wait_us_p50"] = pctl(
        [w for phase, w in rec.batcher_waits_us if phase == "load"], 50)
    m["sharded.self_us_per_batch"] = _self_mean(
        rec, ("sharded.query_many",), load, kids)
    m["routing.plan_us_per_batch"] = float(np.mean(
        rec.durations_us("routing.plan", load))) \
        if rec.select("routing.plan", load) else 0.0
    m["routing.shards_touched_mean"] = routing_touched
    trips = rec.durations_us("fleet.request", load)
    m["fleet.round_trip_us_p50"] = pctl(trips, 50)
    m["fleet.round_trip_us_p99"] = pctl(trips, 99)
    m["fleet.wire_bytes_per_op"] = fleet_wire_bytes_per_op
    m["fleet.first_answer_s"] = fleet_first_answer_s
    m["persist.save_s"] = persist_save_s
    m["stream.drain_self_us_per_record"] = _self_mean(
        rec, ("stream.drain",), load, kids, per_unit=True)
    drains = rec.select("stream.drain", load)
    m["stream.records_per_drain"] = (
        float(np.mean([rec.spans[i][N] for i in drains])) if drains
        else 0.0)
    m["engine.insert_many_us_per_row"] = _per_unit(
        rec, ("engine.insert_many",), load)
    m["engine.delete_many_us_per_row"] = _per_unit(
        rec, ("engine.delete_many",), load)
    m["engine.query_many_us_per_query"] = _per_unit(
        rec, ("engine.query_many",), load)
    m["engine.self_us_per_batch"] = _self_mean(rec, ENGINE_SPANS, load,
                                               kids)
    m["dpt.insert_rows_us_per_row"] = _per_unit(
        rec, ("dpt.insert_rows",), load)
    m["dpt.query_many_us_per_query"] = _per_unit(
        rec, ("dpt.query_many",), load)
    m["dpt.frontier_many_us_per_query"] = _per_unit(
        rec, ("dpt.frontier_many",), load)
    m["dpt.partial_leaves_per_query"] = _extra_per_query(
        rec, "n_partial", count_phases)
    m["dpt.covered_nodes_per_query"] = _extra_per_query(
        rec, "n_covered", count_phases)
    m["reservoir.update_us_per_row"] = _per_unit(
        rec, ("reservoir.update",), load)
    m["reservoir.pool_rows"] = float(pool_rows)
    m["range_index.update_us_per_row"] = _per_unit(
        rec, ("range_index.update",), load)
    m["range_index.rebuilds"] = float(len(rec.select("range_index.rebuild",
                                                     load)))
    m["sketch.update_us_per_row"] = _per_unit(rec, ("sketch.update",),
                                              load)
    m["maint.repartitions"] = float(repartitions)
    for key, name in (("maint.reoptimize_ms_p50", "maint.reoptimize"),
                      ("maint.partition_ms_p50", "maint.partition"),
                      ("maint.catchup_ms_p50", "maint.catchup")):
        m[key] = pctl(rec.durations_us(name, load), 50) / 1e3
    m["maint.ingest_stall_p99_ms"] = engine_histogram_p99_ms(
        engine, "janus_engine_ingest_stall_seconds")
    m["maint.reopt_blocking_p99_ms"] = engine_histogram_p99_ms(
        engine, "janus_engine_reopt_blocking_seconds")
    m["loadgen.lag_p99_ms"] = lag_p99_ms
    m["trace.overhead_pct"] = overhead_pct
    m["ops.failed_frac"] = failed_frac
    return m
