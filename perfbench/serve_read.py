"""``serve_read``: the HTTP front door with reads only.

:class:`~repro.service.server.AQPServer` (default cache and linger)
serves a 2-shard in-process :class:`~repro.core.sharded.ShardedJanusAQP`
over ``nyc_taxi``; an open loop sends one statement per request over 2
keep-alive connections, half ``/sql`` text and half ``/query`` JSON,
~10% of them table-wide PERCENTILE / COUNT(DISTINCT).  Statement
popularity is Zipfian over a pool 8x the cache's per-template capacity.

Phases of one run: set-up (repeated; the median is ``setup_s``), a
warm-up at the nominal rate that fills the cache, the nominal-rate
phase (``query_p50_ms``/``query_p99_ms``, generator health), the
capacity sweep (``qps_at_slo``), the correctness checks and accuracy
probe, and finally a short closed-loop write tail through the same
server (``write_*``, ``ingest_rows_per_s`` and the live-count check)
that starts only after every read measurement is taken.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.janus import JanusConfig
from repro.core.sharded import ShardedJanusAQP
from repro.datasets import synthetic
from repro.service import ServiceClient, serve_background

from harness import (SLO_MS, BenchmarkFailure, CpuMeter, InvalidRun,
                     LiveRows, StealMeter, check, closed_loop_rate,
                     lag_grows, lag_p99_ms, latencies, overhead_pct,
                     peak_rss_mb, pooled_accuracy, probe_queries,
                     run_schedule, same_result, traced_pair)
from layers import (counters_delta, layer_metrics, server_self_us,
                    service_counters)
from serving import (WriteLog, close_clients, first_answer,
                     live_count_check, map_tasks, open_clients,
                     probe_with_routing, read_op, request_windows,
                     sketch_statements, summarize, tree_statements,
                     zipf_picks)

N_ROWS = 60_000
N_SHARDS = 2
CONFIG = dict(k=64, sample_rate=0.02, check_every=10 ** 9, seed=0)
CACHE_PER_TEMPLATE = 256           # AQPServer default
POOL_TREE = 8 * CACHE_PER_TEMPLATE
POOL_SKETCH = 64
SKETCH_SHARE = 0.10
ZIPF_S = 0.6                       # tree statements: ~25% cache hits
SKETCH_ZIPF_S = 1.5                # COUNT(DISTINCT) first
N_CONNECTIONS = 2
SWEEP_BASE = 100.0                 # rate ladder: SWEEP_BASE * 1.05^k
#: The sweep's first probe (~430/s, near capacity on a 2-core host);
#: from there it gallops up or down in doubling steps, so the ladder
#: has no top.
SWEEP_START = 30
SWEEP_SEGMENT_REQUESTS = 400
SWEEP_MIN_S = 0.8
SWEEP_ABORT_LAG_S = 0.25
#: A sweep segment that saw more host CPU steal than this does not
#: vote (at most SWEEP_MAX_VOID such segments per step).
SWEEP_STEAL_VOID = 0.05
SWEEP_MAX_VOID = 1
#: The nominal rate is ladder step 0 (100/s, a fifth to a quarter of
#: capacity): at 198/s, ~45% of one core, queueing amplified host CPU
#: steal so much that read p50 moved 75% between runs.
NOMINAL_STEP = 0
NOMINAL_RATE = SWEEP_BASE * 1.05 ** NOMINAL_STEP
WARMUP_S = 3.0
N_PROBE = 2000
ACCURACY_SEEDS = (1, 2, 3, 4, 5)   # extra synopses pooled with the served one
N_IDENTITY = 96
#: 400 write batches (~6 s): over 200 (~3 s) the write p50 moved 0.21
#: IQR/median between seeds with no host steal.
TAIL_BATCHES = 400
TAIL_ROWS, TAIL_DELETES = 128, 32
SETUP_REPEATS = 5


class World:
    """The seed's inputs: data, statement pool and request sequence."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.n_rows = max(6_000, int(N_ROWS * scale))
        self.n_tail = max(20, int(TAIL_BATCHES * scale))
        self.ds = synthetic.load("nyc_taxi", seed=seed,
                                 n=self.n_rows + self.n_tail * TAIL_ROWS)
        self.attr = self.ds.agg_attr
        self.pred_attrs = tuple(self.ds.predicate_attrs)
        self.pred_col = self.ds.schema.index(self.pred_attrs[0])
        self.agg_col = self.ds.schema.index(self.attr)
        column = self.ds.data[:self.n_rows, self.pred_col]
        rng = np.random.default_rng([seed, 10])
        self.tree = tree_statements(column, self.attr, self.pred_attrs,
                                    rng, POOL_TREE)
        self.sketch = sketch_statements(self.attr, self.pred_attrs,
                                        POOL_SKETCH - 1,
                                        first_key=POOL_TREE)
        self.probe = probe_queries(column, self.attr, self.pred_attrs,
                                   np.random.default_rng([seed, 11]),
                                   N_PROBE)
        self._rng = np.random.default_rng([seed, 12])
        self.seen: set = set()

    def requests(self, n: int) -> List[Tuple[object, bool]]:
        """The next ``n`` requests of the seed's sequence."""
        rng = self._rng
        is_sketch = rng.random(n) < SKETCH_SHARE
        tree = zipf_picks(rng, len(self.tree), n, ZIPF_S)
        # COUNT(DISTINCT) is the most popular table-wide statement
        # (~4% of requests), so after warm-up it stays cached.
        sketch = zipf_picks(rng, len(self.sketch), n, SKETCH_ZIPF_S,
                            permute=False)
        use_sql = rng.random(n) < 0.5
        return [(self.sketch[sketch[i]] if is_sketch[i]
                 else self.tree[tree[i]], bool(use_sql[i]))
                for i in range(n)]

    def schedule(self, rate: float, n: int):
        """``n`` requests at ``rate``/s, round-robin over connections;
        returns the schedules and the share of repeated statements."""
        reqs = self.requests(n)
        repeats = 0
        for stmt, _ in reqs:
            repeats += stmt.key in self.seen
            self.seen.add(stmt.key)
        schedules: List[list] = [[] for _ in range(N_CONNECTIONS)]
        for i, (stmt, use_sql) in enumerate(reqs):
            schedules[i % N_CONNECTIONS].append(
                (i / rate, read_op(stmt, use_sql)))
        return schedules, repeats / n


class Service:
    """One engine + server built from the world, timed to first answer."""

    def __init__(self, world: World) -> None:
        t0 = time.perf_counter()
        ds = world.ds
        self.engine = ShardedJanusAQP(
            ds.schema, world.attr, world.pred_attrs, n_shards=N_SHARDS,
            config=JanusConfig(sketch_attrs=(world.attr,), **CONFIG))
        self.tids = list(self.engine.insert_many(ds.data[:world.n_rows]))
        self.engine.initialize()
        self.handle = serve_background(self.engine, port=0)
        first_answer(self.handle, world.attr, world.pred_attrs,
                     world.n_rows)
        self.setup_s = time.perf_counter() - t0

    def close(self) -> None:
        self.handle.stop()
        self.engine.close()


def build(world: World, repeats: int) -> Tuple[Service, float]:
    times = []
    service = None
    for _ in range(repeats):
        if service is not None:
            service.close()
        service = Service(world)
        times.append(service.setup_s)
    return service, float(np.median(times))


def run_phase(clients, world: World, rate: float, n: int,
              abort_lag_s=None):
    """``n`` requests at ``rate``; returns what each connection sent and
    the share of repeated statements."""
    schedules, repeat_share = world.schedule(rate, n)
    sent_by_conn = run_schedule(clients, schedules,
                                time.perf_counter() + 0.05, abort_lag_s)
    return sent_by_conn, repeat_share


def segment_ok(sent, n: int, clock) -> bool:
    """A sweep segment meets the limit: all ``n`` requests sent and
    answered, the p99 (tail rule) of the reads the host did not
    interrupt within the limit, no growing lag."""
    return (len(sent) == n and all(s.ok for s in sent) and
            latencies(sent, ("read",), clock).tail() <= SLO_MS and
            not lag_grows(sent))


def sweep(clients, world: World, scale: float, lo: int, clock, log
          ) -> Tuple[float, int, int]:
    """Highest ladder rate SWEEP_BASE * 1.05^k meeting the limit.

    ``lo`` is a step known to pass (or -1).  The search probes
    SWEEP_START, gallops away from it in doubling steps until it has a
    passing and a failing step, then bisects between them.  A step
    runs up to 3 voting segments and passes when 2 do, so one host
    hiccup cannot decide it; a segment that saw more than
    SWEEP_STEAL_VOID host CPU steal is run again instead of voting; a
    segment whose backlog passes SWEEP_ABORT_LAG_S is cut short and
    fails.
    """
    counts = [0, 0]                  # attempted, failed

    def passes(k: int) -> bool:
        rate = SWEEP_BASE * 1.05 ** k
        n = int(max(SWEEP_SEGMENT_REQUESTS, SWEEP_MIN_S * rate) * scale)
        votes, void = [], 0
        while votes.count(True) < 2 and votes.count(False) < 2:
            meter = StealMeter()
            sent_by_conn, _ = run_phase(clients, world, rate, n,
                                        SWEEP_ABORT_LAG_S)
            sent = [s for conn in sent_by_conn for s in conn]
            counts[0] += len(sent)
            counts[1] += sum(not s.ok for s in sent)
            if meter.share() > SWEEP_STEAL_VOID and void < SWEEP_MAX_VOID:
                void += 1
            else:
                votes.append(segment_ok(sent, n, clock))
            time.sleep(0.1)
        ok = votes.count(True) >= 2
        log(f"  sweep {rate:8.1f}/s: segments {votes}"
            f"{f' ({void} void)' if void else ''} "
            f"{'pass' if ok else 'FAIL'}")
        return ok

    hi = None
    k = max(SWEEP_START, lo + 1)
    if passes(k):
        lo, step = k, 1
        while hi is None:
            if passes(lo + step):
                lo, step = lo + step, 2 * step
            else:
                hi = lo + step
    else:
        hi, step = k, 1
        while hi - step > lo:
            if passes(hi - step):
                lo = hi - step
                break
            hi, step = hi - step, 2 * step
    while hi - lo > 1:
        k = (lo + hi) // 2
        lo, hi = (k, hi) if passes(k) else (lo, k)
    rate = SWEEP_BASE * 1.05 ** lo if lo >= 0 else 0.0
    return rate, counts[0], counts[1]


def check_identity(service: Service, world: World) -> None:
    """Served answers == in-process ``query_many`` on the same engine."""
    sample = world.tree[:N_IDENTITY - 8] + world.sketch[:8]
    want = service.engine.query_many([s.query for s in sample])
    with ServiceClient(service.handle.host, service.handle.port) as client:
        got = client.query_many([s.query for s in sample])
        got_sql = [client.sql(s.sql) for s in sample[::8]]
    for stmt, g, w in zip(sample, got, want):
        check(same_result(g, w), f"served /query answer differs from "
                                 f"in-process query_many: {stmt.sql}")
    for stmt, g, w in zip(sample[::8], got_sql, want[::8]):
        check(same_result(g, w), f"served /sql answer differs from "
                                 f"in-process query_many: {stmt.sql}")


def write_tail(service: Service, world: World, live: LiveRows, clock,
               log):
    """Closed-loop ``/insert`` + ``/delete`` batches after the reads."""
    gc.collect()      # the accuracy engines' garbage, not in a batch
    rng = np.random.default_rng([world.seed, 13])
    wlog = WriteLog(live, service.tids)
    ops = [(None, wlog.batch_op(world.n_rows + b * TAIL_ROWS, TAIL_ROWS,
                                TAIL_DELETES, rng))
           for b in range(world.n_tail)]
    with ServiceClient(service.handle.host, service.handle.port) as client:
        t0 = time.perf_counter()
        sent = run_schedule([client], [ops], t0)[0]
        wall = time.perf_counter() - t0
        errors = [s.error for s in sent if s.error]
        if errors:
            raise BenchmarkFailure(f"write tail failed: {errors[0]}")
        live_count_check(client, world.attr, world.pred_attrs, live.count)
    writes = latencies(sent, ("write",), clock)
    rows_per_s = closed_loop_rate(sent, wall, clock) * (TAIL_ROWS +
                                                        TAIL_DELETES)
    log(writes.describe(f"write tail (closed loop, {rows_per_s:.1f} "
                        f"rows/s), {clock.describe(sent)}"))
    return writes, rows_per_s, 2 * world.n_tail


def nominal(clients, world: World, seconds: float, clock, log
            ) -> Dict[str, object]:
    """The nominal-rate phase."""
    cpu = CpuMeter()
    sent_by_conn, repeat_share = run_phase(clients, world, NOMINAL_RATE,
                                           int(NOMINAL_RATE * seconds))
    cpu_s = cpu.elapsed()
    sent = [s for conn in sent_by_conn for s in conn]
    s = summarize(sent)
    reads = latencies(sent, ("read",), clock)
    log(s["reads"].describe(f"nominal {NOMINAL_RATE:.0f}/s read, all"))
    log(reads.describe(f"nominal read, {clock.describe(sent)}"))
    if s["failed"]:
        log(f"failed requests, e.g. {s['errors']}")
    if lag_grows(sent):
        raise InvalidRun(
            f"the generator fell behind at the nominal rate "
            f"(lag p99 {lag_p99_ms(sent):.1f} ms)")
    return {"sent": sent, "windows": request_windows(sent_by_conn),
            "query_p50_ms": reads.p50(), "query_p99_ms": reads.tail(),
            "repeat_share": repeat_share,
            "n": s["n"], "failed": s["failed"],
            "lag_p99_ms": lag_p99_ms(sent),
            "cpu_ms_per_op": 1e3 * cpu_s / max(1, s["n"] - s["failed"])}


def measure(world: World, service: Service, seconds: float, scale: float,
            clock, log, with_sweep: bool, rec=None) -> Dict[str, object]:
    """One pass over a built service: everything after set-up."""
    live = LiveRows(world.ds.data, world.pred_col, world.agg_col,
                    world.n_rows)
    clients = open_clients(service.handle, N_CONNECTIONS)
    out: Dict[str, object] = {}
    try:
        if rec is not None:
            rec.phase = "warmup"
            out["task_of_conn"] = map_tasks(clients, world.tree[0].sql,
                                            rec)
        warm, _ = run_phase(clients, world, NOMINAL_RATE,
                            int(NOMINAL_RATE * WARMUP_S))
        warm_sent = [s for conn in warm for s in conn]
        if rec is not None:
            rec.phase = "load"
        before = service_counters(service.handle.server)
        phase = nominal(clients, world, seconds, clock, log)
        out["service"] = counters_delta(
            before, service_counters(service.handle.server))
        if rec is not None:
            rec.phase = "after"
        out.update(phase)
        out["attempted"] = phase["n"] + len(warm_sent)
        out["failed"] = phase["failed"] + sum(not s.ok for s in warm_sent)
        if with_sweep:
            # The nominal rate is ladder step NOMINAL_STEP: when the
            # nominal phase met the limit the search starts above it.
            lo = NOMINAL_STEP if segment_ok(
                phase["sent"], len(phase["sent"]), clock) else -1
            out["qps_at_slo"], n, f = sweep(clients, world, scale, lo,
                                            clock, log)
            out["attempted"] += n
            out["failed"] += f
    finally:
        close_clients(clients)

    check_identity(service, world)
    if rec is not None:
        rec.phase = "probe"
    answers, out["routing_touched"] = probe_with_routing(service.engine,
                                                         world.probe)
    if rec is not None:
        rec.phase = "after"
    out["accuracy"] = pooled_accuracy(
        answers, live, world.probe, world.ds, CONFIG, N_SHARDS,
        ACCURACY_SEEDS if with_sweep else ())
    out["synopsis_ratio"] = (service.engine.storage_cost_bytes() /
                             live.live_bytes())
    log(out["accuracy"].describe())
    writes, rows_per_s, n_writes = write_tail(service, world, live, clock,
                                              log)
    out.update(writes=writes, ingest_rows_per_s=rows_per_s,
               repartitions=sum(shard.n_repartitions
                                for shard in service.engine.shards))
    out["attempted"] += n_writes + 1
    return out


def run(seed: int, seconds: int, trace: bool, scale: float, rec_factory,
        tmp, log, clock) -> dict:
    phase_s = max(2.0, seconds * scale)
    if not trace:
        world = World(seed, scale)
        service, setup_s = build(world, SETUP_REPEATS)
        try:
            m = measure(world, service, phase_s, scale, clock, log,
                        with_sweep=True)
            rss = peak_rss_mb()
        finally:
            service.close()
        acc = m["accuracy"]
        return {"attempted": m["attempted"], "failed": m["failed"],
                "metrics": {
                    "setup_s": setup_s,
                    "ingest_rows_per_s": m["ingest_rows_per_s"],
                    "write_p50_ms": m["writes"].p50(),
                    "write_p99_ms": m["writes"].tail(),
                    "query_p50_ms": m["query_p50_ms"],
                    "query_p99_ms": m["query_p99_ms"],
                    "qps_at_slo": m["qps_at_slo"],
                    "median_rel_error": acc.median_rel_error,
                    "p95_rel_error": acc.p95_rel_error,
                    "ci_coverage": acc.ci_coverage,
                    "synopsis_bytes_per_data_byte": m["synopsis_ratio"],
                    "peak_rss_mb": rss,
                    "cpu_ms_per_op": m["cpu_ms_per_op"],
                }}

    # Traced run: one untraced pass, then one traced pass (no sweep).
    def one_pass(rec):
        world = World(seed, scale)
        service, _ = build(world, 1)
        try:
            out = measure(world, service, phase_s, scale, clock, log,
                          with_sweep=False, rec=rec)
        finally:
            service.close()
        out["engine"] = service.engine
        return out

    base, traced, rec = traced_pair(one_pass, rec_factory)
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    engine = traced["engine"]
    return {"attempted": attempted, "failed": failed, "recorder": rec,
            "metrics": layer_metrics(
                rec, engine, count_phases=("probe",),
                server_self=server_self_us(rec, traced["windows"],
                                           traced["task_of_conn"]),
                service=traced["service"],
                repeat_share=traced["repeat_share"],
                routing_touched=traced["routing_touched"],
                pool_rows=engine.pool_size,
                lag_p99_ms=traced["lag_p99_ms"],
                overhead_pct=overhead_pct(base["query_p50_ms"],
                                          traced["query_p50_ms"]),
                failed_frac=failed / attempted)}
