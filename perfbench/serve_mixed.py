"""``serve_mixed``: writes beside reads on the process fleet.

A 2-worker :class:`~repro.service.fleet.FleetCoordinator` starts from a
:func:`~repro.core.persist.save_sharded` snapshot, behind
:class:`~repro.service.server.AQPServer`.  One connection sends an
``/insert`` of 128 rows followed by a ``/delete`` of 32 earlier tids at
a fixed rate; the other sends reads from a small hot pool (it fits the
cache) as a seeded Poisson process.  Every write bumps the data epoch,
so the cache holds the hot set but is invalidated constantly, and
reads wait on write work inside the single-threaded workers.  A write
phase follows the window: closed-loop write batches on an otherwise
idle fleet.

``setup_s`` covers building the seed engine, ``save_sharded``, the
worker spawn and one full-domain COUNT that every worker answers; the
measured window starts after it.  No workload flushes anything to
durable storage, on either side of a comparison.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.broker.frames import OP_STATS
from repro.core.janus import JanusConfig
from repro.core.persist import save_sharded
from repro.core.sharded import ShardedJanusAQP
from repro.datasets import synthetic
from repro.service import serve_background
from repro.service.fleet import FleetCoordinator

from harness import (SLO_MS, CpuMeter, InvalidRun, LiveRows, child_pids,
                     closed_loop_rate, lag_grows, lag_p99_ms, latencies,
                     overhead_pct, peak_rss_mb, pooled_accuracy,
                     probe_queries, run_schedule, traced_pair)
from layers import (counters_delta, layer_metrics, server_self_us,
                    service_counters)
from serving import (WriteLog, close_clients, first_answer,
                     live_count_check, map_tasks, open_clients,
                     probe_with_routing, read_op, request_windows,
                     summarize, tree_statements)

N_ROWS = 60_000
N_WORKERS = 2
#: No re-partitioning inside the workers: forced re-partitions (1 to
#: 14 per run) or the drift trigger's data-dependent ones stalled
#: reads and writes by 100-200 ms each and moved the read p99 and the
#: write p50 by 40-80% between seeds.  Maintenance is measured on
#: ``stream_ingest``.
CONFIG = dict(k=64, sample_rate=0.02, check_every=10 ** 9, seed=0)
HOT_POOL = 32
#: Reads at 60/s keep the coordinator about a third busy: at 80/s
#: queueing amplified host CPU steal and moved read p50 30-50% between
#: runs; at 40/s the window held too few reads for a steady p99.
READ_RATE = 60.0                 # reads/s on the read connection
WRITE_RATE = 5.0                 # insert+delete batches/s
BATCH_ROWS, BATCH_DELETES = 128, 32
N_PROBE = 2000
ACCURACY_SEEDS = (1, 2, 3, 4, 5)   # extra synopses pooled with the fleet's
SETUP_REPEATS = 3
#: The write phase after the window: closed-loop batches on an
#: otherwise idle fleet (``write_*``, ``ingest_rows_per_s``).  In the
#: window, where writes wait on reads and the host's wake-up delays
#: across three processes, their p50 moved 30% from run to run.
WRITE_PHASE_S = 5.0
#: Write batches the write phase may use at most (~6x the rate a
#: 2-core host reaches).
WRITE_PHASE_MAX_BATCHES = int(WRITE_PHASE_S * 300)


class World:
    """The seed's inputs: initial rows, rows to stream, read pool."""

    def __init__(self, seed: int, seconds: float, scale: float) -> None:
        self.seed = seed
        self.n_rows = max(6_000, int(N_ROWS * scale))
        self.n_window_batches = int(WRITE_RATE * seconds)
        self.n_reads = int(READ_RATE * seconds)
        self.n_batches = self.n_window_batches + WRITE_PHASE_MAX_BATCHES
        self.ds = synthetic.load(
            "nyc_taxi", seed=seed,
            n=self.n_rows + self.n_batches * BATCH_ROWS)
        self.attr = self.ds.agg_attr
        self.pred_attrs = tuple(self.ds.predicate_attrs)
        self.pred_col = self.ds.schema.index(self.pred_attrs[0])
        self.agg_col = self.ds.schema.index(self.attr)
        column = self.ds.data[:self.n_rows, self.pred_col]
        self.hot = tree_statements(column, self.attr, self.pred_attrs,
                                   np.random.default_rng([seed, 20]),
                                   HOT_POOL)
        self.probe = probe_queries(column, self.attr, self.pred_attrs,
                                   np.random.default_rng([seed, 21]),
                                   N_PROBE)


def pin_workers() -> None:
    """Pin fleet worker i to CPU i (mod the CPUs this process may use).

    Left to the scheduler, on a 2-CPU host both workers sometimes
    shared one CPU for a whole run: the window's write p50 then read
    19-24 ms instead of 14-17 ms, and the read p99 (reads that wait on
    a write) moved with it from run to run.  The coordinator, the
    server and the load generator stay unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    for i, pid in enumerate(child_pids()):
        os.sched_setaffinity(pid, {cpus[i % len(cpus)]})


class Fleet:
    """Seed engine -> snapshot -> worker fleet -> server, timed."""

    def __init__(self, world: World, tmp) -> None:
        t0 = time.perf_counter()
        ds = world.ds
        seed_engine = ShardedJanusAQP(
            ds.schema, world.attr, world.pred_attrs, n_shards=N_WORKERS,
            config=JanusConfig(**CONFIG))
        self.tids = list(seed_engine.insert_many(ds.data[:world.n_rows]))
        seed_engine.initialize()
        live_bytes = world.n_rows * ds.data.shape[1] * 8
        self.synopsis_ratio = seed_engine.storage_cost_bytes() / live_bytes
        self.snapshot = tmp / f"snapshot-{time.perf_counter_ns()}"
        t_save = time.perf_counter()
        save_sharded(seed_engine, self.snapshot)
        self.save_s = time.perf_counter() - t_save
        seed_engine.close()
        self.fleet = FleetCoordinator(self.snapshot)
        t_fleet = time.perf_counter()
        self.handle = serve_background(self.fleet, port=0)
        first_answer(self.handle, world.attr, world.pred_attrs,
                     world.n_rows)
        pin_workers()
        now = time.perf_counter()
        self.first_answer_s = now - t_fleet
        self.setup_s = now - t0

    def repartitions(self) -> int:
        """Re-partitions the workers have run (their own counters)."""
        total = 0
        for worker in self.fleet.workers:
            _meta, _epoch, body, _spans = worker.request(OP_STATS)
            total += int(json.loads(bytes(body))["n_repartitions"])
        return total

    def wire_bytes(self) -> int:
        return sum(w["bytes_sent"] + w["bytes_received"]
                   for w in self.fleet.fleet_stats()["workers"].values())

    def close(self) -> None:
        self.handle.stop()
        self.fleet.close()


def build(world: World, tmp, repeats: int) -> Tuple[Fleet, List[Fleet]]:
    runs = []
    for _ in range(repeats):
        if runs:
            runs[-1].close()
        runs.append(Fleet(world, tmp))
    return runs[-1], runs


def hot_reads(world: World, rng: np.random.Generator, n: int,
              rate: float) -> list:
    """``n`` hot-pool reads, half of them SQL, arriving as a seeded
    Poisson process of ``rate``/s.

    Not on a fixed grid: at 40 reads/s beside 5 writes/s every eighth
    read was due at the same instant as a write, and which of the two
    connections won that race, which the host's scheduling decides,
    moved the read tail by a quarter between sets of runs.
    """
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    return [(float(t), read_op(world.hot[j], bool(sql)))
            for t, j, sql in zip(due, rng.integers(0, HOT_POOL, n),
                                 rng.random(n) < 0.5)]


def window(clients, world: World, writes, clock, log) -> Dict[str, object]:
    """The measured window: write batches and reads at their fixed
    rates.  Read latencies from every read the host did not interrupt;
    ``qps_at_slo`` is the reads answered within the limit per second,
    which the fixed read rate caps (a regression guard only)."""
    pick = np.random.default_rng([world.seed, 23])
    schedule = [[(b / WRITE_RATE, next(writes))
                 for b in range(world.n_window_batches)],
                hot_reads(world, pick, world.n_reads, READ_RATE)]
    sent_by_conn = run_schedule(clients, schedule,
                                time.perf_counter() + 0.05)
    sent = [s for conn in sent_by_conn for s in conn]
    s = summarize(sent)
    reads = latencies(sent, ("read",), clock)
    writes_ms = latencies(sent, ("write",), clock)
    log(s["reads"].describe(f"read {READ_RATE:.0f}/s, all"))
    log(s["writes"].describe(f"write {WRITE_RATE:.0f} batches/s, all"))
    log(reads.describe(f"read, {clock.describe(sent_by_conn[1])}"))
    log(writes_ms.describe(f"write, {clock.describe(sent_by_conn[0])}"))
    if s["failed"]:
        log(f"failed requests, e.g. {s['errors']}")
    if lag_grows(sent):
        raise InvalidRun(f"the generator fell behind at the nominal rate "
                         f"(lag p99 {lag_p99_ms(sent):.1f} ms)")
    wall = max(s.end for s in sent) - min(s.due for s in sent)
    within = sum(ms <= SLO_MS for ms in s["reads"].samples_ms)
    return {"sent": sent, "windows": request_windows(sent_by_conn),
            "reads": reads, "qps_at_slo": within / wall,
            "n": len(sent_by_conn[0]) * 2 + len(sent_by_conn[1]),
            "failed": s["failed"], "lag_p99_ms": lag_p99_ms(sent)}


def write_phase(client, world: World, writes, clock, log):
    """Closed-loop write batches on an otherwise idle fleet for
    WRITE_PHASE_S: the write latency and rows per second."""
    ops = [(None, next(writes)) for _ in range(WRITE_PHASE_MAX_BATCHES)]
    t0 = time.perf_counter()            # batches not reached are skipped
    sent = run_schedule([client], [ops], t0, stop_s=WRITE_PHASE_S)[0]
    wall = time.perf_counter() - t0
    latency = latencies(sent, ("write",), clock)
    rows_per_s = closed_loop_rate(sent, wall, clock) * (BATCH_ROWS +
                                                        BATCH_DELETES)
    log(latency.describe(f"write (closed loop, {rows_per_s:.1f} rows/s), "
                         f"{clock.describe(sent)}"))
    return latency, rows_per_s, len(sent), sum(not s.ok for s in sent)


def measure(world: World, fleet: Fleet, clock, log, rec=None,
            with_write_phase: bool = True) -> Dict[str, object]:
    """The measured window, the write phase and the checks after."""
    live = LiveRows(world.ds.data, world.pred_col, world.agg_col,
                    world.n_rows)
    wlog = WriteLog(live, fleet.tids)
    rng = np.random.default_rng([world.seed, 22])
    writes = (wlog.batch_op(world.n_rows + b * BATCH_ROWS, BATCH_ROWS,
                            BATCH_DELETES, rng)
              for b in range(world.n_batches))

    clients = open_clients(fleet.handle, 2)
    out: Dict[str, object] = {}
    try:
        if rec is not None:
            rec.phase = "warmup"
            out["task_of_conn"] = map_tasks(clients, world.hot[0].sql, rec)
        for stmt in world.hot:                  # fill the cache once
            clients[1].sql(stmt.sql)
        if rec is not None:
            rec.phase = "load"
        before = service_counters(fleet.handle.server)
        wire0 = fleet.wire_bytes()
        cpu = CpuMeter(child_pids())
        out.update(window(clients, world, writes, clock, log))
        cpu_s = cpu.elapsed()
        if rec is not None:
            rec.phase = "after"
        out["service"] = counters_delta(
            before, service_counters(fleet.handle.server))
        out["wire_bytes_per_op"] = (fleet.wire_bytes() - wire0) / out["n"]
        out["cpu_ms_per_op"] = 1e3 * cpu_s / max(1, out["n"] -
                                                 out["failed"])
        out["attempted"] = out["n"] + len(world.hot) + 1
        if with_write_phase:
            (out["writes"], out["ingest_rows_per_s"], n,
             failed) = write_phase(clients[0], world, writes, clock, log)
            out["attempted"] += n
            out["failed"] += failed
        live_count_check(clients[1], world.attr, world.pred_attrs,
                         live.count)
    finally:
        close_clients(clients)
    out["peak_rss_mb"] = peak_rss_mb(child_pids())
    out["repartitions"] = fleet.repartitions()

    if rec is not None:
        rec.phase = "probe"
    answers, out["routing_touched"] = probe_with_routing(fleet.fleet,
                                                         world.probe)
    if rec is not None:
        rec.phase = "after"
    out["accuracy"] = pooled_accuracy(
        answers, live, world.probe, world.ds, CONFIG, N_WORKERS,
        ACCURACY_SEEDS if rec is None else ())
    log(out["accuracy"].describe())
    log(f"{out['repartitions']} re-partitions in the workers")
    return out


def run(seed: int, seconds: int, trace: bool, scale: float, rec_factory,
        tmp, log, clock) -> dict:
    window_s = max(4.0, seconds * scale)
    world = World(seed, window_s, scale)
    if not trace:
        fleet, runs = build(world, tmp, SETUP_REPEATS)
        try:
            m = measure(world, fleet, clock, log)
        finally:
            fleet.close()
        acc = m["accuracy"]
        return {"attempted": m["attempted"], "failed": m["failed"],
                "metrics": {
                    "setup_s": float(np.median([r.setup_s for r in runs])),
                    "ingest_rows_per_s": m["ingest_rows_per_s"],
                    "write_p50_ms": m["writes"].p50(),
                    "write_p99_ms": m["writes"].tail(),
                    "query_p50_ms": m["reads"].p50(),
                    "query_p99_ms": m["reads"].tail(),
                    "qps_at_slo": m["qps_at_slo"],
                    "median_rel_error": acc.median_rel_error,
                    "p95_rel_error": acc.p95_rel_error,
                    "ci_coverage": acc.ci_coverage,
                    "synopsis_bytes_per_data_byte": fleet.synopsis_ratio,
                    "peak_rss_mb": m["peak_rss_mb"],
                    "cpu_ms_per_op": m["cpu_ms_per_op"],
                }}

    # Traced run: one untraced pass, then one traced pass (no write
    # phase in either).
    def one_pass(rec):
        fleet, _ = build(world, tmp, 1)
        try:
            out = measure(world, fleet, clock, log, rec=rec,
                          with_write_phase=False)
        finally:
            fleet.close()
        out["fleet"] = fleet
        return out

    base, traced, rec = traced_pair(one_pass, rec_factory)
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    fleet = traced["fleet"]
    return {"attempted": attempted, "failed": failed, "recorder": rec,
            "metrics": layer_metrics(
                rec, fleet.fleet, count_phases=("probe",),
                server_self=server_self_us(rec, traced["windows"],
                                           traced["task_of_conn"]),
                service=traced["service"],
                repeat_share=1.0,       # every read is a hot statement
                routing_touched=traced["routing_touched"],
                fleet_wire_bytes_per_op=traced["wire_bytes_per_op"],
                fleet_first_answer_s=fleet.first_answer_s,
                persist_save_s=fleet.save_s,
                repartitions=traced["repartitions"],
                lag_p99_ms=traced["lag_p99_ms"],
                overhead_pct=overhead_pct(base["reads"].p50(),
                                          traced["reads"].p50()),
                failed_frac=failed / attempted)}
