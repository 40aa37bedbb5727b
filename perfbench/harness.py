"""Measurement helpers shared by the three workloads.

Nothing here knows about a particular workload: percentiles with the
tail rule, process resource readings (peak RSS, CPU time, including
fleet worker processes), the open-loop HTTP generator, the host's CPU
steal (which latencies leave out), ground truth
from the benchmark's own copy of the live rows, and the accuracy
summary over SUM/COUNT/AVG answers, and the untraced/traced pass pair.
"""

from __future__ import annotations

import bisect
import math
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.metrics import relative_errors
from repro.core.queries import AggFunc, Query, Rectangle

#: Read latency limit (ms) on p99 for ``qps_at_slo`` and the goodput
#: variants.  Not 20 ms: on a 2-core host the serve_read p99 wanders
#: between 10 and 30 ms at every rate from 150 to 450 req/s, so the
#: rate where it first crosses 20 ms is a coin flip; 50 ms lies above
#: that flat stretch, where latency climbs steeply into collapse.
SLO_MS = 50.0
#: Tail rule: a reported percentile keeps at least this many samples
#: above it, so a "p99" over a small sample degrades to a lower rank.
TAIL_MIN_ABOVE = 10
TREE_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
             AggFunc.MAX)
ACCURACY_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)


class BenchmarkFailure(RuntimeError):
    """A correctness check failed: the run prints no result."""


class InvalidRun(BenchmarkFailure):
    """The load generator could not keep a workload's nominal schedule
    (an overloaded host): the run's numbers are not comparable."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkFailure(message)


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def tail_rank(n: int, want: float = 0.99) -> float:
    """The highest quantile <= ``want`` with TAIL_MIN_ABOVE samples above."""
    if n <= 2 * TAIL_MIN_ABOVE:
        return 0.5
    return min(want, 1.0 - TAIL_MIN_ABOVE / n)


@dataclass
class Timing:
    """A latency sample summarised as median + tail (milliseconds)."""

    samples_ms: List[float] = field(default_factory=list)

    def add_s(self, seconds: float) -> None:
        self.samples_ms.append(seconds * 1e3)

    @property
    def n(self) -> int:
        return len(self.samples_ms)

    def p50(self) -> float:
        return float(np.percentile(self.samples_ms, 50)) if self.n else 0.0

    def tail(self, want: float = 0.99) -> float:
        if not self.n:
            return 0.0
        return float(np.percentile(self.samples_ms,
                                   100 * tail_rank(self.n, want)))

    def describe(self, label: str) -> str:
        return (f"{label}: n={self.n} p50={self.p50():.3f}ms "
                f"p{100 * tail_rank(self.n):.2f}={self.tail():.3f}ms")


def pctl(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------- #
# process resources
# ---------------------------------------------------------------------- #
def child_pids() -> List[int]:
    """Live child processes of this process (fleet workers)."""
    pids = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"{task_dir}/{task}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CpuMeter:
    """CPU seconds of this process plus the given worker processes."""

    def __init__(self, pids: Sequence[int] = ()) -> None:
        self.pids = list(pids)
        self._t0 = self._now()

    def _now(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return (usage.ru_utime + usage.ru_stime +
                sum(_proc_cpu_s(p) for p in self.pids))

    def elapsed(self) -> float:
        return self._now() - self._t0


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak RSS of this process plus the given (live) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(p) for p in pids)


# ---------------------------------------------------------------------- #
# ground truth and accuracy
# ---------------------------------------------------------------------- #
class LiveRows:
    """The benchmark's own copy of the live rows (numpy ground truth)."""

    def __init__(self, data: np.ndarray, pred_col: int, agg_col: int,
                 n_live: int = 0) -> None:
        self.data = data
        self.alive = np.zeros(len(data), dtype=bool)
        self.alive[:n_live] = True
        self._pred = data[:, pred_col]
        self._agg = data[:, agg_col]

    @property
    def count(self) -> int:
        return int(self.alive.sum())

    def live_bytes(self) -> int:
        return self.count * self.data.shape[1] * 8

    def truths(self, queries: Sequence[Query]) -> List[float]:
        pred = self._pred[self.alive]
        agg = self._agg[self.alive]
        order = np.argsort(pred, kind="stable")
        pred, agg = pred[order], agg[order]
        out = []
        for query in queries:
            lo = np.searchsorted(pred, query.rect.lo[0], side="left")
            hi = np.searchsorted(pred, query.rect.hi[0], side="right")
            n = hi - lo
            if query.agg is AggFunc.COUNT:
                out.append(float(n))
            elif query.agg is AggFunc.SUM:
                out.append(float(agg[lo:hi].sum()) if n else 0.0)
            elif query.agg is AggFunc.AVG:
                out.append(float(agg[lo:hi].mean()) if n else math.nan)
            else:
                raise ValueError(f"no truth rule for {query.agg}")
        return out


@dataclass
class Accuracy:
    median_rel_error: float
    p95_rel_error: float
    ci_coverage: float
    n_base: int          # answers with non-zero truth (the error base)

    def describe(self) -> str:
        return (f"accuracy: base={self.n_base} median_re="
                f"{self.median_rel_error:.5f} p95_re="
                f"{self.p95_rel_error:.5f} ci95_coverage="
                f"{self.ci_coverage:.4f}")


def accuracy(results, truths: Sequence[float]) -> Accuracy:
    """Relative errors by ``repro.bench.metrics.relative_errors``
    (zero-truth queries dropped) and z=1.96 CI coverage on the same
    base."""
    estimates = [r.estimate for r in results]
    errs = relative_errors(estimates, truths)
    check(errs.size > 0, "accuracy probe has no non-zero truths")
    covered = []
    for result, truth in zip(results, truths):
        if truth == 0 or math.isnan(truth):
            continue
        lo, hi = result.ci(1.96)
        covered.append(lo <= truth <= hi)
    return Accuracy(float(np.median(errs)), float(np.percentile(errs, 95)),
                    float(np.mean(covered)), int(errs.size))


def pooled_accuracy(served, live: "LiveRows", probe: Sequence[Query],
                    ds, config: dict, n_shards: int,
                    extra_seeds: Sequence[int]) -> Accuracy:
    """Accuracy of the served answers pooled with independently seeded
    synopses of the same configuration built on the same live rows.

    One synopsis is one random sample: its median error moves ~12%
    between seeds, so a single one would hide a real change in noise.
    ``served`` is the served engine's answers to ``probe``.
    """
    from repro.core.janus import JanusConfig
    from repro.core.sharded import ShardedJanusAQP
    truths = live.truths(probe)
    results, all_truths = list(served), list(truths)
    rows = live.data[live.alive]
    for seed in extra_seeds:
        engine = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=n_shards,
            config=JanusConfig(**dict(config, seed=seed)))
        try:
            engine.insert_many(rows)
            engine.initialize()
            results.extend(engine.query_many(probe))
        finally:
            engine.close()
        all_truths.extend(truths)
    return accuracy(results, all_truths)


def range_query(agg: AggFunc, attr: str, pred_attrs: Tuple[str, ...],
                lo: float, hi: float, param: Optional[float] = None
                ) -> Query:
    return Query(agg, attr, pred_attrs, Rectangle((float(lo),),
                                                  (float(hi),)), param)


def data_ranges(column: np.ndarray, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """``n`` ranges whose endpoints are sampled data values (sorted)."""
    ends = np.sort(rng.choice(column, size=(n, 2)), axis=1)
    return ends


def probe_queries(column: np.ndarray, attr: str,
                  pred_attrs: Tuple[str, ...], rng: np.random.Generator,
                  n: int) -> List[Query]:
    """The fixed SUM/COUNT/AVG accuracy probe (data-valued endpoints)."""
    ends = data_ranges(column, rng, n)
    return [range_query(ACCURACY_AGGS[i % 3], attr, pred_attrs, lo, hi)
            for i, (lo, hi) in enumerate(ends)]


def full_count_query(attr: str, pred_attrs: Tuple[str, ...]) -> Query:
    return range_query(AggFunc.COUNT, attr, pred_attrs, -math.inf,
                       math.inf)


def same_result(got, want) -> bool:
    """Bit-identity on estimate, variance components and ``exact``."""
    def eq(a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))
    return (eq(got.estimate, want.estimate) and
            eq(got.variance_catchup, want.variance_catchup) and
            eq(got.variance_sample, want.variance_sample) and
            got.exact == want.exact)


# ---------------------------------------------------------------------- #
# open-loop generator
# ---------------------------------------------------------------------- #
@dataclass
class Sent:
    """One scheduled operation the generator issued.

    ``samples`` holds ``(kind, latency_s)`` per request the operation
    made, each timed from the moment that request was due.
    """

    due: float
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    samples: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def lag_s(self) -> float:
        return max(0.0, self.start - self.due)


#: ``op(client, due) -> [(kind, latency_s), ...]``
Op = Callable[[object, float], List[Tuple[str, float]]]


def run_schedule(clients: Sequence[object],
                 schedules: Sequence[Sequence[Tuple[Optional[float], Op]]],
                 t0: float, abort_lag_s: Optional[float] = None,
                 stop_s: Optional[float] = None) -> List[List[Sent]]:
    """Drive one thread per client connection through its schedule.

    ``schedules[c]`` is a list of ``(offset_s, op)`` sorted by offset.
    Each operation is due at ``t0 + offset`` and its requests are timed
    from then (open loop: a late start counts against the request), so
    a stall shows in every request queued behind it.  An offset of
    ``None`` makes the operation due as soon as the previous one ended
    (closed loop).  An operation that raises is recorded as failed and
    the thread keeps going.  With ``abort_lag_s``, a thread stops
    issuing once it starts an operation that much behind schedule (a
    backlog that only grows); with ``stop_s``, once ``t0 + stop_s``
    has passed.
    """
    out: List[List[Sent]] = [[] for _ in clients]

    def drive(c: int) -> None:
        client, log = clients[c], out[c]
        for offset, op in schedules[c]:
            now = time.perf_counter()
            if stop_s is not None and now >= t0 + stop_s:
                break
            due = max(now, t0) if offset is None else t0 + offset
            if now < due:
                time.sleep(due - now)
            sent = Sent(due, start=time.perf_counter())
            if abort_lag_s is not None and sent.lag_s > abort_lag_s:
                break
            try:
                sent.samples = op(client, due)
            except Exception as exc:        # counted as failed, not fatal
                sent.error = f"{type(exc).__name__}: {exc}"
            sent.end = time.perf_counter()
            log.append(sent)

    threads = [threading.Thread(target=drive, args=(c,), daemon=True,
                                name=f"perfbench-conn{c}")
               for c in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def latencies(sent: Sequence[Sent], kinds: Sequence[str],
              clock: Optional["StealClock"] = None) -> Timing:
    """The samples of ``kinds``; with ``clock``, only those of the
    operations it keeps (see :meth:`StealClock.keep`)."""
    timing = Timing()
    for s in (sent if clock is None else clock.keep(sent)[0]):
        for kind, latency in s.samples:
            if kind in kinds:
                timing.add_s(latency)
    return timing


# ---------------------------------------------------------------------- #
# host CPU steal
# ---------------------------------------------------------------------- #
#: How often the steal clock reads the host's steal counter.
STEAL_SAMPLE_S = 0.01
#: An operation also counts as interrupted when the counter moved this
#: long before it was due: one that queued behind work the host
#: interrupted waits out the interruption too (about the slowest
#: serving write batch).
STEAL_LOOKBACK_S = 0.03
#: Share of a measurement's operations the steal clock always keeps.
KEEP_AT_LEAST = 0.5


def _steal_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError, IndexError):
        return 0, 0
    return fields[7], sum(fields)


class StealMeter:
    """Share of all CPU time the hypervisor took from this machine
    (``steal`` in /proc/stat) since the meter was made."""

    def __init__(self) -> None:
        self._steal0, self._total0 = _steal_jiffies()

    def share(self) -> float:
        steal, total = _steal_jiffies()
        if total <= self._total0:
            return 0.0
        return (steal - self._steal0) / (total - self._total0)


class StealClock:
    """A timeline of the host's CPU steal counter, for the latencies
    and the closed-loop throughputs.

    On a shared virtual machine the hypervisor takes a CPU away in
    bursts of whole scheduler ticks; a request in flight during one
    waits out the burst, so a few per cent of steal doubles a
    segment's p99 (correlation 0.9 across 2-second segments on a
    2-vCPU VM).  While the clock runs, a thread reads the steal
    counter every STEAL_SAMPLE_S; an operation counts as interrupted
    when the counter moved between the last reading at or before
    STEAL_LOOKBACK_S before it was due and the first reading at or
    after it ended.  Latency figures leave interrupted operations
    out, but never more than half of them (the log reports how
    many).  The test reads only the host's counter, never the
    program's latency, so a change to the program cannot pick its
    samples; a slower operation spans more ticks, so it is left out
    slightly more often.  Without /proc/stat nothing is left out.
    """

    def __init__(self, interval_s: float = STEAL_SAMPLE_S) -> None:
        self.interval_s = interval_s
        self.times: List[float] = []
        self.steal: List[int] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-steal")

    def _read(self) -> None:
        # ``steal`` grows first, so a reader never sees a time without
        # its count; the lock keeps the times sorted.
        with self._lock:
            now = time.perf_counter()
            self.steal.append(_steal_jiffies()[0])
            self.times.append(now)

    def _sample(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._read()

    def __enter__(self) -> "StealClock":
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._read()

    def stolen(self, t0: float, t1: float) -> int:
        """Steal jiffies counted between the readings around t0..t1."""
        times = self.times
        if times[-1] < t1:              # no reading after t1 yet
            self._read()
        a = bisect.bisect_right(times, t0) - 1
        b = bisect.bisect_left(times, t1)
        if a < 0 or b >= len(times):
            return 0                    # outside the clock's lifetime
        return self.steal[b] - self.steal[a]

    def keep(self, sent: Sequence[Sent]) -> Tuple[List[Sent], List[Sent]]:
        """``(kept, dropped)``: the operations the hypervisor did not
        interrupt.  During a steal storm, when they are fewer than
        KEEP_AT_LEAST of all, the least interrupted ones are kept up to
        that share instead, so a figure never rests on a handful of
        samples or none: least steal in their own span (due to end)
        first, then with the look-back, ties keep the earlier.  (Ranked
        by the look-back alone, a storm kept operations hit in their
        own span ahead of ones hit only before they were due.)"""
        back = [self.stolen(s.due - STEAL_LOOKBACK_S, s.end) for s in sent]
        own = [self.stolen(s.due, s.end) for s in sent]
        n_keep = max(sum(x == 0 for x in back),
                     math.ceil(KEEP_AT_LEAST * len(sent)))
        order = sorted(range(len(sent)), key=lambda i: (own[i], back[i], i))
        keep = set(order[:n_keep])
        return ([s for i, s in enumerate(sent) if i in keep],
                [s for i, s in enumerate(sent) if i not in keep])

    def describe(self, sent: Sequence[Sent]) -> str:
        dropped = len(self.keep(sent)[1])
        return (f"{dropped} of {len(sent)} operations left out for host "
                f"steal")


def closed_loop_rate(sent: Sequence[Sent], wall_s: float, clock,
                     work: Callable[[Sent], float] = lambda s: 1.0
                     ) -> float:
    """Work per second of one closed-loop connection over ``wall_s``.

    Operations the steal clock leaves out (see :meth:`StealClock.keep`)
    are left out together with the time they took, so a steal burst
    costs samples rather than throughput.  ``work(sent)`` is an
    operation's work (1 by default).
    """
    kept, dropped = clock.keep(sent)
    done = sum(work(s) for s in kept if s.ok)
    return done / (wall_s - sum(s.end - s.due for s in dropped))


def lag_grows(sent: Sequence[Sent], limit_s: float = 0.05) -> bool:
    """Backlog test: the last tenth of requests started > limit late."""
    if not sent:
        return False
    ordered = sorted(sent, key=lambda s: s.due)
    tail = ordered[-max(1, len(ordered) // 10):]
    return float(np.mean([s.lag_s for s in tail])) > limit_s


def lag_p99_ms(sent: Sequence[Sent]) -> float:
    lags = [s.lag_s * 1e3 for s in sent]
    return pctl(lags, 100 * tail_rank(len(lags))) if lags else 0.0


# ---------------------------------------------------------------------- #
# traced runs
# ---------------------------------------------------------------------- #
def traced_pair(one_pass: Callable[[object], dict], rec_factory
                ) -> Tuple[dict, dict, object]:
    """An untraced pass, then the same pass with span recorders.

    ``one_pass(rec)`` builds, measures and closes one pass (``rec`` is
    None untraced) and returns its figures, including ``attempted``,
    ``failed`` and ``repartitions``.  The recorders are installed
    before the traced pass builds anything and removed after it.
    Both passes must run the same number of re-partitions.
    """
    base = one_pass(None)
    rec = rec_factory()
    try:
        traced = one_pass(rec)
    finally:
        rec.uninstall()
    check(traced["repartitions"] == base["repartitions"],
          f"re-partitions differ between the untraced "
          f"({base['repartitions']}) and traced "
          f"({traced['repartitions']}) runs")
    return base, traced, rec


def overhead_pct(base: float, traced: float) -> float:
    """Traced minus untraced, as a percentage of untraced."""
    return 100.0 * (traced - base) / base
