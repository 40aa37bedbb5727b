"""Pieces shared by the two HTTP workloads (``serve_read``/``serve_mixed``).

Statements are generated from the seed as both a structured
:class:`~repro.core.queries.Query` (sent to ``/query``) and equivalent
SQL text (sent to ``/sql``); the SQL uses ``repr`` floats, so both
forms compile to the same query and share one cache entry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.queries import AggFunc, Query
from repro.service import ServiceClient

from harness import (TREE_AGGS, LiveRows, Sent, check, data_ranges,
                     full_count_query, latencies, range_query)

TABLE = "trips"


@dataclass(frozen=True)
class Statement:
    key: int                 # identity within the workload's pool
    query: Query
    sql: str


def tree_statements(column: np.ndarray, attr: str,
                    pred_attrs: Tuple[str, ...], rng: np.random.Generator,
                    n: int, first_key: int = 0) -> List[Statement]:
    """``n`` SUM/COUNT/AVG/MIN/MAX range statements."""
    out = []
    for i, (lo, hi) in enumerate(data_ranges(column, rng, n)):
        agg = TREE_AGGS[i % len(TREE_AGGS)]
        target = "*" if agg is AggFunc.COUNT else attr
        sql = (f"SELECT {agg.value}({target}) FROM {TABLE} WHERE "
               f"{pred_attrs[0]} BETWEEN {float(lo)!r} AND {float(hi)!r}")
        out.append(Statement(first_key + i,
                             range_query(agg, attr, pred_attrs, lo, hi),
                             sql))
    return out


def sketch_statements(attr: str, pred_attrs: Tuple[str, ...],
                      n_percentiles: int, first_key: int = 0
                      ) -> List[Statement]:
    """Table-wide PERCENTILE statements plus one COUNT(DISTINCT)."""
    out = [Statement(first_key, range_query(
        AggFunc.COUNT_DISTINCT, attr, pred_attrs, -math.inf, math.inf),
        f"SELECT COUNT(DISTINCT {attr}) FROM {TABLE}")]
    for i in range(n_percentiles):
        p = round((i + 1) / (n_percentiles + 1), 6)
        out.append(Statement(first_key + 1 + i, range_query(
            AggFunc.PERCENTILE, attr, pred_attrs, -math.inf, math.inf,
            param=p), f"SELECT PERCENTILE({attr}, {p!r}) FROM {TABLE}"))
    return out


def zipf_picks(rng: np.random.Generator, n_items: int, n: int,
               s: float, permute: bool = True) -> np.ndarray:
    """``n`` draws over ``n_items`` ranks with weight 1/rank^s; ranks
    map to items by a seeded permutation, or in pool order."""
    weights = 1.0 / np.arange(1, n_items + 1) ** s
    ranks = rng.choice(n_items, size=n, p=weights / weights.sum())
    return rng.permutation(n_items)[ranks] if permute else ranks


def read_op(stmt: Statement, use_sql: bool):
    """One read request as a generator operation."""
    def op(client: ServiceClient, due: float):
        if use_sql:
            client.sql(stmt.sql)
        else:
            client.query(stmt.query)
        return [("read", time.perf_counter() - due)]
    return op


def open_clients(handle, n: int) -> List[ServiceClient]:
    """``n`` keep-alive connections, each opened by one health check."""
    clients = [ServiceClient(handle.host, handle.port) for _ in range(n)]
    for client in clients:
        check(client.health(), "server unhealthy at start")
    return clients


def close_clients(clients: Sequence[ServiceClient]) -> None:
    for client in clients:
        client.close()


def first_answer(handle, attr: str, pred_attrs, expect: int) -> None:
    """One full-domain COUNT over HTTP (touches every shard)."""
    with ServiceClient(handle.host, handle.port) as client:
        got = client.query(full_count_query(attr, pred_attrs)).estimate
    check(got == expect, f"first answer: COUNT {got} != {expect} rows")


def live_count_check(client: ServiceClient, attr: str, pred_attrs,
                     expect: int) -> None:
    """Every acknowledged write applied exactly once."""
    got = client.query(full_count_query(attr, pred_attrs)).estimate
    check(got == expect, f"after quiescence: full-domain COUNT {got} != "
                         f"{expect} live rows")


class WriteLog:
    """The benchmark's own record of acknowledged writes.

    It keeps the live tids, the data row behind each tid and the
    :class:`~harness.LiveRows` ground truth in step with every
    acknowledged ``/insert`` and ``/delete``.
    """

    def __init__(self, live: LiveRows, tids: Sequence[int]) -> None:
        self.live = live
        self.live_tids = list(tids)
        self.row_of_tid = {tid: i for i, tid in enumerate(tids)}

    def batch_op(self, start: int, n_rows: int, n_delete: int,
                 rng: np.random.Generator):
        """One write batch: ``/insert`` of data rows ``start`` ..
        ``start + n_rows``, then ``/delete`` of ``n_delete`` earlier
        live tids once the insert is acknowledged.

        The batch is one sample, from its due time to the delete's ack
        (as separate samples, the 50/50 mix of slower inserts and
        faster deletes would put the median on the gap between the two).
        """
        rows = self.live.data[start:start + n_rows]

        def op(client: ServiceClient, due: float):
            tids = client.insert_many(rows)
            check(len(tids) == len(rows), "insert acknowledged wrong count")
            self.row_of_tid.update((t, start + i) for i, t in
                                   enumerate(tids))
            self.live.alive[start:start + len(tids)] = True
            live_tids = self.live_tids
            live_tids.extend(tids)
            picks = rng.choice(len(live_tids), size=n_delete, replace=False)
            victims = [live_tids[i] for i in picks]
            for i in sorted(picks, reverse=True):
                live_tids[i] = live_tids[-1]
                live_tids.pop()
            self.live.alive[[self.row_of_tid[t] for t in victims]] = False
            check(client.delete_many(victims) == n_delete,
                  "delete acknowledged wrong count")
            return [("write", time.perf_counter() - due)]
        return op


def probe_with_routing(engine, probe: Sequence[Query]):
    """``engine.query_many(probe)`` and the mean number of shards the
    probe's queries touched (from ``routing_stats()``)."""
    before = engine.routing_stats()
    answers = engine.query_many(probe)
    after = engine.routing_stats()
    touched = (after["mean_shards_touched"] * after["n_queries"] -
               before["mean_shards_touched"] * before["n_queries"])
    return answers, touched / (after["n_queries"] - before["n_queries"])


def summarize(sent: Sequence[Sent]) -> Dict[str, object]:
    return {"n": len(sent), "failed": sum(not s.ok for s in sent),
            "reads": latencies(sent, ("read",)),
            "writes": latencies(sent, ("write",)),
            "errors": [s.error for s in sent if s.error][:3]}


def request_windows(sent_by_conn: Sequence[Sequence[Sent]]
                    ) -> Dict[int, List[Tuple[int, int]]]:
    """Per-connection ``(start_ns, end_ns)`` of every request sent."""
    return {c: [(int(s.start * 1e9), int(s.end * 1e9)) for s in sent]
            for c, sent in enumerate(sent_by_conn)}


def map_tasks(clients: Sequence[ServiceClient], sql: str,
              rec) -> Dict[int, int]:
    """Map each connection to the server task that serves it.

    Connection ``c`` sends one ``/sql`` request alone; the SQL compile
    span inside that window carries the task key.
    """
    from tracing import NAME, REQ, T0
    task_of_conn = {}
    for c, client in enumerate(clients):
        a = time.perf_counter_ns()
        client.sql(sql)
        b = time.perf_counter_ns()
        keys = {span[REQ] for span in rec.spans
                if span[NAME] == "sqlfront.compile" and a <= span[T0] <= b}
        check(len(keys) == 1, "cannot map a connection to its server task")
        task_of_conn[c] = keys.pop()
    return task_of_conn
