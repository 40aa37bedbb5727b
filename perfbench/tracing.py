"""Span recording around the program's public layer boundaries.

The traced run installs wrappers from here - around functions and
methods the program already exposes - before any engine or server of
that pass is built, and removes them afterwards.  Every wrapper keeps
its target's signature through ``functools.wraps`` (the server probes
``inspect.signature(engine.query_many)`` for an ``obs`` parameter, and
a bare ``*args`` wrapper would switch it to another code path).

A span is ``(name, start, end, parent, request, thread, n, extra)``:

* ``parent`` is the innermost open span on the same thread; a span
  that starts on a thread with nothing open (a shard fan-out thread)
  is linked to the open span that registered one of its queries;
* ``request`` is the asyncio task key for spans on the server's event
  loop (one task per client connection), which the workload maps back
  to client requests;
* ``n`` is the work count (rows, queries, values) of the call.

Spans live in memory and are written out once the run ends.
"""

from __future__ import annotations

import asyncio
import functools
import gzip
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

NAME, T0, T1, PARENT, REQ, THREAD, N, EXTRA = range(8)


def _task_key() -> int:
    """``id`` of the running asyncio task, or 0 off the event loop."""
    try:
        task = asyncio.current_task()
    except RuntimeError:
        return 0
    return id(task) if task is not None else 0


def _len(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


class SpanRecorder:
    """In-memory span store plus the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self.phase_of: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_by_query: Dict[int, int] = {}
        #: id(query) -> submit time (ns) for the batcher wait.
        self._submitted: Dict[int, int] = {}
        self.batcher_waits_us: List[Tuple[str, float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # span bookkeeping
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int, req: int, n: int) -> int:
        with self._lock:
            self.spans.append([name, 0, 0, parent, req,
                               threading.get_ident(), n, None])
            self.phase_of.append(self.phase)
            return len(self.spans) - 1

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None,
             queries: Optional[Callable] = None,
             register_queries: bool = False,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs)`` gives the call's work count;
        ``queries(args, kwargs)`` its Query objects (for cross-thread
        parent links and the batcher wait); ``before`` runs first and
        its value goes to ``after(span, args, kwargs, result, token)``,
        which may fill the span's ``extra`` field.
        """
        target = getattr(owner, attr)
        rec = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            qs = queries(args, kwargs) if queries is not None else None
            parent = stack[-1] if stack else -1
            if parent < 0 and qs:
                parent = rec._open_by_query.get(id(qs[0]), -1)
            n = count(args, kwargs) if count is not None else 0
            idx = rec._open(name, parent, _task_key(), n)
            token = before(args, kwargs) if before is not None else None
            mine: List[int] = []
            if qs:
                rec._note_engine_start(qs)
                if register_queries:
                    # The outermost open span keeps the link, so every
                    # shard thread finds the coordinator's span.
                    mine = [id(q) for q in qs
                            if id(q) not in rec._open_by_query]
                    for key in mine:
                        rec._open_by_query[key] = idx
            stack.append(idx)
            span = rec.spans[idx]
            span[T0] = time.perf_counter_ns()
            try:
                result = target(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter_ns()
                stack.pop()
                for key in mine:
                    rec._open_by_query.pop(key, None)
            if after is not None:
                after(span, args, kwargs, result, token)
            return result

        self._install(owner, attr, target, wrapper)

    def wrap_async_submit(self, owner, attr: str, name: str) -> None:
        """Wrap ``MicroBatcher.submit_many`` (a coroutine function).

        The span runs from submit to answered on the event loop and is
        keyed by the connection's task; each query's submit time is
        kept so the engine wrapper can measure the wait until the
        engine call starts.
        """
        target = getattr(owner, attr)
        rec = self

        @functools.wraps(target)
        async def wrapper(self_, queries, *args, **kwargs):
            queries = list(queries)
            idx = rec._open(name, -1, _task_key(), len(queries))
            span = rec.spans[idx]
            span[T0] = time.perf_counter_ns()
            for q in queries:
                rec._submitted[id(q)] = span[T0]
            try:
                return await target(self_, queries, *args, **kwargs)
            finally:
                span[T1] = time.perf_counter_ns()

        self._install(owner, attr, target, wrapper)

    def _note_engine_start(self, queries: Sequence) -> None:
        now = time.perf_counter_ns()
        for q in queries:
            t_sub = self._submitted.pop(id(q), None)
            if t_sub is not None:
                self.batcher_waits_us.append((self.phase,
                                              (now - t_sub) / 1e3))

    def _install(self, owner, attr, target, wrapper) -> None:
        # An inherited method is wrapped on the subclass and removed
        # again afterwards; an own attribute is restored verbatim.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # queries over the recorded spans
    # ------------------------------------------------------------------ #
    def select(self, name: str, phases: Sequence[str]) -> List[int]:
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == name and self.phase_of[i] in phases]

    def durations_us(self, name: str, phases: Sequence[str]) -> np.ndarray:
        return np.array([(self.spans[i][T1] - self.spans[i][T0]) / 1e3
                         for i in self.select(name, phases)])

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                kids[span[PARENT]].append(i)
        return kids

    def self_us(self, idx: int, kids: Dict[int, List[int]]) -> float:
        """Span duration minus the union of its children's intervals."""
        span = self.spans[idx]
        covered = covered_ns(span[T0], span[T1],
                             [(self.spans[k][T0], self.spans[k][T1])
                              for k in kids.get(idx, ())])
        return (span[T1] - span[T0] - covered) / 1e3

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_ns": s[T0],
                    "end_ns": s[T1], "parent": s[PARENT],
                    "request": s[REQ], "thread": s[THREAD], "n": s[N],
                    "phase": self.phase_of[i],
                    "extra": s[EXTRA]}) + "\n")


def covered_ns(t0: int, t1: int,
               intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in intervals
                     if b > t0 and a < t1)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


# ---------------------------------------------------------------------- #
# the layer boundaries
# ---------------------------------------------------------------------- #
def _arg(i: int, key: str):
    def get(args, kwargs):
        return kwargs[key] if key in kwargs else args[i]
    return get


def _count_arg(i: int, key: str):
    get = _arg(i, key)
    return lambda args, kwargs: _len(get(args, kwargs))


def _one(args, kwargs) -> int:
    return 1


def _queries_arg(i: int, key: str):
    get = _arg(i, key)
    return lambda args, kwargs: list(get(args, kwargs))


def _dpt_answers(span, args, kwargs, result, token) -> None:
    span[EXTRA] = {"n_partial": sum(r.n_partial for r in result),
                   "n_covered": sum(r.n_covered for r in result)}


def _drain_before(args, kwargs):
    st = args[0].stats
    return st.n_inserts + st.n_deletes + st.n_queries + st.n_bad_requests


def _drain_after(span, args, kwargs, result, token) -> None:
    span[N] = _drain_before(args, kwargs) - token


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.core import janus as janus_mod
    from repro.core import sharded as sharded_mod
    from repro.core.catchup import CatchupRunner
    from repro.core.dpt import DynamicPartitionTree
    from repro.core.stream import StreamDriver
    from repro.index.range_index import RangeIndex
    from repro.partitioning.kdtree import KDTreePartitioner
    from repro.partitioning.onedim import OneDimPartitioner
    from repro.sampling.reservoir import DynamicReservoir
    from repro.service import fleet as fleet_mod
    from repro.service import server as server_mod
    from repro.service.batcher import MicroBatcher
    from repro.service.cache import ResultCache
    from repro.sketch.counted import CountedSketch

    # service tier (event loop thread)
    rec.wrap(server_mod, "compile_sql", "sqlfront.compile", count=_one)
    rec.wrap(ResultCache, "lookup", "cache.lookup", count=_one)
    rec.wrap_async_submit(MicroBatcher, "submit_many", "batcher.submit")

    # engines: the in-process engines' writes and every engine's
    # query_many (its start ends the batcher wait; the shard engines'
    # calls are children of the sharded span)
    engine = janus_mod.JanusAQP
    rec.wrap(engine, "insert_many", "engine.insert_many",
             count=_count_arg(1, "rows"))
    rec.wrap(engine, "delete_many", "engine.delete_many",
             count=_count_arg(1, "tids"))
    for cls, name in ((engine, "engine"),
                      (sharded_mod.ShardedJanusAQP, "sharded"),
                      (fleet_mod.FleetCoordinator, "fleet")):
        rec.wrap(cls, "query_many", f"{name}.query_many",
                 count=_count_arg(1, "queries"),
                 queries=_queries_arg(1, "queries"),
                 register_queries=True)
    rec.wrap(janus_mod.JanusAQP, "reoptimize", "maint.reoptimize")
    for mod in (sharded_mod, fleet_mod):
        rec.wrap(mod, "plan_query_subsets", "routing.plan",
                 count=_count_arg(0, "queries"))
    rec.wrap(fleet_mod.RemoteShard, "request", "fleet.request")

    # synopsis internals
    rec.wrap(DynamicPartitionTree, "insert_rows", "dpt.insert_rows",
             count=_count_arg(1, "rows"))
    rec.wrap(DynamicPartitionTree, "delete_rows", "dpt.delete_rows",
             count=_count_arg(1, "rows"))
    rec.wrap(DynamicPartitionTree, "add_catchup_rows",
             "dpt.add_catchup_rows", count=_count_arg(1, "rows"))
    rec.wrap(DynamicPartitionTree, "query_many", "dpt.query_many",
             count=_count_arg(1, "queries"), after=_dpt_answers)
    rec.wrap(DynamicPartitionTree, "frontier_many", "dpt.frontier_many",
             count=_count_arg(1, "rects"))
    rec.wrap(DynamicReservoir, "on_insert_many", "reservoir.update",
             count=_count_arg(1, "tids"))
    rec.wrap(DynamicReservoir, "on_delete_many", "reservoir.update",
             count=_count_arg(1, "tids"))
    rec.wrap(RangeIndex, "insert", "range_index.update", count=_one)
    rec.wrap(RangeIndex, "delete", "range_index.update", count=_one)
    rec.wrap(RangeIndex, "add_many", "range_index.update",
             count=_count_arg(1, "tids"))
    rec.wrap(RangeIndex, "delete_many", "range_index.update",
             count=_count_arg(1, "tids"))
    rec.wrap(RangeIndex, "rebuild", "range_index.rebuild")
    rec.wrap(CountedSketch, "insert_many", "sketch.update",
             count=_count_arg(1, "values"))
    rec.wrap(CountedSketch, "delete_many", "sketch.update",
             count=_count_arg(1, "values"))
    rec.wrap(OneDimPartitioner, "partition", "maint.partition")
    rec.wrap(KDTreePartitioner, "partition", "maint.partition")
    rec.wrap(KDTreePartitioner, "partition_rows", "maint.partition")
    rec.wrap(CatchupRunner, "run_from_table", "maint.catchup")

    # stream pipeline
    rec.wrap(StreamDriver, "drain", "stream.drain", before=_drain_before,
             after=_drain_after)
