"""Span tracing from outside the program: timing wrappers on public callables.

A :class:`Tracer` records one span per call of every wrapped callable:
``[span_id, parent_id, request, name, start_ns, end_ns, counts]``.  The
parent is the innermost open span of the calling thread, and a nested span
belongs to its parent's request.  A span that opens a thread's stack names
its request itself: the load loop passes one, and the server-side entry
points derive it from the call's arguments, so spans recorded in another
process can be matched to the client request that caused them.  Spans stay
in memory until :meth:`Tracer.dump` writes them out as JSON.

Where the program binds a callable by name (``from .batch import
execute_batch``), the wrapper is installed at that binding, not at the
defining module, because the caller never looks the name up again.

Timestamps come from ``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC``
on Linux and therefore comparable between the benchmark and its child
server process.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "Tracer",
    "core_targets",
    "router_targets",
    "cluster_targets",
    "self_times",
    "per_request_self",
    "uncovered_ratio",
]

# Span record layout.
ID, PARENT, REQUEST, NAME, START, END, COUNTS = range(7)


def _query_key(args, kwargs):
    """Request id of a ``query(self, vector, lo, hi, k)`` call."""
    lo = kwargs.get("lo", args[2] if len(args) > 2 else None)
    hi = kwargs.get("hi", args[3] if len(args) > 3 else None)
    return ("q", float(lo), float(hi))


def _write_key(op):
    def key(args, kwargs):
        return (op, int(kwargs.get("oid", args[1])))

    return key


def _result_counts(result):
    """Work counters of a returned ``QueryResult`` (None for other values)."""
    stats = getattr(result, "stats", None)
    ids = getattr(result, "ids", None)
    if stats is None or ids is None or not hasattr(stats, "num_candidates"):
        return None
    return {
        "candidates": stats.num_candidates,
        "results": len(ids),
        "cover_nodes": stats.cover_nodes,
        "candidate_clusters": stats.num_candidate_clusters,
    }


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None) -> list:
        """Open a span on this thread (child of the innermost open one).

        A nested span always belongs to its parent's request; ``request``
        names the request only for a span that opens a thread's stack.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            request = parent[REQUEST]
        record = [
            next(self._ids),
            parent[ID] if parent is not None else None,
            request,
            name,
            time.perf_counter_ns(),
            None,
            None,
        ]
        stack.append(record)
        return record

    def end(self, record: list, counts=None) -> None:
        """Close ``record`` (the innermost open span) and keep it."""
        record[END] = time.perf_counter_ns()
        record[COUNTS] = counts
        self._stack().pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str, request=None):
        """Context manager form of :meth:`begin` / :meth:`end`."""
        record = self.begin(name, request)
        try:
            yield record
        finally:
            self.end(record)

    def add(self, name, request, start_ns, end_ns, parent=None) -> list:
        """Record a span measured elsewhere (e.g. by an asyncio client)."""
        record = [next(self._ids), parent, request, name, start_ns, end_ns, None]
        self.spans.append(record)
        return record

    # -- wrappers ------------------------------------------------------
    def wrap(self, fn, name: str, key=None):
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.begin(name, key(args, kwargs) if key else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(record, _result_counts(result))

        return wrapper

    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, span name[, key])`` target."""
        for target in targets:
            owner, attribute, name = target[:3]
            key = target[3] if len(target) > 3 else None
            original = owner.__dict__[attribute] if isinstance(owner, type) else (
                getattr(owner, attribute)
            )
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, key))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        """Write the recorded spans as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "request", "name", "start_ns",
                               "end_ns", "counts"],
                    "spans": self.spans,
                },
                handle,
            )


# ----------------------------------------------------------------------
# Targets: the public callables each layer is measured at.
# ----------------------------------------------------------------------
def core_targets() -> list[tuple]:
    """Kernels, IVF, core index and single-shard service entry points."""
    from repro import kernels
    from repro.core import RangePQ, RangePQPlus
    from repro.ivf import IVFPQIndex
    from repro.service import engine
    from repro.service.engine import IndexService
    from repro.service.wal import WriteAheadLog

    targets = [
        (kernels, "drain_chunks", "kernels.fetch"),
        (kernels, "drain", "kernels.fetch"),
        (kernels, "topk_order", "kernels.topk"),
        (IVFPQIndex, "adc_for_ids", "ivf.adc"),
        (IVFPQIndex, "distance_table", "ivf.table"),
        (IVFPQIndex, "distance_tables", "ivf.table"),
        (IVFPQIndex, "center_distances", "ivf.rank"),
        (IVFPQIndex, "center_distances_batch", "ivf.rank"),
        # service/engine.py binds execute_batch by name.
        (engine, "execute_batch", "core.execute"),
        (IndexService, "query", "service.read", _query_key),
        (IndexService, "insert", "service.write", _write_key("i")),
        (IndexService, "delete", "service.write", _write_key("d")),
        (WriteAheadLog, "append_insert", "service.wal_append"),
        (WriteAheadLog, "append_delete", "service.wal_append"),
    ]
    for cls in (RangePQ, RangePQPlus):
        targets += [
            (cls, "plan_query", "core.plan"),
            (cls, "insert", "core.insert"),
            (cls, "delete", "core.delete"),
        ]
    return targets


def router_targets() -> list[tuple]:
    """The attribute-range router's entry points (server-side roots)."""
    from repro.service.router import RangeShardedService

    return [
        (RangeShardedService, "query", "router.query", _query_key),
        (RangeShardedService, "insert", "router.write", _write_key("i")),
        (RangeShardedService, "delete", "router.write", _write_key("d")),
    ]


def cluster_targets() -> list[tuple]:
    """The cluster coordinator's entry points and its merge."""
    from repro.cluster import coordinator
    from repro.cluster.coordinator import ClusterCoordinator

    return [
        (ClusterCoordinator, "query", "cluster.query"),
        (ClusterCoordinator, "insert", "cluster.write"),
        (ClusterCoordinator, "delete", "cluster.write"),
        # cluster/coordinator.py binds merge_topk by name.
        (coordinator, "merge_topk", "cluster.merge"),
    ]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> dict[int, int]:
    """Span id → self time in ns: duration minus what its children cover."""
    children: dict[int, list] = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    return {
        record[ID]: (record[END] - record[START])
        - _covered_ns(record[START], record[END], children.get(record[ID], ()))
        for record in spans
    }


def per_request_self(spans, selfs=None) -> dict[str, list[float]]:
    """Span name → per-request self time in ms (summed over a request's
    calls of that name), one entry per request that made such a call."""
    if selfs is None:
        selfs = self_times(spans)
    totals: dict[tuple, float] = defaultdict(float)
    for record in spans:
        if record[REQUEST] is None:
            continue
        totals[(record[NAME], _hashable(record[REQUEST]))] += (
            selfs[record[ID]] / 1e6
        )
    by_name: dict[str, list[float]] = defaultdict(list)
    for (name, _), value in totals.items():
        by_name[name].append(value)
    return by_name


def uncovered_ratio(spans, root_prefix: str = "client.", selfs=None) -> float:
    """Share of root (client) wall time that no child span covers."""
    if selfs is None:
        selfs = self_times(spans)
    wall = uncovered = 0
    for record in spans:
        if record[NAME].startswith(root_prefix):
            wall += record[END] - record[START]
            uncovered += selfs[record[ID]]
    return uncovered / wall if wall else 0.0


def _hashable(request):
    return tuple(request) if isinstance(request, list) else request
