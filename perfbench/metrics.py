"""The benchmark's metric catalogue and the per-layer numbers a trace yields.

``END_TO_END`` and ``PER_LAYER`` are the names and units ``BENCHMARK.json``
declares (a test keeps them in step).  A per-layer ``_ms`` value is the
median over requests of the layer's self time within one request (summed
over its calls in that request: a query drains several clusters).  A layer
that does no work on a workload reports 0.
"""

from __future__ import annotations

from statistics import median

from common import MIN_TAIL, percentile
from spans import (
    COUNTS,
    NAME,
    REQUEST,
    START,
    per_request_self,
    self_times,
    uncovered_ratio,
)

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p75_ms": "ms",
    "query_qps": "1/s",
    "insert_p50_ms": "ms",
    "insert_p75_ms": "ms",
    "delete_p50_ms": "ms",
    "delete_p75_ms": "ms",
    "recall_at_10": "ratio",
    "rss_mb": "MiB",
    "served_ratio": "ratio",
}

PER_LAYER = {
    "kernels.fetch_ms": "ms",
    "kernels.topk_ms": "ms",
    "ivf.adc_ms": "ms",
    "ivf.table_ms": "ms",
    "ivf.rank_ms": "ms",
    "ivf.table_cache_hit_ratio": "ratio",
    "core.plan_ms": "ms",
    "core.candidates": "count",
    "core.candidates_per_result": "ratio",
    "core.cover_nodes": "count",
    "core.candidate_clusters": "count",
    "core.insert_ms": "ms",
    "core.delete_ms": "ms",
    "core.rebuilds": "count",
    "service.read_self_ms": "ms",
    "service.read_batch_size": "count",
    "service.write_self_ms": "ms",
    "service.wal_append_ms": "ms",
    "service.wal_bytes_per_write": "bytes",
    "router.self_ms": "ms",
    "router.shards_per_query": "count",
    "frontend.self_ms": "ms",
    "frontend.batch_size": "count",
    "frontend.shed": "count",
    "loadgen.late_p99_ms": "ms",
    "cluster.scatter_ms": "ms",
    "cluster.merge_ms": "ms",
    "cluster.shards_per_query": "count",
    "cluster.write_ack_ms": "ms",
    "cluster.sync_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ratio": "ratio",
}

#: Per-layer self-time metric → the span name its wrappers record.
SPAN_OF = {
    "kernels.fetch_ms": "kernels.fetch",
    "kernels.topk_ms": "kernels.topk",
    "ivf.adc_ms": "ivf.adc",
    "ivf.table_ms": "ivf.table",
    "ivf.rank_ms": "ivf.rank",
    "core.plan_ms": "core.plan",
    "core.insert_ms": "core.insert",
    "core.delete_ms": "core.delete",
    "service.read_self_ms": "service.read",
    "service.write_self_ms": "service.write",
    "service.wal_append_ms": "service.wal_append",
    "router.self_ms": "router.query",
    "cluster.scatter_ms": "cluster.query",
    "cluster.merge_ms": "cluster.merge",
    "cluster.write_ack_ms": "cluster.write",
}


def _median(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def span_metrics(spans, prefixes=None) -> dict:
    """Self-time and count metrics of one span set.

    Args:
        spans: Span records from :class:`spans.Tracer`.
        prefixes: When given, only metrics whose name starts with one of
            these are returned (a replay measures some layers only).
    """
    selfs = self_times(spans)
    by_name = per_request_self(spans, selfs)
    values = {
        metric: _median(by_name.get(span, ()))
        for metric, span in SPAN_OF.items()
    }
    values.update(query_counts(spans))
    values["trace.uncovered_ratio"] = uncovered_ratio(spans, selfs=selfs)
    if prefixes is not None:
        values = {
            name: value for name, value in values.items()
            if name.startswith(tuple(prefixes))
        }
    return values


def query_counts(spans) -> dict:
    """Median work counters of each request's outermost query span."""
    outermost: dict = {}
    for record in spans:
        if record[COUNTS] is None or record[NAME] not in _QUERY_ROOTS:
            continue
        key = repr(record[REQUEST])
        if key not in outermost or record[START] < outermost[key][START]:
            outermost[key] = record
    counted = [record[COUNTS] for record in outermost.values()]
    return {
        "core.candidates": _median(c["candidates"] for c in counted),
        "core.candidates_per_result": _median(
            c["candidates"] / c["results"] for c in counted if c["results"]
        ),
        "core.cover_nodes": _median(c["cover_nodes"] for c in counted),
        "core.candidate_clusters": _median(
            c["candidate_clusters"] for c in counted
        ),
    }


#: Spans whose returned QueryStats describe a whole request; a request
#: crossing the router is counted once, at the router.
_QUERY_ROOTS = frozenset({"router.query", "service.read"})


def counter_metrics(before: dict, after: dict) -> dict:
    """Per-layer ratios from two :func:`common.shard_counters` snapshots."""

    def delta(name):
        return after[name] - before[name]

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    values = {
        "ivf.table_cache_hit_ratio":
            ratio(delta("hits"), delta("hits") + delta("misses")),
        "core.rebuilds": delta("rebuilds"),
        "service.read_batch_size": ratio(delta("reads"), delta("read_batches")),
    }
    if "wal_bytes" in after:
        values["service.wal_bytes_per_write"] = ratio(
            delta("wal_bytes"), delta("writes")
        )
    if "batches" in after:
        values["frontend.batch_size"] = ratio(
            delta("batched_requests"), delta("batches")
        )
        values["frontend.shed"] = delta("shed")
    return values


def median_of(raws: list[dict]) -> dict:
    """Every end-to-end metric as its median over several raw figure sets."""
    return {
        name: {"value": float(median(raw[name] for raw in raws)), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(values: dict) -> dict:
    """Every per-layer metric with its unit (0 for a layer with no work)."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


#: End-to-end metrics that are times, scaled to the reference host speed.
SCALED_TIMES = ("setup_s", "query_p50_ms", "query_p75_ms", "insert_p50_ms",
                "insert_p75_ms", "delete_p50_ms", "delete_p75_ms")


def end_to_end(samples: dict, host, *, setup_s: float, qps: float,
               qps_is_speed: bool, recall: float, rss: float,
               served: float) -> tuple[dict, dict]:
    """Every end-to-end metric with its unit, plus the raw figures.

    Args:
        samples: Latency samples in ms under ``query``, ``insert`` and
            ``delete``.
        host: The run's :class:`common.HostSpeed`, or None to report raw
            figures.  Times are scaled by its factor, and so is ``qps`` when
            ``qps_is_speed`` (a closed loop; an open loop's throughput is its
            offered rate).

    Returns:
        ``(metrics, raw)``: the metrics to report and, for the provenance
        line, the unscaled figures with the host factor and read p90/p99.
    """
    raw = {
        "setup_s": setup_s,
        "query_p50_ms": percentile(samples["query"], 50),
        "query_p75_ms": percentile(samples["query"], 75),
        "query_qps": qps,
        "insert_p50_ms": percentile(samples["insert"], 50),
        "insert_p75_ms": percentile(samples["insert"], 75),
        "delete_p50_ms": percentile(samples["delete"], 50),
        "delete_p75_ms": percentile(samples["delete"], 75),
        "recall_at_10": recall,
        "rss_mb": rss,
        "served_ratio": served,
    }
    factor = host.factor() if host is not None else 1.0
    values = dict(raw)
    for name in SCALED_TIMES:
        values[name] = raw[name] * factor
    if qps_is_speed:
        values["query_qps"] = raw["query_qps"] / factor
    for q in (90, 99):
        if len(samples["query"]) * (100 - q) / 100 >= MIN_TAIL:
            raw[f"query_p{q}_ms"] = percentile(samples["query"], q)
    raw["host_factor"] = factor
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return metrics, raw
