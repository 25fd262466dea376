"""wide-read: one closed-loop client over one in-process RangePQ+ shard.

Coverage is log-uniform in [10%, 80%] and every query vector is distinct,
so the ADC-table cache misses and fetch dominates the query.  No frontend,
router, WAL or cluster code runs.  An update probe is spread evenly over
each timed phase, between reads: the paper's insert and delete cost at the
largest n any workload holds.  It inserts fresh objects and deletes random
ones among them once more than ``LAG`` are live, so the corpus the fixed
probe set measures recall on stays intact.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (
    CORPUS_SEED,
    DIM,
    K,
    NUM_CODEWORDS,
    NUM_SUBSPACES,
    Gate,
    HostSpeed,
    LiveSet,
    Outcome,
    dump_trace,
    log,
    log_uniform,
    percentile,
    rss_mb,
    shard_counters,
)
from metrics import counter_metrics, end_to_end, per_layer, span_metrics
from spans import Tracer, core_targets

PROFILES = {
    "full": dict(n=50_000, pool=24_000, warmup=200, probes=200, updates=2_000,
                 setups=3),
    "smoke": dict(n=2_000, pool=3_000, warmup=20, probes=20, updates=200,
                  setups=1),
}
COVERAGE = (0.10, 0.80)
#: Own inserts kept live before the update probe starts deleting them.
LAG = 100


class Inputs:
    """Everything the workload sends, derived from the seed alone.

    The probe set is the same for every seed, so recall compares like with
    like; the traffic (warm-up, reads, updates) is drawn from ``seed``.
    """

    def __init__(self, seed: int, profile: dict) -> None:
        from repro.datasets import sift_like

        n = profile["n"]
        self.data = sift_like(n=n, d=DIM, num_queries=profile["pool"], seed=CORPUS_SEED)
        ordered = np.sort(self.data.attrs)
        probes, warmup, inserts = (
            profile["probes"], profile["warmup"], profile["updates"]
        )
        pool = self.data.queries
        self.probes = self._reads(
            pool[:probes], ordered, np.random.default_rng([CORPUS_SEED, 1])
        )
        rng = np.random.default_rng([seed, 1])
        pool = pool[probes:][rng.permutation(len(pool) - probes)]
        self.warmup = self._reads(pool[:warmup], ordered, rng)
        self.insert_vectors = pool[warmup:warmup + inserts]
        self.insert_attrs = rng.integers(1, 10**4 + 1, size=inserts)
        self.delete_picks = rng.random(inserts)
        self.reads = self._reads(pool[warmup + inserts:], ordered, rng)

    @staticmethod
    def _reads(vectors, ordered, rng) -> list[tuple]:
        n = len(ordered)
        out = []
        for coverage in log_uniform(rng, *COVERAGE, size=len(vectors)):
            span = max(1, int(round(coverage * n)))
            start = int(rng.integers(0, n - span + 1))
            out.append((float(ordered[start]), float(ordered[start + span - 1])))
        return [(v, lo, hi) for v, (lo, hi) in zip(vectors, out)]


def setup(seed: int, profile: dict):
    """Generate the data, build the index and start the service."""
    from repro.core import RangePQPlus
    from repro.service.engine import IndexService

    inputs = Inputs(seed, profile)
    index = RangePQPlus.build(
        inputs.data.vectors,
        inputs.data.attrs,
        num_subspaces=NUM_SUBSPACES,
        num_codewords=NUM_CODEWORDS,
        seed=CORPUS_SEED,
    )
    return inputs, IndexService(index)


class Loop:
    """The closed-loop client and what it measured."""

    def __init__(self, inputs: Inputs, service, live: LiveSet, gate: Gate) -> None:
        self.inputs = inputs
        self.service = service
        self.live = live
        self.gate = gate
        self.host = HostSpeed()
        self.read_cursor = 0
        self.insert_cursor = 0
        self.own: list[int] = []
        self.attempted = 0
        self.failed = 0

    def phase(self, seconds: float, pairs: int, tracer: Tracer | None) -> dict:
        """Reads for ``seconds``, with about ``pairs`` insert/delete pairs
        falling due evenly between them; returns latency samples in ms.

        Spreading the updates over the phase exposes them to the same host
        conditions as the reads instead of one short burst."""
        samples = {"query": [], "insert": [], "delete": []}
        started = time.perf_counter()
        yardstick = self.host.spent_s
        updating = 0.0
        done = 0
        while (now := time.perf_counter()) < started + seconds:
            if done < pairs * (now - started) / seconds:
                self._insert(samples["insert"], tracer)
                self._delete(samples["delete"], tracer)
                done += 1
                updating += time.perf_counter() - now
            else:
                self._read(samples["query"], tracer)
                self.host.sample()
        reading = (time.perf_counter() - started - updating
                   - (self.host.spent_s - yardstick))
        samples["qps"] = len(samples["query"]) / reading
        return samples

    def _timed(self, name, request, tracer, call):
        self.attempted += 1
        record = tracer.begin(name, request) if tracer else None
        started = time.perf_counter_ns()
        try:
            result = call()
        except Exception as error:  # noqa: BLE001 - counted as a failed request
            self.failed += 1
            log(f"{name} failed: {error!r}")
            return None, None
        finally:
            if record is not None:
                tracer.end(record)
        return result, (time.perf_counter_ns() - started) / 1e6

    def _read(self, out, tracer) -> None:
        reads = self.inputs.reads
        vector, lo, hi = reads[self.read_cursor % len(reads)]
        self.read_cursor += 1
        result, ms = self._timed(
            "client.query", self.read_cursor, tracer,
            lambda: self.service.query(vector, lo, hi, K),
        )
        if result is not None:
            out.append(ms)
            self.gate.reply(result.ids, result.distances, lo, hi)

    def _insert(self, out, tracer) -> None:
        inputs = self.inputs
        i = self.insert_cursor
        self.insert_cursor += 1
        oid, vector = len(inputs.data.vectors) + i, inputs.insert_vectors[i]
        attr = float(inputs.insert_attrs[i])
        _, ms = self._timed(
            "client.insert", ("i", oid), tracer,
            lambda: self.service.insert(oid, vector, attr),
        )
        if ms is not None:
            out.append(ms)
            self.live.insert(oid, vector, attr)
            self.own.append(oid)

    def _delete(self, out, tracer) -> None:
        if len(self.own) <= LAG:
            return
        pick = self.inputs.delete_picks[self.insert_cursor - 1]
        oid = self.own.pop(int(pick * len(self.own)))
        _, ms = self._timed(
            "client.delete", ("d", oid), tracer,
            lambda: self.service.delete(oid),
        )
        if ms is not None:
            out.append(ms)
            self.live.delete(oid)


def run(seed: int, seconds: float, traced: bool, profile_name: str = "full") -> Outcome:
    profile = PROFILES[profile_name]
    started = time.perf_counter()
    inputs, service = setup(seed, profile)
    setup_times = [time.perf_counter() - started]
    rss = rss_mb()
    data = inputs.data
    live = LiveSet(np.arange(len(data.vectors)), data.vectors, data.attrs)
    gate = Gate(live.attr_of)
    loop = Loop(inputs, service, live, gate)

    for vector, lo, hi in inputs.warmup:
        gate.reply(*_answer(service.query(vector, lo, hi, K)), lo, hi)

    detail: dict = {}
    if traced:
        pairs = profile["updates"] // 2
        plain = loop.phase(seconds / 2, pairs, None)
        tracer = Tracer()
        before = shard_counters([service])
        tracer.install(core_targets())
        try:
            samples = loop.phase(seconds / 2, pairs, tracer)
        finally:
            tracer.uninstall()
        values = span_metrics(tracer.spans)
        values.update(counter_metrics(before, shard_counters([service])))
        values.update({
            "trace.overhead_ratio":
                percentile(samples["query"], 50) / percentile(plain["query"], 50),
        })
        detail["spans"] = len(tracer.spans)
        detail["trace_file"] = dump_trace("wide-read", tracer.spans)
    else:
        samples = loop.phase(seconds, profile["updates"], None)

    # Correctness gate: the service must answer exactly like the index.
    answers = []
    for vector, lo, hi in inputs.probes:
        ids, distances = _answer(service.query(vector, lo, hi, K))
        gate.reply(ids, distances, lo, hi)
        gate.probe(ids, distances, service.index.query(vector, lo, hi, K))
        answers.append(ids)
    recall = live.recall(inputs.probes, answers)

    counts = {op: len(samples[op]) for op in ("query", "insert", "delete")}
    detail.update(samples=counts, recall_probes=len(inputs.probes))
    attempted, failed = loop.attempted, loop.failed
    if traced:
        metrics = per_layer(values)
    else:
        host = loop.host
        del loop, service, live
        for _ in range(profile["setups"] - 1):
            gc.collect()
            again = time.perf_counter()
            extra = setup(seed, profile)
            setup_times.append(time.perf_counter() - again)
            del extra
        detail["setup_samples"] = setup_times
        metrics, detail["raw"] = end_to_end(
            samples, host, setup_s=float(np.median(setup_times)),
            qps=samples["qps"], qps_is_speed=True, recall=recall, rss=rss,
            served=(attempted - failed) / attempted,
        )
    detail["gate"] = gate.summary()
    return Outcome(gate.ok, attempted, failed, metrics, detail)


def _answer(result):
    return result.ids, result.distances
