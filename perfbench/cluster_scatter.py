"""cluster-scatter: one closed-loop ClusterCoordinator client over a
2-shard x 1-replica RangePQ cluster.

90% of operations are reads with coverage log-uniform in [5%, 50%], placed
so that most ranges cross the shard boundary; the coordinator scatters them
serially over TCP to the replicas and merges.  10% are writes through the
primaries and WAL shipping: inserts of fresh objects and deletes of the
client's own earlier inserts.  RangePQ is the index class the cluster,
parallel and control gates build, so this workload also covers RangePQ's
per-object fetch.

Node processes cannot be traced from outside, so the traced run also
replays its read stream on the in-process oracle (the same shards, fed the
same writes) and reports the core, kernel, IVF and service layers from
that replay.
"""

from __future__ import annotations

import gc
import multiprocessing
import shutil
import time

import numpy as np

from common import (
    CORPUS_SEED,
    DIM,
    K,
    NUM_CODEWORDS,
    NUM_SUBSPACES,
    OUT,
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
from spans import ID, PARENT, Tracer, cluster_targets, core_targets, router_targets

PROFILES = {
    "full": dict(n=20_000, pool=12_000, warmup=150, probes=100, inserts=2_000,
                 setups=3),
    "smoke": dict(n=2_000, pool=2_000, warmup=10, probes=20, inserts=300,
                  setups=1),
}
WRITE_SHARE = 0.1
COVERAGE = (0.05, 0.50)
#: Share of reads placed so their range crosses the shard boundary.
CROSS_SHARE = 0.8


class Inputs:
    """The corpus and the whole operation stream, from the seed.

    The probe set is the same for every seed; the operation stream is drawn
    from ``seed``.
    """

    def __init__(self, seed: int, profile: dict) -> None:
        from repro.datasets import sift_like
        from repro.service.router import quantile_boundaries

        n = profile["n"]
        data = sift_like(n=n, d=DIM, num_queries=profile["pool"], seed=CORPUS_SEED)
        self.n = n
        self.vectors, self.attrs = data.vectors, data.attrs
        ordered = np.sort(self.attrs)
        boundary = quantile_boundaries(self.attrs, 2)[0]
        self.cut = int(np.searchsorted(ordered, boundary))
        probes, warmup, inserts = (
            profile["probes"], profile["warmup"], profile["inserts"]
        )
        pool = data.queries
        self.probes = self._reads(
            pool[:probes], ordered, np.random.default_rng([CORPUS_SEED, 4])
        )
        rng = np.random.default_rng([seed, 4])
        pool = pool[probes:][rng.permutation(len(pool) - probes)]
        self.warmup = self._reads(pool[:warmup], ordered, rng)
        self.insert_vectors = pool[warmup:warmup + inserts]
        self.insert_attrs = rng.integers(1, 10**4 + 1, size=inserts).astype(float)
        reads = self._reads(pool[warmup + inserts:], ordered, rng)

        # The operation stream; a write deletes one of the client's own
        # live inserts half of the time (when it has one).
        self.ops: list[tuple] = []
        own: list[int] = []
        inserted = 0
        while inserted < inserts:
            if rng.random() >= WRITE_SHARE:
                self.ops.append(("read", *reads[len(self.ops) % len(reads)]))
            elif own and rng.random() < 0.5:
                oid = own.pop(int(rng.integers(len(own))))
                self.ops.append(("delete", oid))
            else:
                oid = n + inserted
                own.append(oid)
                self.ops.append(("insert", oid, self.insert_vectors[inserted],
                                 self.insert_attrs[inserted]))
                inserted += 1

    def _reads(self, vectors, ordered, rng) -> list[tuple]:
        n = len(ordered)
        out = []
        for vector, coverage in zip(
            vectors, log_uniform(rng, *COVERAGE, size=len(vectors))
        ):
            span = max(2, int(round(coverage * n)))
            if rng.random() < CROSS_SHARE:
                first = max(0, self.cut - span + 1)
                start = int(rng.integers(first, min(self.cut, n - span) + 1))
            else:
                start = int(rng.integers(0, n - span + 1))
            out.append((vector, float(ordered[start]),
                        float(ordered[start + span - 1])))
        return out


def _factory(ids, vectors, attrs):
    from repro.core import RangePQ

    return RangePQ.build(
        vectors, attrs, ids=ids, num_subspaces=NUM_SUBSPACES,
        num_codewords=NUM_CODEWORDS, seed=CORPUS_SEED,
    )


def setup(seed: int, profile: dict, number: int):
    """Generate the data, seed the shards, start the nodes and connect."""
    from repro.cluster import ClusterCoordinator, ClusterSupervisor, seed_shards

    inputs = Inputs(seed, profile)
    directory = OUT / f"cluster-{seed}-{number}"
    shutil.rmtree(directory, ignore_errors=True)
    seed_shards(directory, np.arange(inputs.n), inputs.vectors, inputs.attrs,
                num_shards=2, index_factory=_factory)
    supervisor = ClusterSupervisor(directory, replicas=1)
    supervisor.start()
    try:
        coordinator = ClusterCoordinator(supervisor)
    except BaseException:
        supervisor.stop()
        raise
    return inputs, supervisor, coordinator, directory


def teardown(supervisor, coordinator, directory) -> None:
    coordinator.close()
    supervisor.stop()
    shutil.rmtree(directory, ignore_errors=True)


def load_oracle(directory, boundaries):
    """The in-process twin of the cluster, loaded from the seeded shards."""
    from repro.service.engine import IndexService
    from repro.service.router import RangeShardedService
    from repro.service.wal import recover_index

    return RangeShardedService(
        [
            IndexService(recover_index(directory / f"shard-{number}")[0])
            for number in range(len(boundaries) + 1)
        ],
        boundaries,
    )


def _wal_bytes(directory, shards: int) -> int:
    from repro.service.wal import WAL_NAME

    return sum(
        (directory / f"shard-{number}" / WAL_NAME).stat().st_size
        for number in range(shards)
    )


class Loop:
    """The closed-loop coordinator client and what it measured."""

    def __init__(self, inputs: Inputs, coordinator, live: LiveSet, gate: Gate):
        self.inputs = inputs
        self.coordinator = coordinator
        self.live = live
        self.gate = gate
        self.host = HostSpeed()
        self.cursor = 0
        self.applied: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    def phase(self, seconds: float, tracer: Tracer | None) -> dict:
        samples = {"query": [], "insert": [], "delete": [], "reads": []}
        started = time.perf_counter()
        yardstick = self.host.spent_s
        until = started + seconds
        ops = self.inputs.ops
        while time.perf_counter() < until and self.cursor < len(ops):
            op = ops[self.cursor]
            self.cursor += 1
            self._op(op, samples, tracer)
            self.host.sample()
        elapsed = time.perf_counter() - started - (self.host.spent_s - yardstick)
        samples["qps"] = len(samples["query"]) / elapsed
        return samples

    def _op(self, op, samples, tracer) -> None:
        kind = op[0]
        if kind == "read":
            _, vector, lo, hi = op
            request = ("q", lo, hi, self.cursor)
            call = lambda: self.coordinator.query(vector, lo, hi, K)  # noqa: E731
        elif kind == "insert":
            _, oid, vector, attr = op
            request = ("i", oid)
            call = lambda: self.coordinator.insert(oid, vector, attr)  # noqa: E731
        else:
            request = ("d", op[1])
            call = lambda: self.coordinator.delete(op[1])  # noqa: E731
        self.attempted += 1
        record = tracer.begin(f"client.{kind}", request) if tracer else None
        started = time.perf_counter_ns()
        try:
            result = call()
        except Exception as error:  # noqa: BLE001 - counted as failed
            self.failed += 1
            log(f"{kind} failed: {error!r}")
            return
        finally:
            if record is not None:
                tracer.end(record)
        ms = (time.perf_counter_ns() - started) / 1e6
        samples["query" if kind == "read" else kind].append(ms)
        if kind == "read":
            self.gate.reply(result.ids, result.distances, lo, hi)
            samples["reads"].append(op)
        elif kind == "insert":
            self.live.insert(oid, vector, attr)
            self.applied.append(op)
        else:
            self.live.delete(op[1])
            self.applied.append(op)


def _apply(oracle, ops) -> None:
    for op in ops:
        if op[0] == "insert":
            oracle.insert(*op[1:])
        else:
            oracle.delete(op[1])


def run(seed: int, seconds: float, traced: bool, profile_name: str = "full") -> Outcome:
    profile = PROFILES[profile_name]
    started = time.perf_counter()
    inputs, supervisor, coordinator, directory = setup(seed, profile, 0)
    setup_times = [time.perf_counter() - started]
    try:
        rss = sum(rss_mb(child.pid) for child in multiprocessing.active_children())
        oracle = load_oracle(directory, supervisor.boundaries)
        live = LiveSet(np.arange(inputs.n), inputs.vectors, inputs.attrs)
        for oid, attr in zip(range(inputs.n, inputs.n + len(inputs.insert_attrs)),
                             inputs.insert_attrs):
            live.attr_of[oid] = float(attr)
        gate = Gate(live.attr_of)
        loop = Loop(inputs, coordinator, live, gate)
        for vector, lo, hi in inputs.warmup:
            result = coordinator.query(vector, lo, hi, K)
            gate.reply(result.ids, result.distances, lo, hi)

        values: dict = {}
        if traced:
            plain = loop.phase(seconds / 2, None)
            tracer = Tracer()
            wal_before = _wal_bytes(directory, oracle.num_shards)
            writes_before = len(loop.applied)
            tracer.install(cluster_targets())
            try:
                samples = loop.phase(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            writes = len(loop.applied) - writes_before
            values.update(span_metrics(tracer.spans, prefixes=("cluster.", "trace.")))
            values["service.wal_bytes_per_write"] = (
                (_wal_bytes(directory, oracle.num_shards) - wal_before) / writes
                if writes else 0.0
            )
            values["cluster.shards_per_query"] = float(np.mean([
                coordinator.shard_for_attr(hi) - coordinator.shard_for_attr(lo) + 1
                for _, _, lo, hi in samples["reads"]
            ]))
            values["trace.overhead_ratio"] = (
                percentile(samples["query"], 50) / percentile(plain["query"], 50)
            )
        else:
            samples = loop.phase(seconds, None)
        if loop.cursor >= len(inputs.ops):
            log("warning: the operation stream ran out before the time did")

        sync_started = time.perf_counter()
        coordinator.sync(timeout_s=60.0)
        values["cluster.sync_s"] = time.perf_counter() - sync_started

        if traced:
            # The replay: the oracle applies the writes and answers the
            # traced phase's reads with the core layers instrumented.
            replay = Tracer()
            before = shard_counters(oracle.shards)
            replay.install(core_targets() + router_targets())
            try:
                _apply(oracle, loop.applied)
                for _, vector, lo, hi in samples["reads"]:
                    oracle.query(vector, lo, hi, K)
            finally:
                replay.uninstall()
            values.update(span_metrics(
                replay.spans, prefixes=("kernels.", "ivf.", "core.", "service.")
            ))
            values.update(counter_metrics(before, shard_counters(oracle.shards)))
        else:
            _apply(oracle, loop.applied)

        answers = []
        for vector, lo, hi in inputs.probes:
            result = coordinator.query(vector, lo, hi, K)
            gate.reply(result.ids, result.distances, lo, hi)
            gate.probe(result.ids, result.distances, oracle.query(vector, lo, hi, K))
            answers.append(result.ids)
    finally:
        teardown(supervisor, coordinator, directory)
    recall = live.recall(inputs.probes, answers)

    attempted, failed = loop.attempted, loop.failed
    counts = {op: len(samples[op]) for op in ("query", "insert", "delete")}
    detail = {"samples": counts, "recall_probes": len(inputs.probes),
              "sync_s": values["cluster.sync_s"]}
    if traced:
        detail["trace_file"] = dump_trace("cluster-scatter", _merged(tracer, replay))
        metrics = per_layer(values)
    else:
        host = loop.host
        del loop, oracle, live
        for number in range(1, profile["setups"]):
            gc.collect()
            again = time.perf_counter()
            extra = setup(seed, profile, number)
            setup_times.append(time.perf_counter() - again)
            teardown(*extra[1:])
        detail["setup_samples"] = setup_times
        metrics, detail["raw"] = end_to_end(
            samples, host, setup_s=float(np.median(setup_times)),
            qps=samples["qps"], qps_is_speed=True, recall=recall, rss=rss,
            served=(attempted - failed) / attempted,
        )
    detail["gate"] = gate.summary()
    return Outcome(gate.ok, attempted, failed, metrics, detail)


def _merged(live: Tracer, replay: Tracer) -> list:
    """Live and replay spans in one list (replay ids offset to stay unique)."""
    offset = 1 + max((s[ID] for s in live.spans), default=0)
    shifted = []
    for span in replay.spans:
        span = list(span)
        span[ID] += offset
        if span[PARENT] is not None:
            span[PARENT] += offset
        shifted.append(span)
    return live.spans + shifted
