"""recent-churn: traffic over a sliding time window, through the frontend,
a 2-shard router, the WAL and the maintenance daemon.

Attributes are arrival timestamps and the window holds ``n`` live objects.
Two clients, one per connection, send a request a think time after their
previous reply; the think times are the gaps of a Poisson stream at one
fixed offered rate.  About 30% of requests are slides of the window (insert
a fresh object at the head, then delete the oldest); the rest are narrow
reads (0.1-2% coverage) biased toward the recent end, whose query vectors
are drawn Zipf-skewed from a small pool, so the ADC-table cache hits.  The
first client carries the slides, in order, as an ordered ingest stream
would; this also keeps the server's write order equal to the oracle's.
Every request is timed from when it is sent.

An open loop timed from the schedule was tried first: on a 2-core host
whose speed drifts, it turned every slow spell into a queue, and run-to-run
spread stayed above 0.3 (see README).

Each server's traffic opens with an unmeasured warm-up.  It fills the caches
and the frontend's execution-latency histogram, whose p99 sets the adaptive
batching window.  The clients and the server are pinned to different cores
so that neither takes cycles from the other.
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    CORPUS_SEED,
    DIM,
    K,
    NUM_CODEWORDS,
    NUM_SUBSPACES,
    OUT,
    BenchError,
    Gate,
    HostSpeed,
    LiveSet,
    Outcome,
    dump_trace,
    log,
    log_uniform,
    percentile,
    rss_mb,
    split_cores,
)
from metrics import (
    counter_metrics,
    end_to_end,
    median_of,
    per_layer,
    span_metrics,
)
from spans import END, ID, NAME, PARENT, REQUEST, START, Tracer

#: Offered load in requests per second (sum of both clients' think-time
#: streams).  Fixed once, at about half of what the seed commit sustains on
#: a 2-core host; never re-tuned per change.
RATE = 100.0
PROFILES = {
    "full": dict(n=20_000, rate=RATE, warmup_s=4.0, pool=200, fresh=8_000,
                 probes=200, servers=3),
    "smoke": dict(n=2_000, rate=500.0, warmup_s=0.5, pool=50, fresh=1_000,
                  probes=20, servers=1),
}
WRITE_SHARE = 0.3
COVERAGE = (0.001, 0.02)
#: Mean distance of a read's upper end from the head, as a share of the
#: window.
RECENT_MEAN = 0.1
ZIPF_S = 1.0
SERVER = Path(__file__).resolve().parent / "churn_server.py"


class Inputs:
    """The data and the request stream with its think times, from the seed."""

    def __init__(self, seed: int, profile: dict, seconds: float) -> None:
        from repro.datasets import sift_like

        n, pool = profile["n"], profile["pool"]
        data = sift_like(
            n=n, d=DIM, num_queries=pool + profile["fresh"], seed=CORPUS_SEED
        )
        self.n = n
        self.vectors = data.vectors
        self.attrs = np.arange(n, dtype=np.float64)
        self.pool = data.queries[:pool]
        self.fresh = data.queries[pool:]
        self.warmup_s = profile["warmup_s"]
        ranks = np.arange(1, pool + 1, dtype=np.float64)
        zipf = ranks ** -ZIPF_S
        zipf /= zipf.sum()
        rng = np.random.default_rng([seed, 2])

        horizon = self.warmup_s + seconds
        self.ops: list[tuple] = []  # (t, "read", vector, lo, hi) | (t, "slide", s)
        t = rng.exponential(1.0 / profile["rate"])
        slides = 0
        while t < horizon:
            if rng.random() < WRITE_SHARE:
                self.ops.append((t, "slide", slides))
                slides += 1
            else:
                vector, lo, hi = self._read(rng, zipf, n + slides)
                self.ops.append((t, "read", vector, lo, hi))
            t += rng.exponential(1.0 / profile["rate"])
        self.slides = slides
        self.zipf = zipf
        self.num_probes = profile["probes"]

    def probes(self, head: int) -> list[tuple]:
        """The probe set, placed below the window's final ``head``; the same
        for every seed."""
        rng = np.random.default_rng([CORPUS_SEED, 3])
        return [self._read(rng, self.zipf, head) for _ in range(self.num_probes)]

    def _read(self, rng, zipf, head: int) -> tuple:
        span = log_uniform(rng, *COVERAGE) * self.n
        offset = min(rng.exponential(RECENT_MEAN * self.n), self.n - span)
        hi = head - offset
        return self.pool[rng.choice(len(zipf), p=zipf)], hi - span, hi

    def slide(self, number: int) -> tuple[int, np.ndarray, float, int]:
        """Slide ``number``: (new oid, its vector, its timestamp, oldest oid)."""
        oid = self.n + number
        return oid, self.fresh[number % len(self.fresh)], float(oid), number


def _factory(ids, vectors, attrs):
    from repro.core import RangePQPlus

    return RangePQPlus.build(
        vectors, attrs, ids=ids, num_subspaces=NUM_SUBSPACES,
        num_codewords=NUM_CODEWORDS, seed=CORPUS_SEED,
    )


class Server:
    """The child server process and its command channel."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.spans_path = directory / "spans.json"
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER), "--dir", str(directory),
             "--spans", str(self.spans_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline().split()
        if line[:1] != ["READY"]:
            self.close()
            raise BenchError(f"server failed to start: {line}")
        self.port = int(line[1])

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line.startswith("COUNTERS "):
            raise BenchError(f"server answered {line!r} to {text!r}")
        return json.loads(line[len("COUNTERS "):])

    def stop(self) -> list:
        """Stop the server; returns the spans it recorded."""
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        self.close()
        if line.strip() != "BYE":
            raise BenchError(f"server did not stop cleanly: {line!r}")
        return json.loads(self.spans_path.read_text())["spans"]

    def close(self) -> None:
        """Make sure the process has ended."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except (subprocess.TimeoutExpired, OSError):
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


async def setup(seed: int, profile: dict, seconds: float, number: int):
    """Generate the data, build and seed the shards, start the server and
    connect two clients."""
    from repro.frontend.client import FrontendClient
    from repro.service.router import RangeShardedService

    inputs = Inputs(seed, profile, seconds)
    directory = OUT / f"churn-{seed}-{number}"
    shutil.rmtree(directory, ignore_errors=True)
    built = RangeShardedService.build(
        np.arange(inputs.n), inputs.vectors, inputs.attrs,
        num_shards=2, index_factory=_factory, wal_dir=directory,
    )
    built.close()
    (directory / "layout.json").write_text(json.dumps({
        "num_shards": built.num_shards, "boundaries": built.boundaries,
    }))
    server = Server(directory)
    try:
        conns = [
            await FrontendClient.connect("127.0.0.1", server.port)
            for _ in range(2)
        ]
    except OSError:
        server.close()
        raise
    return inputs, built, server, conns


async def teardown(server: Server, conns) -> list:
    for conn in conns:
        await conn.close()
    spans = server.stop()
    shutil.rmtree(server.directory, ignore_errors=True)
    return spans


class Load:
    """The two clients and what they measured.

    Each client sends its next request a think time after its previous
    reply; the think times are the gaps of a Poisson arrival stream at the
    offered rate.  The first client carries the ordered slides and half of
    the reads, the second the other reads.
    """

    def __init__(self, inputs: Inputs, conns, gate: Gate, traced: bool) -> None:
        self.inputs = inputs
        self.conns = conns
        self.gate = gate
        self.traced = traced
        self.tracer = Tracer()  # client spans only: the wall of each request
        self.host = HostSpeed()
        self.samples = {
            phase: {"query": [], "insert": [], "delete": [], "late": []}
            for phase in ("a", "b")
        }
        self.applied: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.in_flight = 0
        self.counters: list[dict] = []

    async def run(self, server: Server, seconds: float) -> None:
        loop = asyncio.get_running_loop()
        self.start = time.perf_counter()
        self.seconds = seconds
        self.end = self.start + self.inputs.warmup_s + seconds
        ops = self.inputs.ops
        clients = [
            self._client(self.conns[0], [
                op for number, op in enumerate(ops)
                if op[1] == "slide" or number % 2 == 0
            ]),
            self._client(self.conns[1], [
                op for number, op in enumerate(ops)
                if op[1] == "read" and number % 2 == 1
            ]),
        ]
        if self.traced:
            clients.append(self._toggle(server))
        await asyncio.gather(*clients)
        if self.traced:
            self.counters.append(
                await loop.run_in_executor(None, server.command, "trace 0")
            )

    def _phase(self):
        t = time.perf_counter() - self.start - self.inputs.warmup_s
        if t < 0:
            return None
        if self.traced and t >= self.seconds / 2:
            return "b"
        return "a"

    async def _toggle(self, server: Server) -> None:
        """Install the server's wrappers halfway through the timed phase."""
        half = self.start + self.inputs.warmup_s + self.seconds / 2
        await asyncio.sleep(half - time.perf_counter())
        self.counters.append(await asyncio.get_running_loop().run_in_executor(
            None, server.command, "trace 1"
        ))

    async def _client(self, conn, ops) -> None:
        previous = 0.0
        for op in ops:
            think = op[0] - previous
            previous = op[0]
            if not self.in_flight:
                # Both clients are thinking, so timing the yardstick delays
                # no request.
                self.host.sample()
            wake = time.perf_counter() + think
            await asyncio.sleep(wake - time.perf_counter())
            if time.perf_counter() >= self.end:
                return
            phase = self._phase()
            if phase is not None:
                self.samples[phase]["late"].append(
                    (time.perf_counter() - wake) * 1e3
                )
            if op[1] == "read":
                _, _, vector, lo, hi = op
                calls = [("query", lambda: conn.query(vector, lo, hi, K),
                          ("q", lo, hi))]
            else:
                oid, vector, attr, oldest = self.inputs.slide(op[2])
                calls = [
                    ("insert", lambda: conn.insert(oid, vector, attr), ("i", oid)),
                    ("delete", lambda: conn.delete(oldest), ("d", oldest)),
                ]
            for kind, call, request in calls:
                if await self._request(kind, call, request, phase) and (
                    kind != "query"
                ):
                    self.applied.append(
                        ("insert", oid, vector, attr) if kind == "insert"
                        else ("delete", oldest)
                    )

    async def _request(self, kind, call, request, phase) -> bool:
        sent = time.perf_counter_ns()
        self.attempted += phase is not None
        self.in_flight += 1
        try:
            reply = await call()
        except Exception as error:  # noqa: BLE001 - counted as failed
            self.failed += phase is not None
            log(f"{kind} failed: {error!r}")
            return False
        finally:
            self.in_flight -= 1
        done = time.perf_counter_ns()
        if kind == "query":
            self.gate.reply(reply["ids"], reply["distances"], *request[1:])
        if phase is not None:
            self.samples[phase][kind].append((done - sent) / 1e6)
        if phase == "b":
            self.tracer.add(f"client.{kind}", request, sent, done)
        return True


def _graft(client_spans: list, server_spans: list) -> list:
    """One span list: each server root span becomes a child of the client
    span of the same request (ids of the server spans are offset)."""
    offset = 1 + max((s[ID] for s in client_spans), default=0)
    client_of = {s[REQUEST]: s[ID] for s in client_spans}
    merged = list(client_spans)
    for span in server_spans:
        span = list(span)
        span[ID] += offset
        request = tuple(span[REQUEST]) if span[REQUEST] is not None else None
        span[REQUEST] = request
        if span[PARENT] is not None:
            span[PARENT] += offset
        elif request in client_of:
            span[PARENT] = client_of[request]
        merged.append(span)
    return merged


def _frontend_self(client_spans: list, server_spans: list) -> float:
    """Median client wall minus the matched server-side span, over reads."""
    server = {
        tuple(s[REQUEST]): s[END] - s[START]
        for s in server_spans
        if s[PARENT] is None and s[NAME] == "router.query"
    }
    gaps = [
        (s[END] - s[START] - server[s[REQUEST]]) / 1e6
        for s in client_spans
        if s[NAME] == "client.query" and s[REQUEST] in server
    ]
    return float(np.median(gaps)) if gaps else 0.0


def _layer_values(load: Load, server_spans: list, oracle) -> dict:
    before, after = load.counters
    client = load.tracer.spans
    values = span_metrics(_graft(client, server_spans))
    values.update(counter_metrics(before, after))
    shards = [
        oracle.shard_for_attr(s[REQUEST][2]) - oracle.shard_for_attr(s[REQUEST][1]) + 1
        for s in client if s[NAME] == "client.query"
    ]
    b, a = load.samples["b"], load.samples["a"]
    values.update({
        "router.shards_per_query": float(np.mean(shards)) if shards else 0.0,
        "frontend.self_ms": _frontend_self(client, server_spans),
        # Over both halves: the generator's lateness does not depend on
        # tracing, and one half alone can fall short of p99's sample need.
        "loadgen.late_p99_ms": percentile(a["late"] + b["late"], 99),
        "trace.overhead_ratio":
            percentile(b["query"], 50) / percentile(a["query"], 50),
    })
    return values


def run(seed: int, seconds: float, traced: bool, profile_name: str = "full") -> Outcome:
    return asyncio.run(_run(seed, seconds, traced, PROFILES[profile_name]))


class Session:
    """One server's life: set up, warm up, timed phase, correctness gate."""

    async def start(self, seed: int, profile: dict, seconds: float,
                    number: int, traced: bool) -> "Session":
        from repro.service.engine import IndexService
        from repro.service.router import RangeShardedService

        started = time.perf_counter()
        inputs, built, server, conns = await setup(seed, profile, seconds, number)
        self.setup_s = time.perf_counter() - started
        try:
            self.rss = rss_mb(server.process.pid)
            live = LiveSet(np.arange(inputs.n), inputs.vectors, inputs.attrs)
            for slide in range(inputs.slides):
                oid, _, attr, _ = inputs.slide(slide)
                live.attr_of[oid] = attr
            self.gate = Gate(live.attr_of)
            self.load = Load(inputs, conns, self.gate, traced)
            with split_cores(server.process.pid):
                await self.load.run(server, seconds)

            # The oracle: the same shards in process, fed the same writes.
            self.oracle = RangeShardedService(
                [IndexService(shard.index) for shard in built.shards],
                built.boundaries,
            )
            for op in self.load.applied:
                if op[0] == "insert":
                    self.oracle.insert(*op[1:])
                    live.insert(*op[1:])
                else:
                    self.oracle.delete(op[1])
                    live.delete(op[1])
            head = inputs.n + sum(op[0] == "insert" for op in self.load.applied)
            self.probes = inputs.probes(head)
            answers = []
            for vector, lo, hi in self.probes:
                reply = await conns[0].query(vector, lo, hi, K)
                self.gate.reply(reply["ids"], reply["distances"], lo, hi)
                self.gate.probe(reply["ids"], reply["distances"],
                                self.oracle.query(vector, lo, hi, K))
                answers.append(reply["ids"])
        finally:
            self.server_spans = await teardown(server, conns)
        self.recall = live.recall(self.probes, answers)
        self.inputs = inputs
        return self


async def _run(seed: int, seconds: float, traced: bool, profile: dict) -> Outcome:
    if traced:
        session = await Session().start(seed, profile, seconds, 0, True)
        load = session.load
        detail = {
            "offered_rate": profile["rate"],
            "samples": {
                phase: {op: len(load.samples[phase][op])
                        for op in ("query", "insert", "delete")}
                for phase in ("a", "b")
            },
            "trace_file": dump_trace(
                "recent-churn", _graft(load.tracer.spans, session.server_spans)
            ),
            "gate": session.gate.summary(),
        }
        values = _layer_values(load, session.server_spans, session.oracle)
        return Outcome(session.gate.ok, load.attempted, load.failed,
                       per_layer(values), detail)

    # Untimed runs split the timed phase over several servers, one after
    # another, and report each metric's median over them: a server can
    # settle into a slow batching state for its whole life (see README),
    # and one such server out of three does not move the median.
    sessions = []
    for number in range(profile["servers"]):
        gc.collect()
        sessions.append(await Session().start(
            seed, profile, seconds / profile["servers"], number, False
        ))
    scaled, raws = [], []
    for session in sessions:
        load, measured = session.load, session.load.samples["a"]
        metrics, raw = end_to_end(
            measured, load.host, setup_s=session.setup_s,
            qps=len(measured["query"]) / (seconds / profile["servers"]),
            qps_is_speed=False, recall=session.recall, rss=session.rss,
            served=(load.attempted - load.failed) / load.attempted,
        )
        scaled.append({name: metric["value"] for name, metric in metrics.items()})
        raws.append(raw)
    attempted = sum(s.load.attempted for s in sessions)
    failed = sum(s.load.failed for s in sessions)
    detail = {
        "offered_rate": profile["rate"],
        "samples": [
            {op: len(s.load.samples["a"][op])
             for op in ("query", "insert", "delete")}
            for s in sessions
        ],
        "recall_probes": profile["probes"],
        "late_p99_ms": percentile(
            [x for s in sessions for x in s.load.samples["a"]["late"]], 99
        ),
        "raw": raws,
        "gate": {
            key: sum((s.gate.summary()[key] for s in sessions), start)
            for key, start in (("replies", 0), ("probes", 0), ("problems", []))
        },
    }
    return Outcome(all(s.gate.ok for s in sessions), attempted, failed,
                   median_of(scaled), detail)
