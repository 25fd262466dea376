"""Shared pieces of the benchmark: percentiles, the correctness gate, the
live-set bookkeeping behind recall, process memory and provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for WAL directories and traces (ignored by git).
OUT = Path(__file__).resolve().parent / "out"

K = 10
#: Index build profile shared by every workload (d=32, M=8, Z=64,
#: default K = ceil(sqrt(n)) and the default AdaptiveLPolicy).
DIM = 32
NUM_SUBSPACES = 8
NUM_CODEWORDS = 64
#: Seed of the corpus and of the index build.  The corpus is fixed, like a
#: dataset file; ``--seed`` draws the traffic (queries, ranges, writes and
#: arrival times), so run-to-run spread measures the system and the traffic,
#: not how hard one random corpus happens to be.
CORPUS_SEED = 0
#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL = 10


#: The yardstick's time at the reference host speed.  The host's own speed
#: drifts by tens of percent from second to second and from run to run, so
#: end-to-end times are scaled to this speed (see :class:`HostSpeed`).
YARDSTICK_MS = 2.0


def _yardstick_ms() -> float:
    """Time of a fixed pure-Python loop, in ms."""
    started = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    return (time.perf_counter() - started) * 1e3


class HostSpeed:
    """Samples the yardstick between requests during the timed phase.

    A run's end-to-end times are multiplied by :meth:`factor`, so they read
    as milliseconds on a host where the yardstick takes ``YARDSTICK_MS``.
    The raw times are kept in the provenance line.
    """

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = 0.0

    def sample(self) -> None:
        """Time the yardstick if ``every_s`` has passed since the last time."""
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            self.samples.append(_yardstick_ms())
            self._last = time.perf_counter()
            self.spent_s += self._last - now

    def factor(self) -> float:
        return YARDSTICK_MS / float(np.median(self.samples))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (ms); raises when the run cannot support it."""
    samples = np.asarray(samples, dtype=np.float64)
    beyond = len(samples) * (100.0 - q) / 100.0
    if q > 50 and beyond < MIN_TAIL:
        raise BenchError(
            f"p{q:g} needs {MIN_TAIL} samples beyond it; the run has "
            f"{len(samples)} samples"
        )
    if not len(samples):
        raise BenchError("no samples")
    return float(np.percentile(samples, q))


class BenchError(RuntimeError):
    """The run cannot produce a valid result (never a program defect)."""


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
class Gate:
    """Checks every reply for well-formedness and probe answers bitwise.

    A well-formed reply has at most ``k`` distinct ids of known objects,
    distances sorted ascending, and every attribute inside ``[lo, hi]``.
    Replies are kept and checked at the end, so the checking takes no CPU
    from the system while it is being measured.
    """

    def __init__(self, attr_of: dict, k: int = K) -> None:
        self.attr_of = attr_of
        self.k = k
        self.pending: list[tuple] = []
        self.checked = 0
        self.probes = 0
        self.problems: list[str] = []

    def reply(self, ids, distances, lo: float, hi: float) -> None:
        """Keep one served reply for checking."""
        self.pending.append((ids, distances, lo, hi))

    @property
    def ok(self) -> bool:
        self._check_pending()
        return not self.problems

    def summary(self) -> dict:
        self._check_pending()
        return {"replies": self.checked, "probes": self.probes,
                "problems": self.problems}

    def _check_pending(self) -> None:
        pending, self.pending = self.pending, []
        for reply in pending:
            self._check(*reply)

    def _fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        else:
            self.problems[-1] = "... more problems omitted"

    def _check(self, ids, distances, lo: float, hi: float) -> None:
        self.checked += 1
        ids = np.asarray(ids, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        where = f"reply for [{lo}, {hi}]"
        if len(ids) > self.k or len(ids) != len(distances):
            self._fail(f"{where}: {len(ids)} ids, {len(distances)} distances")
            return
        if len(np.unique(ids)) != len(ids):
            self._fail(f"{where}: duplicate ids")
        if np.any(np.diff(distances) < 0):
            self._fail(f"{where}: distances not sorted")
        for oid in ids.tolist():
            attr = self.attr_of.get(oid)
            if attr is None:
                self._fail(f"{where}: unknown id {oid}")
            elif not lo <= attr <= hi:
                self._fail(f"{where}: id {oid} has attribute {attr}")

    def probe(self, got_ids, got_distances, want) -> None:
        """Compare a probe answer with the oracle's bitwise."""
        self.probes += 1
        got_ids = np.asarray(got_ids, dtype=np.int64)
        got_distances = np.asarray(got_distances, dtype=np.float64)
        if not (
            np.array_equal(got_ids, want.ids)
            and got_distances.tobytes()
            == np.asarray(want.distances, dtype=np.float64).tobytes()
        ):
            self._fail(
                f"probe mismatch: got {got_ids.tolist()} "
                f"want {np.asarray(want.ids).tolist()}"
            )


# ----------------------------------------------------------------------
# Live set (ground truth for recall)
# ----------------------------------------------------------------------
class LiveSet:
    """The objects the benchmark believes are live, for exact ground truth."""

    def __init__(self, ids, vectors, attrs) -> None:
        self.vectors: dict[int, np.ndarray] = {
            int(oid): vector for oid, vector in zip(ids, vectors)
        }
        self.attrs: dict[int, float] = {
            int(oid): float(attr) for oid, attr in zip(ids, attrs)
        }
        #: Every object ever live, so in-flight replies can be checked.
        self.attr_of: dict[int, float] = dict(self.attrs)

    def insert(self, oid: int, vector, attr: float) -> None:
        self.vectors[oid] = vector
        self.attrs[oid] = float(attr)
        self.attr_of[oid] = float(attr)

    def delete(self, oid: int) -> None:
        del self.vectors[oid]
        del self.attrs[oid]

    def recall(self, probes, answers, k: int = K) -> float:
        """Mean Recall@k of ``answers`` over ``probes`` ((q, lo, hi) each)."""
        from repro.eval.groundtruth import exact_range_knn

        ids = np.fromiter(self.vectors, dtype=np.int64, count=len(self.vectors))
        vectors = np.stack([self.vectors[int(oid)] for oid in ids])
        attrs = np.asarray([self.attrs[int(oid)] for oid in ids])
        scores = []
        for (query, lo, hi), answer in zip(probes, answers):
            exact = exact_range_knn(vectors, attrs, query, lo, hi, k, ids=ids)
            if len(exact):
                hits = len(set(exact.tolist()) & set(np.asarray(answer).tolist()))
                scores.append(hits / len(exact))
        return float(np.mean(scores)) if scores else 0.0


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def rss_mb(pid: int | None = None) -> float:
    """Resident memory of a process in MiB (this one by default)."""
    path = f"/proc/{pid or 'self'}/statm"
    with open(path, encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _git_rev() -> str | None:
    """HEAD of the checkout when it is a git repository (read directly)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-1 over the program's source files (the checkout may not be a
    git repository, so this identifies the code that was measured)."""
    digest = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, **extra) -> dict:
    """What every result records about where and on what it ran."""
    from repro import kernels

    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(),
        "source_sha1": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }


@contextmanager
def split_cores(server_pid: int):
    """Pin the server to every core but the first and this process (the load
    generator) to the first, so that neither takes cycles from the other.
    A one-core host is left alone."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        yield
        return
    os.sched_setaffinity(server_pid, cores[1:])
    os.sched_setaffinity(0, cores[:1])
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def shard_counters(services) -> dict:
    """Monotonic layer counters summed over in-process shard services."""
    tables = [service.index.ivf.cache_stats()["table"] for service in services]
    return {
        "reads": sum(service.stats.reads for service in services),
        "read_batches": sum(service.stats.read_batches for service in services),
        "writes": sum(service.stats.writes for service in services),
        "hits": sum(table.hits for table in tables),
        "misses": sum(table.misses for table in tables),
        "rebuilds": sum(_rebuilds(service.index) for service in services),
    }


def _rebuilds(index) -> int:
    """Rebuilds so far: RangePQ+ counts them itself, RangePQ in its tree."""
    count = getattr(index, "rebuild_count", None)
    return index.tree.rebuild_count if count is None else count


def dump_trace(workload: str, spans) -> str:
    """Write a run's spans to ``perfbench/out``; returns the relative path."""
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    tracer.spans = spans
    path = OUT / f"trace-{workload}.json"
    tracer.dump(path)
    return str(path.relative_to(ROOT))


def log(message: str) -> None:
    """Progress notes go to stderr; stdout carries only results."""
    print(message, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    """What one workload run produced."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    detail: dict = field(default_factory=dict)


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    """Samples whose logarithm is uniform on ``[log lo, log hi]``."""
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))
