"""Parallel scaling benchmark: process pool vs GIL-bound thread baseline.

Builds one sift-like RangePQ index, answers the same fixed query set
three ways, and reports aggregate QPS:

* **serial** — one thread, ``index.query`` per request (the floor);
* **threads** — ``T`` Python threads over the same serial path.  The
  ADC kernels are numpy-bound but the drain and merge are Python, so
  threads mostly serialize on the GIL — this is the baseline the
  process pool must beat;
* **executor** — :class:`~repro.parallel.executor.ParallelQueryExecutor`
  at each worker count, whole queries round-robined across worker
  processes reading PQ codes from shared memory
  (:meth:`~repro.parallel.executor.ParallelQueryExecutor.search_batch`).

Every configuration's answers are checked bitwise against the serial
reference (ids and distances both); any mismatch counts as a
correctness violation and fails the run.  The speedup gate
(``>= 1.8x`` at 4 workers) only applies to the full profile — on a
single-core machine process parallelism cannot beat threads, so
``--smoke`` checks correctness and liveness only and prints the
honest numbers.

Entry points: ``python -m repro parallel-bench [--smoke]`` and
``benchmarks/bench_parallel_scaling.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

import numpy as np

from ..obs import gauge
from .executor import ParallelQueryExecutor

__all__ = ["ParallelBenchResult", "run_parallel_bench", "main"]

#: Coverages the benchmark ranges cycle through (paper grid subset).
TEMPLATE_COVERAGES = (0.05, 0.10, 0.40)

_UTILIZATION = gauge("parallel.worker_utilization")


class ParallelBenchResult:
    """QPS per configuration plus bitwise-correctness accounting.

    Attributes:
        serial_qps: Single-thread ``index.query`` throughput.
        thread_qps: Thread-baseline throughput (``baseline_threads``
            threads over the serial path).
        executor_qps: Mapping of worker count to pool throughput.
        violations: Answers that differed bitwise from the serial
            reference, summed over every configuration.
        utilization: Mapping of worker count to the pool's
            worker-utilization gauge after its timed run.
        baseline_threads: Thread count of the baseline.
    """

    def __init__(self, baseline_threads: int) -> None:
        self.serial_qps = 0.0
        self.thread_qps = 0.0
        self.executor_qps: dict[int, float] = {}
        self.violations = 0
        self.utilization: dict[int, float] = {}
        self.baseline_threads = baseline_threads

    def speedup(self, workers: int) -> float:
        """Executor QPS at ``workers`` over the thread baseline."""
        if self.thread_qps <= 0:
            return float("inf")
        return self.executor_qps.get(workers, 0.0) / self.thread_qps


def _check(reference, results) -> int:
    """Count answers that are not bitwise-identical to the reference."""
    bad = 0
    for ref, got in zip(reference, results):
        if not (
            np.array_equal(ref.ids, got.ids)
            and np.array_equal(ref.distances, got.distances)
        ):
            bad += 1
    return bad


def run_parallel_bench(
    *,
    n: int = 10_000,
    dim: int = 64,
    num_queries: int = 64,
    repeats: int = 3,
    worker_counts: Sequence[int] = (1, 2, 4),
    baseline_threads: int = 4,
    k: int = 10,
    l_budget: int | None = None,
    start_method: str | None = None,
    seed: int = 0,
    verbose: bool = True,
) -> ParallelBenchResult:
    """Measure QPS vs worker count against the thread baseline.

    The same ``num_queries`` requests (repeated ``repeats`` times per
    timed configuration) run serially, across ``baseline_threads``
    threads, and through a :class:`ParallelQueryExecutor` per entry in
    ``worker_counts``; every answer is checked bitwise against the
    serial reference.
    """
    from ..core import RangePQ
    from ..datasets import load_workload

    workload = load_workload(
        "sift", n=n, d=dim, num_queries=num_queries, seed=seed
    )
    index = RangePQ.build(workload.vectors, workload.attrs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    queries = np.asarray(workload.queries, dtype=np.float64)
    ranges = [
        workload.range_for_coverage(
            TEMPLATE_COVERAGES[i % len(TEMPLATE_COVERAGES)], rng
        )
        for i in range(num_queries)
    ]

    result = ParallelBenchResult(baseline_threads)

    def serial_all():
        return [
            index.query(queries[i], lo, hi, k=k, l_budget=l_budget)
            for i, (lo, hi) in enumerate(ranges)
        ]

    # Reference answers (untimed) then the timed serial runs.
    reference = serial_all()
    started = time.monotonic()
    for _ in range(repeats):
        result.violations += _check(reference, serial_all())
    elapsed = time.monotonic() - started
    result.serial_qps = repeats * num_queries / elapsed

    # Thread baseline: the same serial path under T Python threads.
    def thread_all():
        answers = [None] * num_queries
        cursor = [0]
        mutex = threading.Lock()

        def drain():
            while True:
                with mutex:
                    i = cursor[0]
                    if i >= num_queries:
                        return
                    cursor[0] += 1
                lo, hi = ranges[i]
                answers[i] = index.query(
                    queries[i], lo, hi, k=k, l_budget=l_budget
                )

        threads = [
            threading.Thread(target=drain) for _ in range(baseline_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return answers

    started = time.monotonic()
    for _ in range(repeats):
        result.violations += _check(reference, thread_all())
    elapsed = time.monotonic() - started
    result.thread_qps = repeats * num_queries / elapsed

    # Process pool at each worker count.
    for workers in worker_counts:
        with ParallelQueryExecutor(
            index,
            num_workers=workers,
            start_method=start_method,
        ) as executor:
            # Warm the workers (first task pays the attach).
            executor.search_batch(queries[:1], ranges[:1], k, l_budget=l_budget)
            started = time.monotonic()
            for _ in range(repeats):
                answers = executor.search_batch(
                    queries, ranges, k, l_budget=l_budget
                )
                result.violations += _check(reference, answers)
            elapsed = time.monotonic() - started
            result.executor_qps[workers] = repeats * num_queries / elapsed
            result.utilization[workers] = _UTILIZATION.value

    if verbose:
        print(
            f"parallel scaling — n={n}, d={dim}, {num_queries} queries x "
            f"{repeats} repeats, k={k}"
        )
        print(f"  serial                {result.serial_qps:10.1f} qps")
        print(
            f"  threads x{baseline_threads:<2}           "
            f"{result.thread_qps:10.1f} qps"
        )
        for workers in worker_counts:
            print(
                f"  executor x{workers:<2} workers  "
                f"{result.executor_qps[workers]:10.1f} qps   "
                f"({result.speedup(workers):.2f}x vs threads, "
                f"util {result.utilization[workers]:.2f})"
            )
        print(f"  violations            {result.violations}")
    return result


def main(argv: Sequence[str] | None = None) -> int:
    """CLI for the scaling benchmark; exit 1 on any bitwise mismatch
    (or, in the full profile, when 4 workers miss the 1.8x gate)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro parallel-bench",
        description="Process-pool scaling vs the GIL-bound thread baseline.",
    )
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep",
    )
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--l-budget", type=int, default=None)
    parser.add_argument(
        "--start-method", choices=("fork", "spawn"), default=None
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI profile (n=1200, 16 queries, workers 1 2); checks "
        "bitwise correctness and pool liveness only, not the speedup",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n, args.dim = 1200, 32
        args.queries, args.repeats = 16, 1
        args.workers, args.threads = [1, 2], 2
    result = run_parallel_bench(
        n=args.n,
        dim=args.dim,
        num_queries=args.queries,
        repeats=args.repeats,
        worker_counts=args.workers,
        baseline_threads=args.threads,
        k=args.k,
        l_budget=args.l_budget,
        start_method=args.start_method,
        seed=args.seed,
    )
    if result.violations:
        print(f"FAIL: {result.violations} bitwise mismatch(es)")
        return 1
    if not args.smoke:
        gate = max(args.workers)
        if result.speedup(gate) < 1.8:
            print(
                f"FAIL: {gate} workers reached only "
                f"{result.speedup(gate):.2f}x vs the thread baseline "
                f"(need 1.8x; meaningless on a single-core machine — "
                f"use --smoke there)"
            )
            return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
