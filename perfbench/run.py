"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-read --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The line before the result carries provenance and
sample counts.  The exit code is 0 only when every correctness gate passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("wide-read", "recent-churn", "cluster-scatter")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", choices=("full", "smoke"), default="full",
        help="smoke: tiny sizes for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from common import BenchError, provenance

    module = {
        "wide-read": "wide_read",
        "recent-churn": "recent_churn",
        "cluster-scatter": "cluster_scatter",
    }[args.workload]
    workload = __import__(module)
    try:
        outcome = workload.run(
            args.seed, args.seconds, bool(args.trace), args.profile
        )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    info = provenance(
        args.workload, args.seed,
        traced=bool(args.trace), seconds=args.seconds, profile=args.profile,
        **outcome.detail,
    )
    print(json.dumps(info))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    if not outcome.correct:
        print("error: correctness gate failed", file=sys.stderr)
        for problem in outcome.detail["gate"]["problems"]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
