"""The recent-churn server: a FrontendServer over a 2-shard router, run as
the benchmark's child process.

It recovers every shard from the durability directory the benchmark seeded
(``<dir>/shard-<i>`` plus ``layout.json``), keeps each shard's WAL
attached, runs a MaintenanceDaemon, and serves with the frontend's default
batching and ``executor_threads=2``.  It prints ``READY <port>`` and then
obeys one command per stdin line:

* ``trace 1`` / ``trace 0`` — install / remove the timing wrappers, then
  answer ``COUNTERS <json>`` (the layer counters at that moment);
* ``stop`` (or end of input) — drain the server, write the recorded spans to
  ``--spans`` as JSON, answer ``BYE`` and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import rss_mb, shard_counters  # noqa: E402
from spans import Tracer, core_targets, router_targets  # noqa: E402


def counters(router, server, daemon) -> dict:
    """Monotonic layer counters of the whole server process."""
    from repro.service.wal import WAL_NAME

    shards = router.shards
    stats = server.stats()
    return shard_counters(shards) | {
        "wal_bytes": sum(
            (shard.wal.directory / WAL_NAME).stat().st_size for shard in shards
        ),
        "batches": stats["batches"],
        "batched_requests": stats["batched_requests"],
        "shed": stats["shed_expired"] + stats["admission"]["rejected"],
        "maintenance_rebuilds": daemon.stats.rebuilds,
        "rss_mb": rss_mb(),
    }


async def serve(router, daemon, spans_path: Path) -> None:
    from repro.frontend.server import FrontendServer

    server = FrontendServer(router, executor_threads=2)
    _, port = await server.start()
    print(f"READY {port}", flush=True)
    tracer = Tracer()
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not command or command[0] == "stop":
                break
            if command == ["trace", "1"]:
                tracer.install(core_targets() + router_targets())
            elif command == ["trace", "0"]:
                tracer.uninstall()
            else:
                raise SystemExit(f"unknown command {command}")
            print("COUNTERS " + json.dumps(counters(router, server, daemon)),
                  flush=True)
    finally:
        tracer.uninstall()
        await server.stop()
    tracer.dump(spans_path)


def main() -> None:
    from repro.service.engine import IndexService
    from repro.service.maintenance import MaintenanceDaemon
    from repro.service.router import RangeShardedService

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    layout = json.loads((args.dir / "layout.json").read_text())
    router = RangeShardedService(
        [
            IndexService.recover(args.dir / f"shard-{number}")
            for number in range(layout["num_shards"])
        ],
        layout["boundaries"],
    )
    daemon = MaintenanceDaemon(router).start()
    try:
        asyncio.run(serve(router, daemon, args.spans))
    finally:
        daemon.stop()
        router.close()
    print("BYE", flush=True)


if __name__ == "__main__":
    main()
