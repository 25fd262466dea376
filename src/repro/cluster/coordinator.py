"""Client-side coordinator: route writes to primaries, scatter reads.

The coordinator is the cluster's single client-facing object.  It
mirrors :class:`~repro.service.router.RangeShardedService`'s surface —
``insert`` / ``delete`` / ``query`` — but every shard lives behind a
socket: writes go to the shard's primary (the only node that appends to
the WAL), reads prefer replicas (round-robin per shard, falling back to
the primary when no replica answers), and scattered range queries merge
through the *same* :func:`~repro.service.router.merge_topk` as the
in-process router, so a cluster answer is bitwise comparable to a
single-process oracle.

Failure handling is retry-with-reconnect: a dead connection is dropped,
the node's current port re-resolved from the supervisor (primaries move
ports on restart), and the request retried a bounded number of times.
Writes are made safe to retry by the primary's idempotent handling of
duplicate inserts/deletes (see :mod:`repro.cluster.node`), so an
ambiguous disconnect-after-send cannot double-apply.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from ..core.results import QueryResult, QueryStats
from ..frontend.protocol import ProtocolError, recv_frame, send_frame
from ..obs import counter, gauge, histogram, phase
from ..service.router import OidOwnership, ShardMap, merge_topk
from .node import ClusterSupervisor

__all__ = ["ClusterError", "ClusterCoordinator"]

_COORD_RETRIES = counter("cluster.coordinator.retries")
_COORD_REPLICA_FALLBACKS = counter("cluster.coordinator.replica_fallbacks")
_COORD_MAX_LAG = gauge("cluster.coordinator.max_lag_records")
_COORD_SYNC_MS = histogram("cluster.coordinator.sync_ms")


class ClusterError(RuntimeError):
    """A cluster request failed after exhausting retries."""


class ClusterCoordinator:
    """Route writes to primaries and scatter-gather reads over replicas.

    Args:
        supervisor: A started :class:`~repro.cluster.node.ClusterSupervisor`
            (ports and boundaries come from it).
        retries: Attempts per request before raising
            :class:`ClusterError` (reconnecting between attempts).
        retry_wait_s: Pause between attempts (covers a node restart
            racing the retry).

    Not thread-safe: one coordinator per client thread (connections and
    the oid → shard map are not internally synchronized beyond a mutex
    on the map itself).
    """

    def __init__(
        self,
        supervisor: ClusterSupervisor,
        *,
        retries: int = 20,
        retry_wait_s: float = 0.1,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        self._supervisor = supervisor
        self._map = ShardMap(supervisor.boundaries)
        self._retries = int(retries)
        self._retry_wait_s = float(retry_wait_s)
        self._owners = OidOwnership()
        self._conns: dict[tuple, socket.socket] = {}
        self._round_robin = [0] * supervisor.num_shards
        for shard in range(supervisor.num_shards):
            self._owners.seed(
                shard, self._request_primary(shard, {"type": "ids"})["ids"]
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of attribute-range shards."""
        return self._supervisor.num_shards

    @property
    def boundaries(self) -> list[float]:
        """The cluster's attribute split points."""
        return list(self._map.boundaries)

    def __len__(self) -> int:
        return len(self._owners)

    def __contains__(self, oid: int) -> bool:
        return oid in self._owners

    def shard_for_attr(self, attr: float) -> int:
        """Index of the shard owning attribute value ``attr``."""
        return self._map.shard_for_attr(attr)

    def check_invariants(self) -> None:
        """Audit the oid → shard map against what the primaries hold.

        Only meaningful while no writes are in flight (the map and the
        primaries are sampled at different instants).
        """
        self._owners.check_invariants(
            self._request_primary(shard, {"type": "ids"})["ids"]
            for shard in range(self.num_shards)
        )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _resolve_port(self, key: tuple) -> int:
        """The current port for a connection key (ports move on restart)."""
        if key[0] == "primary":
            return self._supervisor.primary_port(key[1])
        ports = self._supervisor.replica_ports(key[1])
        if key[2] >= len(ports):
            raise ClusterError(
                f"shard {key[1]} has no replica {key[2]} right now"
            )
        return ports[key[2]]

    def _connection(self, key: tuple) -> socket.socket:
        sock = self._conns.get(key)
        if sock is None:
            sock = socket.create_connection(
                ("127.0.0.1", self._resolve_port(key)), timeout=30.0
            )
            self._conns[key] = sock
        return sock

    def _drop_connection(self, key: tuple) -> None:
        sock = self._conns.pop(key, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _request(
        self, key: tuple, request: dict, *, retries: int | None = None
    ) -> dict:
        """One request/reply exchange with bounded retry + reconnect.

        Raises:
            ClusterError: After the attempts are exhausted, or when the
                node answered with an application error.
        """
        last_error: Exception | None = None
        for attempt in range(retries if retries is not None else self._retries):
            if attempt:
                _COORD_RETRIES.inc()
                time.sleep(self._retry_wait_s)
            try:
                sock = self._connection(key)
                send_frame(sock, request)
                reply = recv_frame(sock)
            except (OSError, ProtocolError, ClusterError) as error:
                self._drop_connection(key)
                last_error = error
                continue
            if reply is None:  # clean EOF mid-exchange: node went away
                self._drop_connection(key)
                last_error = ClusterError(f"{key}: connection closed")
                continue
            if not reply.get("ok", False):
                raise ClusterError(
                    f"{key}: {reply.get('error', 'request failed')}"
                )
            return reply
        raise ClusterError(
            f"{key}: no reply after "
            f"{retries if retries is not None else self._retries} attempts "
            f"(last error: {last_error})"
        )

    def _request_primary(self, shard: int, request: dict) -> dict:
        return self._request(("primary", shard), request)

    # ------------------------------------------------------------------
    # Write plane
    # ------------------------------------------------------------------
    def insert(self, oid: int, vector: np.ndarray, attr: float) -> int:
        """Insert one object through the owning shard's primary.

        Returns:
            The WAL sequence number the write became durable at.
        """
        oid = int(oid)
        target = self.shard_for_attr(attr)
        with self._owners.reserve(oid, target):
            reply = self._request_primary(
                target,
                {
                    "type": "insert",
                    "oid": oid,
                    "vector": np.asarray(vector, dtype=np.float64).tolist(),
                    "attr": float(attr),
                },
            )
        return int(reply["seq"])

    def delete(self, oid: int) -> int:
        """Delete one object through the owning shard's primary.

        Returns:
            The WAL sequence number the delete became durable at.
        """
        oid = int(oid)
        target = self._owners.owner(oid)
        reply = self._request_primary(target, {"type": "delete", "oid": oid})
        self._owners.release(oid)
        return int(reply["seq"])

    # ------------------------------------------------------------------
    # Read plane
    # ------------------------------------------------------------------
    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
        prefer: str = "replica",
    ) -> QueryResult:
        """Scatter a range query to overlapping shards, merge top-``k``.

        Each overlapping shard is asked once — a replica by default
        (round-robin across the shard's replicas), the primary when
        ``prefer="primary"`` or when no replica answers — and per-shard
        answers merge through the shared
        :func:`~repro.service.router.merge_topk`, so the global order
        (distance, tie-broken by oid) is bitwise identical to an
        un-sharded index at the same state.

        Replica reads are *snapshot-isolated but possibly stale*: call
        :meth:`sync` first when the answer must reflect every
        acknowledged write.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if prefer not in ("replica", "primary"):
            raise ValueError(f"prefer must be 'replica' or 'primary', got {prefer!r}")
        request = {
            "type": "query",
            "vector": np.asarray(query_vector, dtype=np.float64).tolist(),
            "lo": float(lo),
            "hi": float(hi),
            "k": int(k),
            "l_budget": l_budget,
        }
        partials = [
            self._query_shard(shard, request, prefer)
            for shard in self._map.shards_for_range(lo, hi)
        ]
        return merge_topk(partials, k)

    def _query_shard(
        self, shard: int, request: dict, prefer: str
    ) -> QueryResult:
        """Ask one shard: its replicas round-robin unless ``prefer`` is
        ``"primary"``, the primary when no replica answers."""
        if prefer == "replica":
            count = len(self._supervisor.replica_ports(shard))
            start = self._round_robin[shard]
            self._round_robin[shard] = (start + 1) % max(1, count)
            for offset in range(count):
                key = ("replica", shard, (start + offset) % count)
                try:
                    # One attempt per replica: a dead one should cost a
                    # fallback, not a retry budget.
                    return self._decode_result(
                        self._request(key, dict(request), retries=1)
                    )
                except ClusterError:
                    self._drop_connection(key)
                    continue
            _COORD_REPLICA_FALLBACKS.inc()
        return self._decode_result(self._request_primary(shard, request))

    @staticmethod
    def _decode_result(reply: dict) -> QueryResult:
        """Rebuild a :class:`QueryResult` from a node's wire reply.

        JSON floats are ``repr``-exact, so ids and distances round-trip
        bitwise; only the counted stats travel (per-phase timings stay
        node-local).
        """
        stats = QueryStats()
        wire = reply.get("stats", {})
        stats.num_candidate_clusters = int(wire.get("num_candidate_clusters", 0))
        stats.num_candidates = int(wire.get("num_candidates", 0))
        stats.num_in_range = int(wire.get("num_in_range", -1))
        stats.cover_nodes = int(wire.get("cover_nodes", 0))
        stats.l_used = int(wire.get("l_used", 0))
        return QueryResult(
            ids=np.asarray(reply["ids"], dtype=np.int64),
            distances=np.asarray(reply["distances"], dtype=np.float64),
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Replication sync / stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-shard stats: the primary's and every replica's reply."""
        report = []
        for shard in range(self.num_shards):
            entry = {
                "primary": self._request_primary(shard, {"type": "stats"}),
                "replicas": [],
            }
            for replica in range(len(self._supervisor.replica_ports(shard))):
                try:
                    entry["replicas"].append(
                        self._request(
                            ("replica", shard, replica), {"type": "stats"}
                        )
                    )
                except ClusterError:
                    entry["replicas"].append(None)
            report.append(entry)
        return {"shards": report}

    def sync(self, *, timeout_s: float = 30.0) -> int:
        """Block until every replica has applied its primary's last write.

        Polls each shard's primary ``last_seq`` against its replicas'
        ``applied_seq`` until all caught up (publishing the worst lag
        seen on the ``cluster.coordinator.max_lag_records`` gauge).

        Returns:
            The maximum primary ``last_seq`` observed.

        Raises:
            ClusterError: If a replica is still behind after
                ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        max_last_seq = 0
        with phase("cluster_sync", metric=_COORD_SYNC_MS):
            for shard in range(self.num_shards):
                target = int(
                    self._request_primary(shard, {"type": "stats"})["last_seq"]
                )
                max_last_seq = max(max_last_seq, target)
                for replica in range(len(self._supervisor.replica_ports(shard))):
                    while True:
                        reply = self._request(
                            ("replica", shard, replica), {"type": "stats"}
                        )
                        applied = int(reply["applied_seq"])
                        _COORD_MAX_LAG.set(max(0, target - applied))
                        if applied >= target:
                            break
                        if time.monotonic() >= deadline:
                            raise ClusterError(
                                f"shard {shard} replica {replica} stuck at "
                                f"seq {applied} < {target} after {timeout_s}s"
                            )
                        time.sleep(0.01)
        return max_last_seq

    def snapshot(self, shard: int) -> int:
        """Ask one shard's primary to write a WAL snapshot now.

        Chaos tests use this to force the log-horizon (resync) path.

        Returns:
            The sequence number the snapshot is consistent with.
        """
        return int(self._request_primary(shard, {"type": "snapshot"})["seq"])

    def close(self) -> None:
        """Close every cached connection.  Idempotent."""
        for key in list(self._conns):
            self._drop_connection(key)

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
