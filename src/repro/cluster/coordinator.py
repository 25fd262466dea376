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

Every fan-out — the read scatter, the stats and sync polls, the ``ids``
requests — goes through one helper, :meth:`ClusterCoordinator._scatter`,
which sends to every node before it awaits any reply.  The nodes serve
each connection on its own thread, so a range query crossing shards
costs the slowest shard's round-trip, not the sum of them.

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
        for shard, reply in enumerate(
            self._ask_all(self._primary_keys(), {"type": "ids"})
        ):
            self._owners.seed(shard, reply["ids"])

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
            reply["ids"]
            for reply in self._ask_all(self._primary_keys(), {"type": "ids"})
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

    def _scatter(
        self, keys: list[tuple], request: dict
    ) -> list[dict | Exception]:
        """Send ``request`` to every node in ``keys``, then read the replies.

        Every request is sent before any reply is awaited, so the nodes
        work at once; the replies are read back in ``keys`` order.  One
        attempt per node and no retry: each caller applies its own
        failure policy to the entries that did not succeed.

        Returns:
            One entry per key: the node's reply (``ok`` true or false),
            or the error that failed sending or receiving.  Such a
            connection is closed and forgotten, and so is every one
            whose reply is left unread when an exception escapes, so no
            later request can read this one's reply as its own.
        """
        replies: list = [None] * len(keys)
        socks: dict[int, socket.socket] = {}  # sent, reply not yet read
        try:
            for index, key in enumerate(keys):
                try:
                    sock = self._connection(key)
                    send_frame(sock, request)
                except (OSError, ProtocolError, ClusterError) as error:
                    self._drop_connection(key)
                    replies[index] = error
                    continue
                socks[index] = sock
            for index in list(socks):
                try:
                    reply = recv_frame(socks[index])
                except (OSError, ProtocolError) as error:
                    reply = error
                if reply is None:  # clean EOF: the node went away
                    reply = ClusterError(f"{keys[index]}: connection closed")
                if not isinstance(reply, dict):
                    self._drop_connection(keys[index])
                replies[index] = reply
                del socks[index]
        finally:
            for index in socks:
                self._drop_connection(keys[index])
        return replies

    @staticmethod
    def _answered(reply: dict | Exception) -> bool:
        """Whether a :meth:`_scatter` entry is a successful reply."""
        return isinstance(reply, dict) and bool(reply.get("ok", False))

    def _request(self, key: tuple, request: dict) -> dict:
        """One request/reply exchange with bounded retry + reconnect.

        Raises:
            ClusterError: After the attempts are exhausted, or when the
                node answered with an application error.
        """
        for attempt in range(self._retries):
            if attempt:
                _COORD_RETRIES.inc()
                time.sleep(self._retry_wait_s)
            (reply,) = self._scatter([key], request)
            if isinstance(reply, dict):
                if not reply.get("ok", False):
                    raise ClusterError(
                        f"{key}: {reply.get('error', 'request failed')}"
                    )
                return reply
        raise ClusterError(
            f"{key}: no reply after {self._retries} attempts "
            f"(last error: {reply})"
        )

    def _ask_all(self, keys: list[tuple], request: dict) -> list[dict]:
        """Every node's reply: one scatter, each failure retried alone
        through :meth:`_request` (which raises when it gives up)."""
        return [
            reply if self._answered(reply) else self._request(key, request)
            for key, reply in zip(keys, self._scatter(keys, request))
        ]

    def _primary_keys(self) -> list[tuple]:
        return [("primary", shard) for shard in range(self.num_shards)]

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

        All shards are asked before any reply is awaited — a replica by
        default (round-robin across the shard's replicas), the primary
        when ``prefer="primary"`` — so the shards work at once.  A shard
        whose node fails is asked again through its other replicas,
        then its primary.  The per-shard answers merge through the shared
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
        orders = [
            self._read_order(shard, prefer)
            for shard in self._map.shards_for_range(lo, hi)
        ]
        replies = self._scatter([order[0] for order in orders], request)
        partials = [
            self._decode_result(reply)
            if self._answered(reply)
            else self._read_fallback(order, request)
            for order, reply in zip(orders, replies)
        ]
        return merge_topk(partials, k)

    def _read_order(self, shard: int, prefer: str) -> list[tuple]:
        """The nodes to ask for one shard's read, in turn: its replicas
        from the round-robin cursor (advanced once per read) unless
        ``prefer`` is ``"primary"``, then its primary."""
        primary = ("primary", shard)
        if prefer == "primary":
            return [primary]
        count = len(self._supervisor.replica_ports(shard))
        if count == 0:
            _COORD_REPLICA_FALLBACKS.inc()
            return [primary]
        start = self._round_robin[shard] % count
        self._round_robin[shard] = (start + 1) % count
        replicas = [
            ("replica", shard, (start + offset) % count)
            for offset in range(count)
        ]
        return replicas + [primary]

    def _read_fallback(self, order: list[tuple], request: dict) -> QueryResult:
        """Answer a shard whose first node (``order[0]``) failed.

        One attempt per other replica — a dead one should cost a
        fallback, not a retry budget — then the primary with retries.
        """
        for key in order[1:-1]:
            (reply,) = self._scatter([key], request)
            if self._answered(reply):
                return self._decode_result(reply)
        if len(order) > 1:
            _COORD_REPLICA_FALLBACKS.inc()
        return self._decode_result(self._request(order[-1], request))

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
    def _replica_keys(self) -> list[tuple]:
        return [
            ("replica", shard, replica)
            for shard in range(self.num_shards)
            for replica in range(len(self._supervisor.replica_ports(shard)))
        ]

    def stats(self) -> dict:
        """Per-shard stats: the primary's and every replica's reply
        (``None`` for a replica that does not answer)."""
        request = {"type": "stats"}
        report = [
            {"primary": reply, "replicas": []}
            for reply in self._ask_all(self._primary_keys(), request)
        ]
        keys = self._replica_keys()
        for key, reply in zip(keys, self._scatter(keys, request)):
            if not self._answered(reply):
                try:
                    reply = self._request(key, request)
                except ClusterError:
                    reply = None
            report[key[1]]["replicas"].append(reply)
        return {"shards": report}

    def sync(self, *, timeout_s: float = 30.0) -> int:
        """Block until every replica has applied its primary's last write.

        Polls each shard's primary ``last_seq`` against its replicas'
        ``applied_seq`` until all caught up; each round asks every
        replica still behind at once.  The worst lag seen during the
        call is published on the ``cluster.coordinator.max_lag_records``
        gauge.

        Returns:
            The maximum primary ``last_seq`` observed.

        Raises:
            ClusterError: If a replica is still behind after
                ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        request = {"type": "stats"}
        max_lag = 0
        with phase("cluster_sync", metric=_COORD_SYNC_MS):
            targets = [
                int(reply["last_seq"])
                for reply in self._ask_all(self._primary_keys(), request)
            ]
            behind = self._replica_keys()
            while behind:
                lagging = []
                for key, reply in zip(behind, self._ask_all(behind, request)):
                    applied = int(reply["applied_seq"])
                    target = targets[key[1]]
                    max_lag = max(max_lag, target - applied)
                    if applied < target:
                        lagging.append((key, applied, target))
                _COORD_MAX_LAG.set(max_lag)
                if not lagging:
                    break
                if time.monotonic() >= deadline:
                    (_, shard, replica), applied, target = lagging[0]
                    raise ClusterError(
                        f"shard {shard} replica {replica} stuck at "
                        f"seq {applied} < {target} after {timeout_s}s"
                    )
                behind = [key for key, _, _ in lagging]
                time.sleep(0.01)
        return max(targets, default=0)

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
