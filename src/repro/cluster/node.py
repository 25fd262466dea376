"""Cluster node processes (primaries, replicas) and their supervisor.

One attribute-range shard = one **primary** process owning the shard's
durability directory (``WriteAheadLog`` + snapshots) plus N **replica**
processes serving snapshot-isolated reads from a read-only
:class:`~repro.service.engine.IndexService`.  All traffic — client
requests and the replication stream — speaks the front door's
length-prefixed JSON framing over localhost TCP sockets.

Catch-up protocol (new replica, restarted replica, or one told to
resync): load the newest ``snapshot-<seq>.npz`` straight from the
shard's durability directory (nodes share the filesystem; only the live
tail travels over the socket), then subscribe to the primary at that
sequence number and apply shipped records in order.  A primary whose
log was truncated past the subscriber's position answers ``resync``
(see :mod:`repro.cluster.ship`) and the replica reloads.

Supervision follows :mod:`repro.parallel.pool`'s one-pipe-pair-per-peer
discipline: every node process gets a dedicated control pipe (parent →
child commands) and status pipe (child → parent ready handshake), so no
two nodes ever contend on a shared queue and a wedged node cannot
corrupt its siblings' channels.  Nodes are killable at any instant
(``SIGKILL`` chaos): the primary's WAL tolerates torn tails, and a
restarted node re-runs the catch-up protocol from durable state.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..frontend.protocol import ProtocolError, recv_frame, send_frame
from ..obs import counter, gauge
from ..service.engine import IndexService
from ..service.router import ShardMap, quantile_boundaries
from ..service.wal import WALError, latest_snapshot
from .ship import NeedsResync, WalShipper, apply_stream

__all__ = ["NodeError", "ClusterSupervisor", "seed_shards"]

_REPLICA_APPLIED = counter("cluster.replica.applied_records")
_REPLICA_RESYNCS = counter("cluster.replica.resyncs")
_REPLICA_APPLIED_SEQ = gauge("cluster.replica.applied_seq")
_REPLICA_LAG = gauge("cluster.replica.lag_records")

#: Manifest file naming the cluster layout inside a cluster directory.
MANIFEST_NAME = "cluster.json"

#: How often supervision loops wake to poll liveness / handshakes.
_POLL_S = 0.05


class NodeError(RuntimeError):
    """A cluster node failed to start, answer, or stop."""


# ----------------------------------------------------------------------
# Request handling (shared by both roles)
# ----------------------------------------------------------------------
def _query_reply(service: IndexService, request: dict) -> dict:
    """Answer one query request from a service (either role)."""
    result = service.query(
        np.asarray(request["vector"], dtype=np.float64),
        float(request["lo"]),
        float(request["hi"]),
        int(request["k"]),
        l_budget=request.get("l_budget"),
    )
    stats = result.stats
    return {
        "ok": True,
        "ids": [int(i) for i in result.ids],
        "distances": [float(d) for d in result.distances],
        "stats": {
            "num_candidate_clusters": stats.num_candidate_clusters,
            "num_candidates": stats.num_candidates,
            "num_in_range": stats.num_in_range,
            "cover_nodes": stats.cover_nodes,
            "l_used": stats.l_used,
        },
    }


def _accept_loop(
    listener: socket.socket,
    handler: Callable[[socket.socket], None],
    stop: threading.Event,
) -> None:
    """Accept connections until the listener closes; one thread each."""
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # listener closed — shutting down
        threading.Thread(
            target=handler, args=(conn,), daemon=True
        ).start()


# ----------------------------------------------------------------------
# Primary process
# ----------------------------------------------------------------------
def _start_primary_controller(service: IndexService):
    """Build and start a per-primary feedback controller, or ``None``.

    A primary holds only PQ codes, so the probe is the self-referential
    :class:`~repro.control.probes.BudgetRecallProbe` (current policy vs
    exhaustive budget) synthesized from the index's own trained state.
    The ``l_base`` envelope is derived from the recovered policy: one
    quarter to four times the seeded value, stepped in quarters.  Shards
    whose index carries no L policy have no knob to manage and run
    uncontrolled.
    """
    from ..control import (
        BudgetRecallProbe,
        ControlDaemon,
        KnobEnvelope,
        ServiceLKnob,
    )
    from ..core.adaptive import FixedLPolicy

    policy = service.knobs()["l_policy"]
    if policy is None:
        return None
    l0 = int(policy.l if isinstance(policy, FixedLPolicy) else policy.l_base)
    envelope = KnobEnvelope(
        min_value=max(1, l0 // 4),
        max_value=4 * max(1, l0),
        step=max(1, l0 // 4),
    )

    def query_fn(vector, lo, hi, k, l_budget=None):
        return service.query(vector, lo, hi, k, l_budget=l_budget)

    daemon = ControlDaemon(
        BudgetRecallProbe.from_index(service.index),
        query_fn,
        l_knobs=[ServiceLKnob(service, envelope)],
        recall_floor=0.95,
        interval_s=1.0,
    )
    daemon.start()
    return daemon


def _control_reply(controller, request: dict) -> dict:
    """Answer a ``control`` request: controller stats, knobs, decisions.

    ``{"type": "control", "cycle": true}`` additionally drives one
    synchronous :meth:`~repro.control.ControlDaemon.run_cycle` before
    answering — the deterministic hook tests and operators use instead
    of waiting out the background interval (cycles are serialized by the
    daemon's internal mutex, so racing the background thread is safe).
    """
    if controller is None:
        return {"ok": True, "enabled": False}
    from dataclasses import asdict

    reply: dict = {"ok": True, "enabled": True}
    if request.get("cycle"):
        report = controller.run_cycle()
        reply["cycle_report"] = {
            "recall": report["recall"],
            "window_p99_ms": report["window_p99_ms"],
            "adjusted": [asdict(d) for d in report["adjusted"]],
            "rolled_back": [asdict(d) for d in report["rolled_back"]],
        }
    stats = controller.stats
    reply.update(
        {
            "cycles": stats.cycles,
            "adjustments": stats.adjustments,
            "rollbacks": stats.rollbacks,
            "probe_passes": stats.probe_passes,
            "knobs": controller.knob_values(),
            "decisions": [asdict(d) for d in list(controller.decisions)[-16:]],
        }
    )
    return reply


def _primary_request_reply(
    service: IndexService, request: dict, controller=None
) -> dict:
    """Answer one non-subscribe request on a primary connection.

    Writes are idempotent — an insert of an oid already present (or a
    delete of one already gone) answers ok with ``"duplicate": true``
    instead of failing, which turns the coordinator's at-least-once
    retry after an ambiguous disconnect into exactly-once effect.
    Genuine duplicate inserts are excluded client-side by the
    coordinator's oid → shard map.
    """
    rtype = request.get("type")
    if rtype == "query":
        return _query_reply(service, request)
    if rtype == "insert":
        oid = int(request["oid"])
        if oid in service:
            return {"ok": True, "seq": service.wal.last_seq, "duplicate": True}
        service.insert(
            oid,
            np.asarray(request["vector"], dtype=np.float64),
            float(request["attr"]),
        )
        return {"ok": True, "seq": service.wal.last_seq}
    if rtype == "delete":
        oid = int(request["oid"])
        if oid not in service:
            return {"ok": True, "seq": service.wal.last_seq, "duplicate": True}
        service.delete(oid)
        return {"ok": True, "seq": service.wal.last_seq}
    if rtype == "ids":
        return {"ok": True, "ids": [int(i) for i in service.index.ivf.ids()]}
    if rtype == "snapshot":
        service.snapshot()
        return {"ok": True, "seq": service.wal.last_seq}
    if rtype == "stats":
        return {
            "ok": True,
            "role": "primary",
            "last_seq": service.wal.last_seq,
            "size": len(service),
        }
    if rtype == "control":
        return _control_reply(controller, request)
    return {"ok": False, "error": f"unknown request type {rtype!r}"}


def _serve_primary_connection(
    sock: socket.socket,
    service: IndexService,
    shipper: WalShipper,
    stop: threading.Event,
    controller=None,
) -> None:
    """One primary connection: request/reply, or a subscription stream."""
    with sock:
        while not stop.is_set():
            try:
                request = recv_frame(sock)
            except (ProtocolError, OSError):
                return
            if request is None:
                return
            if request.get("type") == "subscribe":
                try:
                    shipper.serve(sock, int(request.get("seq", 0)), stop)
                except OSError:
                    pass  # subscriber went away mid-stream
                return
            try:
                reply = _primary_request_reply(service, request, controller)
            except Exception as error:  # repro: noqa-R004 — connection fault barrier: any request error must become an error reply, not kill the node
                reply = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            try:
                send_frame(sock, reply)
            except OSError:
                return


def _primary_main(
    shard: int, wal_dir: str, control: bool, ctrl_recv, status_send
) -> None:
    """Primary process entry point: recover, listen, serve until stopped.

    Recovers the shard service from its durability directory (newest
    snapshot + WAL tail replay), binds an ephemeral localhost port, and
    reports ``("ready", port, last_seq)`` on the status pipe.  The main
    thread then blocks on the control pipe; connections are served by
    daemon threads, so a ``("stop",)`` command (or parent death closing
    the pipe) shuts the node down promptly.  With ``control`` on, a
    per-primary :class:`~repro.control.ControlDaemon` self-tunes the
    shard's ``l_base`` against a budget-recall probe; query it (or drive
    a cycle) with a ``{"type": "control"}`` request.
    """
    service = IndexService.recover(wal_dir)
    controller = _start_primary_controller(service) if control else None
    shipper = WalShipper(service.wal)
    stop = threading.Event()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    threading.Thread(
        target=_accept_loop,
        args=(
            listener,
            lambda conn: _serve_primary_connection(
                conn, service, shipper, stop, controller
            ),
            stop,
        ),
        daemon=True,
        name=f"repro-cluster-p{shard}-accept",
    ).start()
    status_send.send(("ready", port, service.wal.last_seq))
    while True:
        try:
            command = ctrl_recv.recv()
        except EOFError:
            break  # parent went away
        if command is None or command[0] == "stop":
            break
    stop.set()
    listener.close()
    if controller is not None:
        controller.stop()
    service.close()
    try:
        status_send.send(("stopped",))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


# ----------------------------------------------------------------------
# Replica process
# ----------------------------------------------------------------------
class _ReplicaState:
    """One replica's mutable state, shared between its threads.

    The query plane reads ``service`` (a read-only
    :class:`IndexService`), the ship thread advances it through
    ``apply`` and may swap in a whole new service on resync; the control
    thread retargets ``primary_port`` when the primary restarts.  All
    cross-thread fields live behind one mutex.
    """

    def __init__(self, wal_dir: Path, primary_port: int) -> None:
        self.wal_dir = Path(wal_dir)
        self._mutex = threading.Lock()
        self._service: IndexService | None = None
        self._applied_seq = 0
        self._primary_last_seq = 0
        self._primary_port = int(primary_port)
        self._ship_sock: socket.socket | None = None

    # -- query / stats plane -------------------------------------------
    @property
    def service(self) -> IndexService:
        """The current read-only service (swapped whole on resync)."""
        with self._mutex:
            if self._service is None:
                raise NodeError("replica has no loaded snapshot yet")
            return self._service

    @property
    def applied_seq(self) -> int:
        """Sequence number of the last record applied (or snapshot base)."""
        with self._mutex:
            return self._applied_seq

    def stats(self) -> dict:
        """The replica's stats reply (role, seqs, lag, size)."""
        with self._mutex:
            service = self._service
            applied = self._applied_seq
            primary = self._primary_last_seq
        return {
            "ok": True,
            "role": "replica",
            "applied_seq": applied,
            "primary_last_seq": primary,
            "lag": max(0, primary - applied),
            "size": len(service) if service is not None else 0,
        }

    # -- ship plane ----------------------------------------------------
    @property
    def primary_port(self) -> int:
        """The primary's current port (retargeted on primary restart)."""
        with self._mutex:
            return self._primary_port

    def retarget_primary(self, port: int) -> None:
        """Point at a restarted primary and drop the current stream."""
        with self._mutex:
            self._primary_port = int(port)
            sock = self._ship_sock
        if sock is not None:
            try:
                sock.close()  # wakes the ship thread's blocking recv
            except OSError:  # pragma: no cover - already closed
                pass

    def set_ship_socket(self, sock: socket.socket | None) -> None:
        """Publish the live subscription socket (None between streams)."""
        with self._mutex:
            self._ship_sock = sock

    def close_ship_socket(self) -> None:
        """Drop the live stream, unblocking the ship thread."""
        self.set_ship_socket(None)

    def load_snapshot(self) -> None:
        """(Re)load the newest snapshot from the shard's directory.

        Skipped when the newest snapshot is not ahead of what this
        replica already applied (a resync races the snapshot becoming
        visible; re-subscribing from the current position is correct).
        """
        from ..io.serialization import load_index

        newest = latest_snapshot(self.wal_dir)
        if newest is None:
            raise WALError(f"{self.wal_dir}: no snapshot to bootstrap from")
        seq, path = newest
        with self._mutex:
            if self._service is not None and seq <= self._applied_seq:
                return
        index = load_index(path)
        service = IndexService(index, read_only=True)
        with self._mutex:
            self._service = service
            self._applied_seq = seq
        _REPLICA_APPLIED_SEQ.set(seq)

    def apply(self, records: list, primary_last_seq: int) -> None:
        """Apply one shipped batch (or heartbeat) and refresh lag gauges."""
        with self._mutex:
            service = self._service
        if records and service is not None:
            service.apply_records(records)
            applied = records[-1].seq
            with self._mutex:
                self._applied_seq = applied
                self._primary_last_seq = max(primary_last_seq, applied)
            _REPLICA_APPLIED.inc(len(records))
            _REPLICA_APPLIED_SEQ.set(applied)
        else:
            with self._mutex:
                self._primary_last_seq = max(
                    self._primary_last_seq, primary_last_seq
                )
        with self._mutex:
            lag = max(0, self._primary_last_seq - self._applied_seq)
        _REPLICA_LAG.set(lag)


def _replica_ship_loop(state: _ReplicaState, stop: threading.Event) -> None:
    """Subscribe → apply → reconnect forever (the replica's write plane).

    Every pass (re)connects to the primary's current port, subscribes at
    the replica's applied sequence number, and applies the stream until
    it breaks.  ``NeedsResync`` reloads the newest snapshot first; any
    disconnect (primary killed, primary restarted, stream error) just
    retries — durable state lives with the primary, so the replica can
    always catch back up.
    """
    while not stop.is_set():
        try:
            sock = socket.create_connection(
                ("127.0.0.1", state.primary_port), timeout=5.0
            )
        except OSError:
            stop.wait(_POLL_S)
            continue
        sock.settimeout(None)
        state.set_ship_socket(sock)
        try:
            send_frame(sock, {"type": "subscribe", "seq": state.applied_seq})
            apply_stream(sock, state.apply, peer=f"primary:{state.primary_port}")
        except NeedsResync:
            _REPLICA_RESYNCS.inc()
            try:
                state.load_snapshot()
            except WALError:  # pragma: no cover - snapshot mid-replace
                pass
        except Exception:  # repro: noqa-R004 — ship-loop fault barrier: a disconnect or damaged stream must trigger reconnect from the durable seq, never kill the replica
            pass
        finally:
            state.set_ship_socket(None)
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        stop.wait(_POLL_S / 2)


def _serve_replica_connection(
    sock: socket.socket, state: _ReplicaState, stop: threading.Event
) -> None:
    """One replica connection: queries and stats only."""
    with sock:
        while not stop.is_set():
            try:
                request = recv_frame(sock)
            except (ProtocolError, OSError):
                return
            if request is None:
                return
            rtype = request.get("type")
            try:
                if rtype == "query":
                    reply = _query_reply(state.service, request)
                elif rtype == "stats":
                    reply = state.stats()
                else:
                    reply = {
                        "ok": False,
                        "error": f"replica cannot serve {rtype!r}",
                    }
            except Exception as error:  # repro: noqa-R004 — connection fault barrier: any request error must become an error reply, not kill the node
                reply = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            try:
                send_frame(sock, reply)
            except OSError:
                return


def _replica_main(
    shard: int, wal_dir: str, primary_port: int, ctrl_recv, status_send
) -> None:
    """Replica process entry point: bootstrap, tail, serve until stopped.

    Bootstraps from the newest snapshot in the shard's durability
    directory, starts the ship thread (subscribe + apply), binds an
    ephemeral port for reads, and reports ``("ready", port,
    applied_seq)``.  Control commands: ``("stop",)`` shuts down,
    ``("primary", port)`` retargets the subscription after a primary
    restart.
    """
    state = _ReplicaState(Path(wal_dir), primary_port)
    state.load_snapshot()
    stop = threading.Event()
    threading.Thread(
        target=_replica_ship_loop,
        args=(state, stop),
        daemon=True,
        name=f"repro-cluster-r{shard}-ship",
    ).start()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    threading.Thread(
        target=_accept_loop,
        args=(
            listener,
            lambda conn: _serve_replica_connection(conn, state, stop),
            stop,
        ),
        daemon=True,
        name=f"repro-cluster-r{shard}-accept",
    ).start()
    status_send.send(("ready", port, state.applied_seq))
    while True:
        try:
            command = ctrl_recv.recv()
        except EOFError:
            break  # parent went away
        if command is None or command[0] == "stop":
            break
        if command[0] == "primary":
            state.retarget_primary(int(command[1]))
    stop.set()
    listener.close()
    state.close_ship_socket()
    try:
        status_send.send(("stopped",))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
def seed_shards(
    directory: str | Path,
    ids: Sequence[int],
    vectors: np.ndarray,
    attrs: Sequence[float],
    *,
    num_shards: int,
    index_factory: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
) -> list[float]:
    """Partition data into per-shard durability directories.

    Splits the attribute domain at quantiles exactly like
    :meth:`~repro.service.router.RangeShardedService.build` (the same
    :func:`~repro.service.router.quantile_boundaries` and
    :meth:`~repro.service.router.ShardMap.partition`), builds one index
    per shard, and writes each under ``<directory>/shard-<i>`` with an
    initial snapshot, plus a ``cluster.json`` manifest recording the
    boundaries.  A :class:`ClusterSupervisor` then brings the cluster
    up from the directory alone.

    Returns:
        The attribute boundaries (``num_shards - 1`` split points,
        fewer if quantiles collapsed).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = np.asarray(ids, dtype=np.int64)
    vectors = np.asarray(vectors, dtype=np.float64)
    attrs = np.asarray(attrs, dtype=np.float64)
    boundaries = quantile_boundaries(attrs, num_shards)
    for number, members in enumerate(ShardMap(boundaries).partition(attrs)):
        index = index_factory(ids[members], vectors[members], attrs[members])
        service = IndexService(
            index, wal_dir=directory / f"shard-{number}"
        )
        service.close()
    manifest = {
        "boundaries": [float(b) for b in boundaries],
        "num_shards": len(boundaries) + 1,
    }
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return [float(b) for b in boundaries]


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
class _NodeHandle:
    """Parent-side handle on one node process and its private pipes."""

    __slots__ = ("role", "shard", "replica", "process", "ctrl_send", "status_recv", "port", "alive")

    def __init__(self, role, shard, replica, process, ctrl_send, status_recv):
        self.role = role
        self.shard = shard
        self.replica = replica
        self.process = process
        self.ctrl_send = ctrl_send
        self.status_recv = status_recv
        self.port: int | None = None
        self.alive = False

    def shutdown_pipes(self) -> None:
        """Close this node's parent-side pipe ends."""
        for conn in (self.ctrl_send, self.status_recv):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class ClusterSupervisor:
    """Spawn, watch, kill, and restart a cluster's node processes.

    Brings up one primary per shard directory (``shard-<i>`` under the
    cluster directory, as laid out by :func:`seed_shards`) plus
    ``replicas`` replica processes each, all on localhost ephemeral
    ports.  Every node gets a dedicated control/status pipe pair; kill
    methods deliver ``SIGKILL`` (chaos realism — no cleanup runs) and
    restart methods re-run the node's catch-up-from-durable-state path.

    Args:
        directory: The cluster directory (``cluster.json`` + shard
            subdirectories).
        replicas: Replica processes per shard.
        start_method: Multiprocessing start method; default prefers
            ``fork``.
        ready_timeout_s: How long to wait for a node's ready handshake.
        control: Run a self-tuning :class:`~repro.control.ControlDaemon`
            inside every primary (per-shard ``l_base`` feedback against
            a budget-recall probe; see :mod:`repro.control`).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        replicas: int = 1,
        start_method: str | None = None,
        ready_timeout_s: float = 60.0,
        control: bool = False,
    ) -> None:
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise NodeError(
                f"{self.directory}: no {MANIFEST_NAME}; run seed_shards first"
            )
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        try:
            self._map = ShardMap(
                manifest["boundaries"], int(manifest["num_shards"])
            )
        except ValueError as error:
            raise NodeError(f"{manifest_path}: {error}") from None
        for number in range(self.num_shards):
            if not (self.directory / f"shard-{number}").is_dir():
                raise NodeError(
                    f"{self.directory}: missing shard-{number} directory"
                )
        self.replicas = int(replicas)
        self.control = bool(control)
        self._ready_timeout_s = float(ready_timeout_s)
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._primaries: list[_NodeHandle | None] = [None] * self.num_shards
        self._replicas: list[list[_NodeHandle | None]] = [
            [None] * self.replicas for _ in range(self.num_shards)
        ]
        self._started = False

    # -- introspection -------------------------------------------------
    @property
    def boundaries(self) -> list[float]:
        """The cluster's attribute split points (from the manifest)."""
        return list(self._map.boundaries)

    @property
    def num_shards(self) -> int:
        """Number of attribute-range shards."""
        return self._map.num_shards

    def primary_port(self, shard: int) -> int:
        """The (last known) port of a shard's primary."""
        handle = self._primaries[shard]
        if handle is None or handle.port is None:
            raise NodeError(f"shard {shard} has no started primary")
        return handle.port

    def replica_ports(self, shard: int) -> list[int]:
        """Ports of a shard's currently-alive replicas."""
        return [
            handle.port
            for handle in self._replicas[shard]
            if handle is not None and handle.alive and handle.port is not None
        ]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bring up every primary, then every replica."""
        if self._started:
            raise NodeError("cluster already started")
        self._started = True
        try:
            for shard in range(self.num_shards):
                self._primaries[shard] = self._spawn_primary(shard)
            for shard in range(self.num_shards):
                for replica in range(self.replicas):
                    self._replicas[shard][replica] = self._spawn_replica(
                        shard, replica
                    )
        except BaseException:  # repro: noqa-R004 — cleanup then re-raise
            self.stop()
            raise

    def _spawn_primary(self, shard: int) -> _NodeHandle:
        wal_dir = self.directory / f"shard-{shard}"
        handle = self._spawn(
            "primary",
            shard,
            None,
            _primary_main,
            (shard, str(wal_dir), self.control),
            f"repro-cluster-p{shard}",
        )
        return handle

    def _spawn_replica(self, shard: int, replica: int) -> _NodeHandle:
        wal_dir = self.directory / f"shard-{shard}"
        handle = self._spawn(
            "replica",
            shard,
            replica,
            _replica_main,
            (shard, str(wal_dir), self.primary_port(shard)),
            f"repro-cluster-r{shard}.{replica}",
        )
        return handle

    def _spawn(self, role, shard, replica, target, args, name) -> _NodeHandle:
        ctrl_recv, ctrl_send = self._ctx.Pipe(duplex=False)
        status_recv, status_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=target,
            args=(*args, ctrl_recv, status_send),
            daemon=True,
            name=name,
        )
        process.start()
        # Close the child's ends in the parent (pool.py discipline): the
        # child's inherited copies of our ends are harmless.
        ctrl_recv.close()
        status_send.close()
        handle = _NodeHandle(role, shard, replica, process, ctrl_send, status_recv)
        self._await_ready(handle)
        return handle

    def _await_ready(self, handle: _NodeHandle) -> None:
        """Block until the node sends its ready handshake (port, seq)."""
        deadline = time.monotonic() + self._ready_timeout_s
        name = handle.process.name
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NodeError(
                    f"{name} failed the ready handshake within "
                    f"{self._ready_timeout_s}s"
                )
            if handle.status_recv.poll(min(remaining, _POLL_S)):
                try:
                    message = handle.status_recv.recv()
                except (EOFError, OSError):
                    raise NodeError(
                        f"{name} died during startup "
                        f"(exitcode {handle.process.exitcode})"
                    )
                if message[0] == "ready":
                    handle.port = int(message[1])
                    handle.alive = True
                    return
            elif not handle.process.is_alive():
                raise NodeError(
                    f"{name} died during startup "
                    f"(exitcode {handle.process.exitcode})"
                )

    # -- chaos ---------------------------------------------------------
    def kill_primary(self, shard: int) -> None:
        """SIGKILL a shard's primary (no cleanup runs — chaos realism)."""
        self._kill(self._primaries[shard], f"shard {shard} primary")

    def kill_replica(self, shard: int, replica: int) -> None:
        """SIGKILL one of a shard's replicas."""
        self._kill(
            self._replicas[shard][replica],
            f"shard {shard} replica {replica}",
        )

    def _kill(self, handle: _NodeHandle | None, what: str) -> None:
        if handle is None or not handle.alive:
            raise NodeError(f"{what} is not running")
        handle.process.kill()
        handle.process.join(timeout=10.0)
        handle.alive = False
        handle.shutdown_pipes()

    def restart_primary(self, shard: int) -> int:
        """Respawn a shard's primary from durable state; retarget replicas.

        The new primary recovers from the newest snapshot plus the WAL
        tail (torn final lines from the kill are repaired on open), and
        every replica of the shard is told the new port so its ship
        loop reconnects there.

        Returns:
            The new primary's port.
        """
        old = self._primaries[shard]
        if old is not None and old.alive:
            raise NodeError(f"shard {shard} primary is still running")
        self._primaries[shard] = self._spawn_primary(shard)
        port = self.primary_port(shard)
        for handle in self._replicas[shard]:
            if handle is not None and handle.alive:
                try:
                    handle.ctrl_send.send(("primary", port))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
        return port

    def restart_replica(self, shard: int, replica: int) -> int:
        """Respawn one replica; it catches up from snapshot + stream.

        Returns:
            The new replica's port.
        """
        old = self._replicas[shard][replica]
        if old is not None and old.alive:
            raise NodeError(f"shard {shard} replica {replica} is still running")
        handle = self._spawn_replica(shard, replica)
        self._replicas[shard][replica] = handle
        return handle.port

    # -- shutdown ------------------------------------------------------
    def stop(self, *, timeout_s: float = 10.0) -> None:
        """Stop every node gracefully; terminate stragglers.  Idempotent."""
        handles = [h for h in self._primaries if h is not None]
        for per_shard in self._replicas:
            handles.extend(h for h in per_shard if h is not None)
        for handle in handles:
            if handle.alive:
                try:
                    handle.ctrl_send.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout_s
        for handle in handles:
            if handle.alive:
                handle.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                handle.alive = False
            handle.shutdown_pipes()
        self._primaries = [None] * self.num_shards
        self._replicas = [
            [None] * self.replicas for _ in range(self.num_shards)
        ]

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False
