"""Tests for repro.cluster: WAL shipping, supervision, chaos, oracle gate."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterError,
    ClusterSupervisor,
    NeedsResync,
    NodeError,
    WalShipper,
    apply_stream,
    seed_shards,
)
from repro.cluster import coordinator as coordinator_module
from repro.cluster.bench import run_cluster_bench
from repro.core import RangePQ
from repro.frontend.protocol import recv_frame
from repro.obs import counter, gauge
from repro.service import WriteAheadLog
from repro.service.router import RangeShardedService
from repro.service.wal import latest_snapshot, record_from_payload

BUILD = dict(num_subspaces=4, num_clusters=6, num_codewords=8, seed=0)


def factory(ids, vectors, attrs):
    return RangePQ.build(vectors, attrs, ids=ids, **BUILD)


@pytest.fixture(scope="module")
def seeddata():
    rng = np.random.default_rng(21)
    n, dim = 240, 8
    vectors = rng.standard_normal((n, dim))
    attrs = rng.random(n) * 100.0
    ids = np.arange(n, dtype=np.int64)
    return ids, vectors, attrs


def tiny_index():
    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((120, 8))
    attrs = rng.random(120) * 100.0
    return RangePQ.build(vectors, attrs, **BUILD)


# ----------------------------------------------------------------------
# The replication stream (shipper + apply_stream over a socketpair)
# ----------------------------------------------------------------------
class TestWalShipper:
    def serve_in_thread(self, shipper, sock, start_seq, stop):
        thread = threading.Thread(
            target=shipper.serve, args=(sock, start_seq, stop), daemon=True
        )
        thread.start()
        return thread

    def test_ships_backlog_then_tails_live_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        vector = np.arange(4, dtype=np.float64)
        wal.append_insert(1, 5.5, vector)
        wal.append_delete(1)
        shipper = WalShipper(
            wal, poll_interval_s=0.002, heartbeat_interval_s=60.0
        )
        server, client = socket.socketpair()
        stop = threading.Event()
        thread = self.serve_in_thread(shipper, server, 0, stop)
        try:
            frame = recv_frame(client)
            assert frame["type"] == "records"
            assert [p["seq"] for p in frame["records"]] == [1, 2]
            assert frame["last_seq"] == 2
            first = record_from_payload(frame["records"][0])
            assert (first.op, first.oid, first.attr) == ("insert", 1, 5.5)
            assert first.vector == vector.tolist()
            wal.append_delete(7)  # appended while the stream is live
            frame = recv_frame(client)
            assert [p["seq"] for p in frame["records"]] == [3]
        finally:
            stop.set()
            thread.join(timeout=5.0)
            server.close()
            client.close()
        assert not thread.is_alive()
        wal.close()

    def test_heartbeats_keep_lag_observable_when_idle(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        shipper = WalShipper(
            wal, poll_interval_s=0.001, heartbeat_interval_s=0.01
        )
        server, client = socket.socketpair()
        stop = threading.Event()
        thread = self.serve_in_thread(shipper, server, 1, stop)
        try:
            frame = recv_frame(client)  # already caught up: only heartbeats
            assert frame == {"type": "heartbeat", "last_seq": 1}
        finally:
            stop.set()
            thread.join(timeout=5.0)
            server.close()
            client.close()
        wal.close()

    def test_subscriber_behind_log_horizon_gets_resync(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for oid in range(1, 4):
            wal.append_delete(oid)
        wal.write_snapshot(tiny_index())  # horizon 3; records 1..3 folded
        shipper = WalShipper(wal)
        server, client = socket.socketpair()
        stop = threading.Event()
        thread = self.serve_in_thread(shipper, server, 0, stop)
        try:
            with pytest.raises(NeedsResync) as info:
                apply_stream(client, lambda records, last_seq: None)
            assert info.value.snapshot_seq == 3
            thread.join(timeout=5.0)  # serve returns after sending resync
            assert not thread.is_alive()
        finally:
            stop.set()
            server.close()
            client.close()
        wal.close()

    def test_apply_stream_returns_on_clean_eof(self, tmp_path):
        server, client = socket.socketpair()
        server.close()  # the primary went away cleanly
        batches: list = []
        assert (
            apply_stream(client, lambda records, seq: batches.append(records))
            is None
        )
        assert batches == []
        client.close()


# ----------------------------------------------------------------------
# Seeding and supervision plumbing
# ----------------------------------------------------------------------
class TestSeeding:
    def test_seed_shards_lays_out_directories(self, seeddata, tmp_path):
        ids, vectors, attrs = seeddata
        boundaries = seed_shards(
            tmp_path, ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        assert len(boundaries) == 1
        assert (tmp_path / "cluster.json").exists()
        for shard in range(2):
            newest = latest_snapshot(tmp_path / f"shard-{shard}")
            assert newest is not None and newest[0] == 0

    def test_seed_shards_rejects_empty_shard(self, tmp_path):
        attrs = np.full(64, 50.0)  # all mass on one value: shard 0 empty
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="empty"):
            seed_shards(
                tmp_path,
                np.arange(64, dtype=np.int64),
                rng.standard_normal((64, 8)),
                attrs,
                num_shards=2,
                index_factory=factory,
            )

    def test_supervisor_requires_manifest(self, tmp_path):
        with pytest.raises(NodeError, match="cluster.json"):
            ClusterSupervisor(tmp_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"boundaries": [50.0]}, "3 shards need 2 boundaries"),
            ({"boundaries": [60.0, 40.0]}, "increasing"),
        ],
        ids=["count", "order"],
    )
    def test_supervisor_rejects_inconsistent_manifest(
        self, seeddata, tmp_path, edit, message
    ):
        ids, vectors, attrs = seeddata
        seed_shards(
            tmp_path, ids, vectors, attrs, num_shards=3, index_factory=factory
        )
        path = tmp_path / "cluster.json"
        manifest = json.loads(path.read_text())
        manifest.update(edit)
        path.write_text(json.dumps(manifest))
        with pytest.raises(NodeError, match=message):
            ClusterSupervisor(tmp_path)


# ----------------------------------------------------------------------
# End-to-end: cluster answers must be bitwise-identical to the
# single-process RangeShardedService oracle.
# ----------------------------------------------------------------------
def _oracle(seeddata):
    ids, vectors, attrs = seeddata
    return RangeShardedService.build(
        ids, vectors, attrs, num_shards=2, index_factory=factory
    )


def _assert_matches_oracle(
    coordinator, oracle, rng, num_queries=8, k=5, *, crossing=None
):
    """Scattered cluster queries == oracle queries, to the last bit.

    With ``crossing`` (an attribute boundary), every range straddles it.
    """
    for _ in range(num_queries):
        vector = rng.standard_normal(8)
        if crossing is None:
            lo, hi = np.sort(rng.random(2) * 100.0)
        else:
            lo = rng.random() * crossing
            hi = crossing + rng.random() * (100.0 - crossing)
        got = coordinator.query(vector, float(lo), float(hi), k)
        want = oracle.query(vector, float(lo), float(hi), k)
        np.testing.assert_array_equal(want.ids, got.ids)
        np.testing.assert_array_equal(want.distances, got.distances)


class TestClusterEndToEnd:
    def test_cluster_matches_oracle_bitwise(self, seeddata, tmp_path):
        ids, vectors, attrs = seeddata
        seed_shards(
            tmp_path, ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        oracle = _oracle(seeddata)
        rng = np.random.default_rng(3)
        with ClusterSupervisor(tmp_path, replicas=1) as supervisor:
            with ClusterCoordinator(supervisor) as coordinator:
                assert len(coordinator) == len(ids)
                for i in range(10):
                    vector = rng.standard_normal(8)
                    attr = float(rng.random() * 100.0)
                    coordinator.insert(1000 + i, vector, attr)
                    oracle.insert(1000 + i, vector, attr)
                for oid in (3, 5, 7):
                    coordinator.delete(oid)
                    oracle.delete(oid)
                # A failed insert releases its oid reservation.
                with pytest.raises(ClusterError):
                    coordinator.insert(1100, np.zeros(3), 50.0)  # wrong dim
                assert 1100 not in coordinator
                vector = rng.standard_normal(8)
                coordinator.insert(1100, vector, 50.0)
                oracle.insert(1100, vector, 50.0)
                coordinator.sync()
                coordinator.check_invariants()
                _assert_matches_oracle(coordinator, oracle, rng)
                # An inverted range across the boundary overlaps no shard.
                vector = rng.standard_normal(8)
                got = coordinator.query(vector, 90.0, 10.0, 5)
                want = oracle.query(vector, 90.0, 10.0, 5)
                assert len(got) == 0 and got.stats.num_in_range == 0
                np.testing.assert_array_equal(want.ids, got.ids)
                np.testing.assert_array_equal(want.distances, got.distances)
        oracle.close()

    def test_chaos_kill_replica_and_primary_then_recover(
        self, seeddata, tmp_path
    ):
        """The acceptance chaos test: SIGKILL mid-run, recover, match oracle.

        A replica dies mid-stream and a primary dies between acknowledged
        writes; both are restarted from durable state (newest snapshot +
        WAL tail), replicas catch up over the stream, and the recovered
        cluster's scattered reads stay bitwise-identical to the oracle.
        """
        ids, vectors, attrs = seeddata
        seed_shards(
            tmp_path, ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        oracle = _oracle(seeddata)
        rng = np.random.default_rng(9)
        with ClusterSupervisor(tmp_path, replicas=1) as supervisor:
            coordinator = ClusterCoordinator(supervisor)
            for i in range(6):
                vector = rng.standard_normal(8)
                attr = float(rng.random() * 100.0)
                coordinator.insert(2000 + i, vector, attr)
                oracle.insert(2000 + i, vector, attr)

            supervisor.kill_replica(0, 0)  # mid-stream
            # Shard 0 has no live replica now, so a boundary-crossing
            # scatter asks its primary alongside shard 1's replica.
            coordinator.sync(timeout_s=60.0)  # shard 1's replica only
            fallbacks = counter("cluster.coordinator.replica_fallbacks").value
            _assert_matches_oracle(
                coordinator, oracle, rng, crossing=supervisor.boundaries[0]
            )
            assert (
                counter("cluster.coordinator.replica_fallbacks").value
                == fallbacks + 8
            )
            supervisor.kill_primary(0)  # between acknowledged writes
            supervisor.restart_primary(0)
            supervisor.restart_replica(0, 0)

            for i in range(6, 12):
                vector = rng.standard_normal(8)
                attr = float(rng.random() * 100.0)
                coordinator.insert(2000 + i, vector, attr)
                oracle.insert(2000 + i, vector, attr)
            for oid in (2, 4):
                coordinator.delete(oid)
                oracle.delete(oid)

            coordinator.sync(timeout_s=60.0)
            report = coordinator.stats()
            for shard in report["shards"]:
                target = shard["primary"]["last_seq"]
                for replica in shard["replicas"]:
                    assert replica is not None
                    assert replica["applied_seq"] == target
                    assert replica["lag"] == 0
            coordinator.check_invariants()
            _assert_matches_oracle(coordinator, oracle, rng)
            coordinator.close()
        oracle.close()

    def test_restarted_replica_catches_up_from_snapshot_plus_tail(
        self, seeddata, tmp_path
    ):
        """A dead replica's records can be folded into a snapshot.

        While the replica is down, the primary keeps writing *and*
        snapshots (truncating the log past the replica's old position).
        The restart must bootstrap from the newest snapshot and apply
        only the tail beyond it — exactly the catch-up protocol.
        """
        ids, vectors, attrs = seeddata
        seed_shards(
            tmp_path, ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        oracle = _oracle(seeddata)
        rng = np.random.default_rng(17)
        with ClusterSupervisor(tmp_path, replicas=1) as supervisor:
            coordinator = ClusterCoordinator(supervisor)
            low_attr = supervisor.boundaries[0] / 2.0  # routes to shard 0

            vector = rng.standard_normal(8)
            coordinator.insert(3000, vector, low_attr)
            oracle.insert(3000, vector, low_attr)

            supervisor.kill_replica(0, 0)
            for i in range(5):
                vector = rng.standard_normal(8)
                coordinator.insert(3100 + i, vector, low_attr)
                oracle.insert(3100 + i, vector, low_attr)
            snapshot_seq = coordinator.snapshot(0)  # folds the log
            for i in range(3):
                vector = rng.standard_normal(8)
                coordinator.insert(3200 + i, vector, low_attr)
                oracle.insert(3200 + i, vector, low_attr)

            supervisor.restart_replica(0, 0)
            coordinator.sync(timeout_s=60.0)
            replica = coordinator.stats()["shards"][0]["replicas"][0]
            assert replica is not None
            assert replica["applied_seq"] > snapshot_seq  # tail applied
            _assert_matches_oracle(coordinator, oracle, rng)
            coordinator.close()
        oracle.close()


# ----------------------------------------------------------------------
# The pipelined scatter: every shard is asked before any reply is read.
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def idle_cluster(seeddata, tmp_path_factory):
    """A seeded 2-shard x 1-replica cluster with no writes, and its oracle."""
    ids, vectors, attrs = seeddata
    directory = tmp_path_factory.mktemp("idle-cluster")
    seed_shards(
        directory, ids, vectors, attrs, num_shards=2, index_factory=factory
    )
    oracle = _oracle(seeddata)
    with ClusterSupervisor(directory, replicas=1) as supervisor:
        yield supervisor, oracle
    oracle.close()


class TestPipelinedScatter:
    def _record_frames(self, monkeypatch, recv_fault=None):
        """Log the coordinator's send/recv calls as ``(op, socket)``.

        ``recv_fault(sock)`` may return an exception to raise in place of
        that receive (the reply then stays unread on the socket).
        """
        log = []
        send = coordinator_module.send_frame
        recv = coordinator_module.recv_frame

        def logged_send(sock, message):
            log.append(("send", sock))
            send(sock, message)

        def logged_recv(sock):
            log.append(("recv", sock))
            error = recv_fault(sock) if recv_fault is not None else None
            if error is not None:
                raise error
            return recv(sock)

        monkeypatch.setattr(coordinator_module, "send_frame", logged_send)
        monkeypatch.setattr(coordinator_module, "recv_frame", logged_recv)
        return log

    def test_fan_out_sends_every_shard_before_the_first_receive(
        self, idle_cluster, monkeypatch
    ):
        supervisor, oracle = idle_cluster
        boundary = supervisor.boundaries[0]
        vector = np.random.default_rng(5).standard_normal(8)
        with ClusterCoordinator(supervisor) as coordinator:
            coordinator.sync()
            log = self._record_frames(monkeypatch)
            got = coordinator.query(vector, boundary / 2, boundary + 10.0, 5)
            assert [op for op, _ in log] == ["send", "send", "recv", "recv"]
            assert log[0][1] is not log[1][1]  # two nodes, not one twice
            sent = [sock for _, sock in log[:2]]
            assert [sock for _, sock in log[2:]] == sent  # in shard order
            want = oracle.query(vector, boundary / 2, boundary + 10.0, 5)
            np.testing.assert_array_equal(want.ids, got.ids)
            np.testing.assert_array_equal(want.distances, got.distances)

            log.clear()
            coordinator.query(vector, 0.0, boundary / 2, 5)
            assert [op for op, _ in log] == ["send", "recv"]

    def test_failed_receive_drops_connection_and_falls_back(
        self, idle_cluster, monkeypatch
    ):
        supervisor, oracle = idle_cluster
        boundary = supervisor.boundaries[0]
        rng = np.random.default_rng(6)
        with ClusterCoordinator(supervisor) as coordinator:
            coordinator.sync()
            _assert_matches_oracle(
                coordinator, oracle, rng, num_queries=1, crossing=boundary
            )
            key = ("replica", 0, 0)
            target = coordinator._conns[key]
            faults = [OSError("injected receive failure")]

            def fault(sock):
                return faults.pop() if sock is target and faults else None

            self._record_frames(monkeypatch, recv_fault=fault)
            _assert_matches_oracle(
                coordinator, oracle, rng, num_queries=1, crossing=boundary
            )
            assert not faults  # the fault fired
            assert target.fileno() == -1  # closed with its reply unread
            assert key not in coordinator._conns
            # A stale reply read later would show up as a mismatch.
            _assert_matches_oracle(
                coordinator, oracle, rng, num_queries=20, crossing=boundary
            )

    def test_exception_mid_gather_drops_every_unread_connection(
        self, idle_cluster, monkeypatch
    ):
        supervisor, oracle = idle_cluster
        boundary = supervisor.boundaries[0]
        rng = np.random.default_rng(7)
        with ClusterCoordinator(supervisor) as coordinator:
            coordinator.sync()
            _assert_matches_oracle(
                coordinator, oracle, rng, num_queries=1, crossing=boundary
            )
            sent = [coordinator._conns[("replica", s, 0)] for s in (0, 1)]
            faults = [RuntimeError("injected")]

            def fault(sock):
                return faults.pop() if faults else None

            self._record_frames(monkeypatch, recv_fault=fault)
            with pytest.raises(RuntimeError, match="injected"):
                coordinator.query(rng.standard_normal(8), 1.0, 99.0, 5)
            assert all(sock.fileno() == -1 for sock in sent)
            assert not any(key[0] == "replica" for key in coordinator._conns)
            _assert_matches_oracle(
                coordinator, oracle, rng, num_queries=20, crossing=boundary
            )


class _StubSupervisor:
    """Just enough of a ClusterSupervisor for a coordinator on stubs."""

    boundaries = [50.0]
    num_shards = 2

    def replica_ports(self, shard):
        return [7000 + shard]


def test_sync_publishes_the_worst_lag_of_the_call(monkeypatch):
    """Shard 0's replica is 3 records behind on the first poll, then
    caught up; shard 1's is never behind.  The gauge reads the gap, not
    the last replica polled."""
    last_seq = {("primary", 0): 10, ("primary", 1): 4}
    applied = {("replica", 0, 0): [7, 10], ("replica", 1, 0): [4, 4]}

    def stub_scatter(self, keys, request):
        if request["type"] == "ids":
            return [{"ok": True, "ids": [key[1]]} for key in keys]
        return [
            {"ok": True, "last_seq": last_seq[key]}
            if key[0] == "primary"
            else {"ok": True, "applied_seq": applied[key].pop(0)}
            for key in keys
        ]

    monkeypatch.setattr(ClusterCoordinator, "_scatter", stub_scatter)
    coordinator = ClusterCoordinator(_StubSupervisor())
    assert coordinator.sync(timeout_s=5.0) == 10
    assert gauge("cluster.coordinator.max_lag_records").value == 3
    assert applied == {("replica", 0, 0): [], ("replica", 1, 0): [4]}


class TestClusterBench:
    def test_smoke_chaos_profile_has_no_oracle_violations(self):
        result = run_cluster_bench(
            n=300,
            num_shards=2,
            replicas=1,
            writes=30,
            num_queries=8,
            seed=1,
            chaos=True,
            verbose=False,
        )
        assert result.ops == 30
        assert result.queries == 8
        assert result.violations == 0


# ----------------------------------------------------------------------
# Per-primary self-tuning controller (repro.control inside the node)
# ----------------------------------------------------------------------
class TestClusterControl:
    def _control_factory(self, ids, vectors, attrs):
        from repro.core.adaptive import AdaptiveLPolicy

        return RangePQ.build(
            vectors,
            attrs,
            ids=ids,
            l_policy=AdaptiveLPolicy(l_base=64, r_base=0.1),
            **BUILD,
        )

    def _ask(self, sock, request):
        from repro.frontend.protocol import send_frame

        send_frame(sock, request)
        return recv_frame(sock)

    def test_primary_controller_serves_control_requests(
        self, seeddata, tmp_path
    ):
        ids, vectors, attrs = seeddata
        seed_shards(
            tmp_path,
            ids,
            vectors,
            attrs,
            num_shards=2,
            index_factory=self._control_factory,
        )
        with ClusterSupervisor(tmp_path, replicas=0, control=True) as sup:
            sock = socket.create_connection(
                ("127.0.0.1", sup.primary_port(0)), timeout=10.0
            )
            try:
                reply = self._ask(sock, {"type": "control"})
                assert reply["ok"] and reply["enabled"]
                assert reply["knobs"] == {"l_base": 64.0}
                reply = self._ask(sock, {"type": "control", "cycle": True})
                assert reply["cycles"] >= 1
                assert reply["probe_passes"] >= 1
                assert 0.0 <= reply["cycle_report"]["recall"] <= 1.0
                # The query plane keeps serving alongside the controller.
                reply = self._ask(
                    sock,
                    {
                        "type": "query",
                        "vector": vectors[0].tolist(),
                        "lo": 0.0,
                        "hi": 100.0,
                        "k": 5,
                    },
                )
                assert reply["ok"] and len(reply["ids"]) == 5
            finally:
                sock.close()

    def test_control_disabled_by_default(self, seeddata, tmp_path):
        ids, vectors, attrs = seeddata
        seed_shards(
            tmp_path, ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        with ClusterSupervisor(tmp_path, replicas=0) as sup:
            sock = socket.create_connection(
                ("127.0.0.1", sup.primary_port(0)), timeout=10.0
            )
            try:
                assert self._ask(sock, {"type": "control"}) == {
                    "ok": True,
                    "enabled": False,
                }
            finally:
                sock.close()
