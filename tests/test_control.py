"""Tests for repro.control: probes, knobs, the controller, and tiering."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.control import (
    BatchWindowKnob,
    ControlDaemon,
    KnobEnvelope,
    ProbeReport,
    BudgetRecallProbe,
    RecallProbe,
    ServiceLKnob,
    TieredReadPath,
)
from repro.control.probes import EXHAUSTIVE_L
from repro.core import RangePQ
from repro.core.adaptive import AdaptiveLPolicy, FixedLPolicy
from repro.frontend.batcher import BatchWindowPolicy
from repro.obs import Histogram
from repro.service import IndexService, MaintenanceDaemon, RangeShardedService

BUILD = dict(num_subspaces=4, num_clusters=6, num_codewords=8, seed=0)


def dataset(n=240, dim=8, seed=21):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim))
    attrs = rng.random(n) * 100.0
    ids = np.arange(n, dtype=np.int64)
    return ids, vectors, attrs


def factory(ids, vectors, attrs):
    return RangePQ.build(
        vectors,
        attrs,
        ids=ids,
        l_policy=AdaptiveLPolicy(l_base=64, r_base=0.1),
        **BUILD,
    )


def build_service(l_policy=None):
    ids, vectors, attrs = dataset()
    if l_policy is None:
        l_policy = AdaptiveLPolicy(l_base=64, r_base=0.1)
    index = RangePQ.build(
        vectors, attrs, ids=ids, l_policy=l_policy, **BUILD
    )
    return IndexService(index)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class TestRecallProbe:
    def test_empty_probe_reports_perfect_recall(self):
        ids, vectors, attrs = dataset()
        probe = RecallProbe(
            vectors, attrs, ids, np.empty((0, vectors.shape[1])), []
        )
        report = probe.measure(lambda *a: pytest.fail("must not query"))
        assert report.recall == 1.0
        assert report.num_queries == 0

    def test_mismatched_ranges_rejected(self):
        ids, vectors, attrs = dataset()
        with pytest.raises(ValueError, match="ranges"):
            RecallProbe(vectors, attrs, ids, vectors[:3], [(0.0, 1.0)])

    def test_exhaustive_budget_beats_tiny_budget(self):
        ids, vectors, attrs = dataset()
        probe = RecallProbe.sample(
            vectors, attrs, ids, num_queries=8, coverage=0.5, k=10, seed=0
        )
        service = build_service()
        try:
            full = probe.measure(
                lambda q, lo, hi, k: service.query(
                    q, lo, hi, k, l_budget=EXHAUSTIVE_L
                )
            )
            tiny = probe.measure(
                lambda q, lo, hi, k: service.query(q, lo, hi, k, l_budget=1)
            )
        finally:
            service.close()
        assert 0.0 <= tiny.recall <= full.recall <= 1.0
        assert full.worst <= full.recall
        assert full.num_queries == probe.num_queries == 8

    def test_refresh_drops_reference_cache(self):
        ids, vectors, attrs = dataset()
        probe = RecallProbe.sample(vectors, attrs, ids, num_queries=4)
        probe._exact_answers()
        assert probe._exact is not None
        probe.refresh(vectors[:100], attrs[:100], ids[:100])
        assert probe._exact is None


class TestBudgetRecallProbe:
    def test_exhaustive_policy_scores_perfect(self):
        service = build_service(l_policy=FixedLPolicy(l=EXHAUSTIVE_L))
        try:
            probe = BudgetRecallProbe.from_index(
                service.index, num_queries=6, seed=1
            )
            report = probe.measure(
                lambda q, lo, hi, k, l_budget=None: service.query(
                    q, lo, hi, k, l_budget=l_budget
                )
            )
        finally:
            service.close()
        assert report.recall == 1.0
        assert report.worst == 1.0
        assert report.num_queries == 6

    def test_starved_policy_scores_below_exhaustive(self):
        service = build_service(l_policy=FixedLPolicy(l=1))
        try:
            probe = BudgetRecallProbe.from_index(
                service.index, num_queries=8, coverage=0.5, seed=2
            )
            report = probe.measure(
                lambda q, lo, hi, k, l_budget=None: service.query(
                    q, lo, hi, k, l_budget=l_budget
                )
            )
        finally:
            service.close()
        assert report.recall < 1.0

    def test_requires_rangepq_family(self):
        with pytest.raises(TypeError, match="RangePQ-family"):
            BudgetRecallProbe.from_index(object())


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------
class TestKnobEnvelope:
    def test_validates_bounds_and_step(self):
        with pytest.raises(ValueError, match="min <= max"):
            KnobEnvelope(10, 5, 1)
        with pytest.raises(ValueError, match="step"):
            KnobEnvelope(0, 10, 0)

    def test_clamp_and_contains(self):
        envelope = KnobEnvelope(10, 20, 2)
        assert envelope.clamp(5) == 10
        assert envelope.clamp(25) == 20
        assert envelope.clamp(15) == 15
        assert envelope.contains(10) and not envelope.contains(21)


class TestServiceLKnob:
    def test_get_set_adaptive_preserves_r_base(self):
        service = build_service()
        try:
            knob = ServiceLKnob(service, KnobEnvelope(16, 128, 16))
            assert knob.get() == 64.0
            before = service.knobs()["version"]
            knob.set(1000)  # clamped to the envelope max
            assert knob.get() == 128.0
            policy = service.knobs()["l_policy"]
            assert policy.r_base == 0.1
            assert service.knobs()["version"] == before + 1
        finally:
            service.close()

    def test_set_steps_fixed_policy_through_l(self):
        service = build_service(l_policy=FixedLPolicy(l=32))
        try:
            knob = ServiceLKnob(service, KnobEnvelope(8, 64, 8))
            assert knob.get() == 32.0
            knob.set(48.7)
            assert knob.get() == 49.0
            assert isinstance(service.knobs()["l_policy"], FixedLPolicy)
        finally:
            service.close()

    def test_for_router_names_one_knob_per_shard(self):
        ids, vectors, attrs = dataset()
        router = RangeShardedService.build(
            ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        try:
            knobs = ServiceLKnob.for_router(router, KnobEnvelope(16, 256, 16))
            assert [k.name for k in knobs] == [
                "l_base[shard0]",
                "l_base[shard1]",
            ]
            knobs[1].set(96)
            assert [k.get() for k in knobs] == [64.0, 96.0]
        finally:
            router.close()


class TestBatchWindowKnob:
    def test_set_goes_through_override(self):
        policy = BatchWindowPolicy(floor_ms=0.5, cap_ms=8.0)
        knob = BatchWindowKnob(policy, KnobEnvelope(1.0, 6.0, 1.0))
        knob.set(10.0)  # envelope clamps to 6.0
        assert policy.override_ms == 6.0
        assert knob.get() == 6.0
        assert policy.window_s() == pytest.approx(0.006)
        policy.set_override(None)
        assert policy.override_ms is None


# ----------------------------------------------------------------------
# The controller (scripted probe + fake knobs: deterministic cycles)
# ----------------------------------------------------------------------
class FakeKnob:
    def __init__(self, value, envelope, name="fake"):
        self.name = name
        self.envelope = envelope
        self.value = float(value)

    def get(self):
        return self.value

    def set(self, value):
        self.value = float(self.envelope.clamp(value))


class ScriptedProbe:
    """Replays a recall script; repeats the last value forever."""

    def __init__(self, recalls):
        self.recalls = list(recalls)

    def measure(self, query_fn):
        recall = (
            self.recalls.pop(0) if len(self.recalls) > 1 else self.recalls[0]
        )
        return ProbeReport(recall=recall, num_queries=1, k=10)


def make_daemon(probe, knobs, hist, **kwargs):
    defaults = dict(
        recall_floor=0.9,
        recall_margin=0.0,
        p99_target_ms=10.0,
        latency_histogram=hist,
        min_window_samples=8,
        rollback_cooldown=2,
    )
    defaults.update(kwargs)
    return ControlDaemon(probe, lambda *a, **k: None, l_knobs=knobs, **defaults)


def feed(hist, value=100.0, count=32):
    for _ in range(count):
        hist.observe(value)


class TestControlDaemon:
    def test_raise_on_low_recall_commits_immediately(self):
        hist = Histogram("t.ctrl.raise")
        knob = FakeKnob(100, KnobEnvelope(50, 150, 25))
        daemon = make_daemon(ScriptedProbe([0.5]), [knob], hist)
        daemon.run_cycle()
        assert knob.value == 125.0
        daemon.run_cycle()  # recall still low: the raise must NOT revert
        assert knob.value == 150.0
        assert daemon.stats.rollbacks == 0
        assert {d.reason for d in daemon.decisions} == {"recall_low"}

    def test_envelope_pins_the_climb(self):
        hist = Histogram("t.ctrl.pin")
        knob = FakeKnob(150, KnobEnvelope(50, 150, 25))
        daemon = make_daemon(ScriptedProbe([0.5]), [knob], hist)
        out = daemon.run_cycle()
        assert out["adjusted"] == []
        assert knob.value == 150.0
        assert daemon.stats.adjustments == 0

    def test_lowering_is_provisional_and_rolls_back(self):
        hist = Histogram("t.ctrl.rollback")
        knob = FakeKnob(100, KnobEnvelope(50, 150, 25))
        daemon = make_daemon(ScriptedProbe([1.0, 0.5, 1.0]), [knob], hist)
        feed(hist)
        out = daemon.run_cycle()  # p99 high, recall fine: lower 100 -> 75
        assert [d.reason for d in out["adjusted"]] == ["p99_high"]
        assert knob.value == 75.0
        feed(hist)
        out = daemon.run_cycle()  # recall broke the floor: revert the move
        assert [d.knob for d in out["rolled_back"]] == ["fake"]
        assert knob.value == 100.0
        assert daemon.stats.rollbacks == 1
        # Cooldown: two cycles of no adjustments despite high p99.
        for _ in range(2):
            feed(hist)
            out = daemon.run_cycle()
            assert out["adjusted"] == [] and out["rolled_back"] == []
            assert knob.value == 100.0
        feed(hist)
        out = daemon.run_cycle()  # cooldown over: probing resumes
        assert knob.value == 75.0

    def test_validated_lowering_commits(self):
        hist = Histogram("t.ctrl.commit")
        knob = FakeKnob(100, KnobEnvelope(50, 150, 25))
        daemon = make_daemon(ScriptedProbe([1.0]), [knob], hist)
        feed(hist)
        daemon.run_cycle()
        feed(hist)
        daemon.run_cycle()  # recall held: the move commits, walk continues
        assert knob.value == 50.0
        assert daemon.stats.rollbacks == 0

    def test_cold_window_only_acts_on_recall(self):
        hist = Histogram("t.ctrl.cold")
        knob = FakeKnob(100, KnobEnvelope(50, 150, 25))
        daemon = make_daemon(ScriptedProbe([1.0]), [knob], hist)
        out = daemon.run_cycle()  # no latency samples at all
        assert out["adjusted"] == []
        assert daemon.stats.skipped_cold == 1
        assert knob.value == 100.0

    def test_window_knob_steps_only_when_l_is_pinned(self):
        hist = Histogram("t.ctrl.window")
        l_knob = FakeKnob(50, KnobEnvelope(50, 150, 25))
        window = FakeKnob(5.0, KnobEnvelope(1.0, 8.0, 2.0), name="win")
        daemon = make_daemon(
            ScriptedProbe([1.0, 0.5]),
            [l_knob],
            hist,
            window_knob=window,
        )
        feed(hist)
        out = daemon.run_cycle()  # L at its floor: the window sheds instead
        assert [d.knob for d in out["adjusted"]] == ["win"]
        assert window.value == 3.0
        feed(hist)
        out = daemon.run_cycle()  # recall breach: raise L, never roll back win
        assert daemon.stats.rollbacks == 0
        assert window.value == 3.0
        assert l_knob.value == 75.0

    def test_initial_value_outside_envelope_rejected(self):
        hist = Histogram("t.ctrl.validate")
        knob = FakeKnob(200, KnobEnvelope(50, 150, 25))
        with pytest.raises(ValueError, match="outside"):
            make_daemon(ScriptedProbe([1.0]), [knob], hist)

    def test_constructor_validates_parameters(self):
        hist = Histogram("t.ctrl.params")
        knob = FakeKnob(100, KnobEnvelope(50, 150, 25))
        with pytest.raises(ValueError, match="recall_floor"):
            make_daemon(ScriptedProbe([1.0]), [knob], hist, recall_floor=1.5)
        with pytest.raises(ValueError, match="p99_target_ms"):
            make_daemon(ScriptedProbe([1.0]), [knob], hist, p99_target_ms=0.0)

    def test_background_thread_cycles_and_stops(self):
        hist = Histogram("t.ctrl.thread")
        knob = FakeKnob(100, KnobEnvelope(50, 150, 25))
        daemon = make_daemon(
            ScriptedProbe([1.0]), [knob], hist, interval_s=0.005
        )
        with daemon:
            assert daemon.running
            daemon.poke()
            deadline = time.monotonic() + 5.0
            while daemon.stats.cycles == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert not daemon.running
        assert daemon.stats.cycles > 0
        assert daemon.stats.errors == 0


# ----------------------------------------------------------------------
# Tiered hot/cold storage
# ----------------------------------------------------------------------
@pytest.fixture
def router():
    ids, vectors, attrs = dataset()
    service = RangeShardedService.build(
        ids, vectors, attrs, num_shards=2, index_factory=factory
    )
    yield service
    service.close()


def assert_bitwise(tiered, router, seed=3, num_queries=6, k=5):
    rng = np.random.default_rng(seed)
    for _ in range(num_queries):
        vector = rng.standard_normal(8)
        lo, hi = np.sort(rng.random(2) * 100.0)
        got = tiered.query(vector, float(lo), float(hi), k)
        want = router.query(vector, float(lo), float(hi), k)
        np.testing.assert_array_equal(want.ids, got.ids)
        np.testing.assert_array_equal(want.distances, got.distances)


class TestTieredReadPath:
    def test_cold_then_hot_answers_bitwise_match_router(
        self, router, tmp_path
    ):
        with TieredReadPath.for_router(
            router, snapshot_dir=tmp_path, hot_capacity=1
        ) as tiered:
            assert [tiered.tier_of(n) for n in range(2)] == ["cold", "cold"]
            assert_bitwise(tiered, router)
            tiered.record_access(0, 10)
            report = tiered.rebalance()
            assert report["promoted"] == [0]
            assert tiered.tier_of(0) == "hot"
            assert tiered.hot_bytes() > 0
            assert_bitwise(tiered, router)  # placement must not change answers

    def test_inverted_range_across_shards_is_empty(self, router, tmp_path):
        with TieredReadPath.for_router(router, snapshot_dir=tmp_path) as tiered:
            assert tiered.shard_for_attr(90.0) != tiered.shard_for_attr(10.0)
            got = tiered.query(np.zeros(8), 90.0, 10.0, 5)
            want = router.query(np.zeros(8), 90.0, 10.0, 5)
            assert len(got) == 0 and got.stats.num_in_range == 0
            np.testing.assert_array_equal(want.ids, got.ids)
            np.testing.assert_array_equal(want.distances, got.distances)

    def test_rebalance_never_promotes_unaccessed_shards(
        self, router, tmp_path
    ):
        with TieredReadPath.for_router(
            router, snapshot_dir=tmp_path, hot_capacity=2
        ) as tiered:
            report = tiered.rebalance()
            assert report == {"promoted": [], "demoted": [], "deferred": []}
            assert tiered.stats.promotions == 0

    def test_hysteresis_damps_placement_thrash(self, router, tmp_path):
        with TieredReadPath.for_router(
            router, snapshot_dir=tmp_path, hot_capacity=1, hysteresis=1.0
        ) as tiered:
            tiered.record_access(0, 10)
            assert tiered.rebalance()["promoted"] == [0]
            # A marginally warmer challenger does not displace the incumbent.
            tiered.record_access(1, 10)
            report = tiered.rebalance()
            assert report["promoted"] == [] and report["demoted"] == []
            assert tiered.tier_of(0) == "hot"
            # A decisively warmer one does.
            tiered.record_access(1, 50)
            report = tiered.rebalance()
            assert report["promoted"] == [1]
            assert report["demoted"] == [0]
            assert tiered.tier_of(0) == "cold"

    def test_demotion_deferred_while_leases_in_flight(self, router, tmp_path):
        with TieredReadPath.for_router(
            router, snapshot_dir=tmp_path, hot_capacity=1, hysteresis=0.0
        ) as tiered:
            tiered.record_access(0, 10)
            tiered.rebalance()
            with tiered._mutex:  # a reader mid-flight on shard 0's placement
                placement = tiered._states[0].placement
                placement.leases += 1
            tiered.record_access(1, 100)
            report = tiered.rebalance()
            assert report["deferred"] == [0]
            assert report["promoted"] == [1]
            assert tiered.tier_of(0) == "hot"  # never yanked under a reader
            assert tiered.stats.deferred_demotions == 1
            with tiered._mutex:
                placement.leases -= 1
            report = tiered.rebalance()
            assert report["demoted"] == [0]
            assert tiered.tier_of(0) == "cold"

    def test_policy_swap_refreshes_placement(self, router, tmp_path):
        with TieredReadPath.for_router(
            router, snapshot_dir=tmp_path
        ) as tiered:
            tiered.warm()
            old = tiered.placements()[0]["version"]
            policy = router.shard_knobs()[0]["l_policy"]
            from dataclasses import replace

            router.set_shard_l_policy(0, replace(policy, l_base=16))
            assert_bitwise(tiered, router)  # rebuilds, then matches in-process
            assert tiered.stats.refreshes >= 1
            assert tiered.placements()[0]["version"] > old

    def test_warm_builds_placements_without_counting_accesses(
        self, router, tmp_path
    ):
        with TieredReadPath.for_router(
            router, snapshot_dir=tmp_path
        ) as tiered:
            tiered.warm()
            assert all(p["version"] >= 0 for p in tiered.placements())
            assert tiered.ewma_of(0) == 0.0
            assert tiered.rebalance()["promoted"] == []

    def test_close_is_idempotent_and_blocks_queries(self, router, tmp_path):
        tiered = TieredReadPath.for_router(router, snapshot_dir=tmp_path)
        tiered.warm()
        tiered.close()
        tiered.close()
        with pytest.raises(RuntimeError, match="closed"):
            tiered.query(np.zeros(8), 0.0, 100.0, 5)

    def test_validates_constructor_arguments(self, router, tmp_path):
        with pytest.raises(ValueError, match="hot_capacity"):
            TieredReadPath.for_router(
                router, snapshot_dir=tmp_path, hot_capacity=-1
            )
        with pytest.raises(ValueError, match="boundaries"):
            TieredReadPath(
                router.shards, [1.0, 2.0], snapshot_dir=tmp_path
            )


# ----------------------------------------------------------------------
# Controller racing the maintenance daemon on the same shard
# ----------------------------------------------------------------------
class TestControllerMaintenanceRace:
    def test_knob_swaps_serialize_with_rebuilds_and_writes(self, tmp_path):
        """A controller adjusting ``l_base`` while the maintenance daemon
        rebuilds and snapshots the same service (with a writer mutating it)
        must never torn-read a policy, corrupt the index, or error out.
        Runs under ``REPRO_SANITIZE=1`` in CI's sanitize job."""
        ids, vectors, attrs = dataset(n=300)
        index = RangePQ.build(
            vectors,
            attrs,
            ids=ids,
            l_policy=AdaptiveLPolicy(l_base=64, r_base=0.1),
            **BUILD,
        )
        service = IndexService(
            index, wal_dir=tmp_path / "wal", snapshot_every=25
        )
        envelope = KnobEnvelope(16, 256, 16)
        probe = BudgetRecallProbe.from_index(index, num_queries=4, seed=5)
        daemon = ControlDaemon(
            probe,
            lambda q, lo, hi, k, l_budget=None: service.query(
                q, lo, hi, k, l_budget=l_budget
            ),
            l_knobs=[ServiceLKnob(service, envelope)],
            recall_floor=0.99,  # aggressive: force knob traffic
            p99_target_ms=0.001,
            min_window_samples=1,
            rollback_cooldown=0,
            interval_s=0.002,
        )
        errors: list[BaseException] = []

        def writer():
            rng = np.random.default_rng(7)
            try:
                for i in range(120):
                    service.insert(
                        10_000 + i,
                        rng.standard_normal(8),
                        float(rng.random() * 100.0),
                    )
                    if i % 3 == 0:
                        service.delete(10_000 + i)
                    service.query(
                        rng.standard_normal(8), 10.0, 90.0, 5
                    )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        with MaintenanceDaemon(service, interval_s=0.002):
            with daemon:
                thread = threading.Thread(target=writer)
                thread.start()
                deadline = time.monotonic() + 30.0
                while daemon.stats.cycles < 5 and time.monotonic() < deadline:
                    time.sleep(0.005)
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        assert errors == []
        assert daemon.stats.cycles >= 5
        assert daemon.stats.errors == 0, daemon.last_error
        policy = service.knobs()["l_policy"]
        assert envelope.contains(policy.l_base)
        assert policy.r_base == 0.1  # never torn across swaps
        service.check_invariants()
        service.close()
