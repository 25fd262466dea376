"""Tests for attribute-range sharding: routing, scatter-gather merge,
completeness, and shard-local maintenance."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import RangePQ
from repro.service import (
    MaintenanceDaemon,
    RangeShardedService,
    quantile_boundaries,
)

BUILD = dict(num_subspaces=4, num_clusters=8, num_codewords=16, seed=0)


def factory(ids, vectors, attrs):
    return RangePQ.build(vectors, attrs, ids=ids, **BUILD)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(13)
    n = 600
    vectors = rng.standard_normal((n, 16))
    attrs = rng.random(n) * 100.0
    ids = np.arange(n, dtype=np.int64)
    queries = rng.standard_normal((5, 16))
    return ids, vectors, attrs, queries


@pytest.fixture()
def router(dataset):
    ids, vectors, attrs, _ = dataset
    return RangeShardedService.build(
        ids, vectors, attrs, num_shards=4, index_factory=factory
    )


class TestBoundaries:
    def test_quantile_boundaries(self):
        attrs = np.arange(100, dtype=np.float64)
        bounds = quantile_boundaries(attrs, 4)
        assert len(bounds) == 3
        assert bounds == sorted(bounds)

    def test_single_shard_no_boundaries(self):
        assert quantile_boundaries(np.arange(10.0), 1) == []

    def test_duplicate_quantiles_collapse(self):
        attrs = np.array([1.0] * 50 + [2.0] * 50)
        assert len(quantile_boundaries(attrs, 8)) < 7

    def test_bad_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            quantile_boundaries(np.arange(10.0), 0)


class TestRouting:
    def test_shards_partition_population(self, dataset, router):
        ids, _, attrs, _ = dataset
        assert len(router) == len(ids)
        for oid, attr in zip(ids.tolist(), attrs.tolist()):
            target = router.shard_for_attr(attr)
            assert oid in router.shards[target].index
        router.check_invariants()

    def test_insert_routes_by_attr(self, dataset, router):
        rng = np.random.default_rng(0)
        attr = 50.0
        router.insert(10_000, rng.standard_normal(16), attr)
        assert 10_000 in router
        target = router.shard_for_attr(attr)
        assert 10_000 in router.shards[target].index
        router.delete(10_000)
        assert 10_000 not in router
        router.check_invariants()

    def test_duplicate_insert_rejected(self, dataset, router):
        rng = np.random.default_rng(1)
        router.insert(10_500, rng.standard_normal(16), 10.0)
        with pytest.raises(ValueError, match="already present"):
            router.insert(10_500, rng.standard_normal(16), 90.0)
        router.delete(10_500)

    def test_unknown_delete_raises(self, router):
        with pytest.raises(KeyError):
            router.delete(999_999)

    def test_failed_insert_releases_its_reservation(self, router):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            router.insert(10_700, rng.standard_normal(3), 50.0)  # wrong dim
        assert 10_700 not in router
        router.insert(10_700, rng.standard_normal(16), 50.0)
        assert 10_700 in router
        router.check_invariants()
        router.delete(10_700)

    def test_racing_duplicate_inserts_land_in_one_shard(self, router):
        """Threads inserting the same oids at attrs in different shards:
        the reservation lets exactly one insert per oid through."""
        oids = range(20_000, 20_040)
        wins: list[int] = []
        errors: list[BaseException] = []

        def writer(attr):
            rng = np.random.default_rng(int(attr))
            for oid in oids:
                try:
                    router.insert(oid, rng.standard_normal(16), attr)
                    wins.append(oid)
                except ValueError:
                    pass
                except BaseException as error:  # surfaced below
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(attr,))
                for attr in (5.0, 35.0, 65.0, 95.0)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert sorted(wins) == list(oids)
        router.check_invariants()

    def test_mismatched_boundaries_rejected(self, router):
        with pytest.raises(ValueError, match="boundaries"):
            RangeShardedService(router.shards, [1.0])


class TestScatterGather:
    def test_narrow_range_hits_one_shard(self, dataset, router):
        _, _, _, queries = dataset
        # A range strictly inside shard 0's interval.
        hi = router.boundaries[0] * 0.5
        reads_before = [s.stats.reads for s in router.shards]
        router.query(queries[0], 0.0, hi, k=5)
        reads_after = [s.stats.reads for s in router.shards]
        assert reads_after[0] == reads_before[0] + 1
        assert reads_after[1:] == reads_before[1:]

    def test_universe_query_completeness(self, dataset, router):
        """A range holding <= k objects must return exactly that set."""
        ids, _, attrs, queries = dataset
        order = np.argsort(attrs)
        # Pick a window of 12 consecutive attribute values spanning a
        # boundary, so the scatter-gather path (not a single shard) serves
        # it; with k >= window size and a full budget, approximate search
        # degenerates to exact set retrieval.
        boundary = router.boundaries[1]
        start = int(np.searchsorted(np.sort(attrs), boundary)) - 6
        window = order[start : start + 12]
        lo = float(attrs[window].min())
        hi = float(attrs[window].max())
        in_range = {
            int(oid)
            for oid, attr in zip(ids.tolist(), attrs.tolist())
            if lo <= attr <= hi
        }
        assert router.shard_for_attr(lo) != router.shard_for_attr(hi)
        result = router.query(queries[0], lo, hi, k=50, l_budget=10**6)
        assert set(result.ids.tolist()) == in_range

    def test_inverted_range_across_shards_is_empty(self, dataset, router):
        """lo > hi spanning a boundary answers like the direct index."""
        _, _, _, queries = dataset
        assert router.shard_for_attr(90.0) != router.shard_for_attr(10.0)
        want = router.shards[0].index.query(queries[0], 90.0, 10.0, k=5)
        got = router.query(queries[0], 90.0, 10.0, k=5)
        assert len(got) == 0 and got.stats.num_in_range == 0
        assert np.array_equal(want.ids, got.ids)
        assert np.array_equal(want.distances, got.distances)

    def test_merge_orders_by_distance(self, dataset, router):
        _, _, _, queries = dataset
        result = router.query(queries[1], 0.0, 100.0, k=20, l_budget=10**6)
        assert len(result) == 20
        assert np.all(np.diff(result.distances) >= 0)
        assert len(set(result.ids.tolist())) == 20

    def test_merged_stats_aggregate(self, dataset, router):
        _, _, _, queries = dataset
        result = router.query(queries[2], 0.0, 100.0, k=5, l_budget=10**6)
        assert result.stats.num_candidates > 0
        assert result.stats.num_in_range == len(router)


class TestShardMaintenance:
    def test_maintenance_is_shard_local(self, dataset):
        ids, vectors, attrs, _ = dataset
        router = RangeShardedService.build(
            ids, vectors, attrs, num_shards=3, index_factory=factory
        )
        # Deleting most of shard 0 leaves the other shards' trees alone.
        shard0 = router.shards[0]
        victims = [int(o) for o in list(shard0.index.ivf.ids())[:130]]
        before = [s.index.tree.rebuild_count for s in router.shards]
        for oid in victims:
            router.delete(oid)
        assert router.maintenance_due()
        report = router.run_maintenance(audit=True)
        assert report["rebuilt"]
        after = [s.index.tree.rebuild_count for s in router.shards]
        assert after[0] == before[0] + 1
        assert after[1:] == before[1:]
        assert not router.maintenance_due()
        router.check_invariants()

    def test_one_daemon_tends_all_shards(self, dataset):
        import time

        ids, vectors, attrs, _ = dataset
        router = RangeShardedService.build(
            ids, vectors, attrs, num_shards=3, index_factory=factory
        )
        victims = [
            int(o)
            for shard in router.shards
            for o in list(shard.index.ivf.ids())[:130]
        ]
        with MaintenanceDaemon(router, interval_s=0.01):
            for oid in victims:
                router.delete(oid)
            deadline = time.monotonic() + 5.0
            while router.maintenance_due() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not router.maintenance_due()
        router.check_invariants()


class TestParallelBackend:
    """Multiprocess scatter-gather through shard shm stores."""

    def test_parallel_matches_thread_path(self, router, dataset):
        _, _, _, queries = dataset
        want = [
            router.query(query, 15.0, 85.0, k=10, l_budget=10**6)
            for query in queries
        ]
        router.attach_parallel(num_workers=2)
        try:
            got = [
                router.query(query, 15.0, 85.0, k=10, l_budget=10**6)
                for query in queries
            ]
        finally:
            router.detach_parallel()
        for a, b in zip(want, got):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_concurrent_reader_threads_share_the_pool(self, router, dataset):
        """query() is a documented concurrent read path: parallel
        batches from many threads must neither steal each other's
        worker replies nor stall behind the timeout reaper."""
        import threading

        _, _, _, queries = dataset
        want = [
            router.query(query, 15.0, 85.0, k=10, l_budget=10**6)
            for query in queries
        ]
        router.attach_parallel(num_workers=2, task_timeout_s=10.0)
        errors: list[Exception] = []
        try:

            def reader() -> None:
                try:
                    for _ in range(3):
                        for query, expect in zip(queries, want):
                            got = router.query(
                                query, 15.0, 85.0, k=10, l_budget=10**6
                            )
                            assert np.array_equal(expect.ids, got.ids)
                            assert np.array_equal(
                                expect.distances, got.distances
                            )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, daemon=True)
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
        finally:
            router.detach_parallel()

    def test_double_attach_rejected(self, router):
        router.attach_parallel(num_workers=1)
        try:
            with pytest.raises(RuntimeError, match="attached"):
                router.attach_parallel(num_workers=1)
        finally:
            router.detach_parallel()

    def test_detach_is_idempotent(self, router):
        router.attach_parallel(num_workers=1)
        router.detach_parallel()
        router.detach_parallel()

    def test_write_republishes_touched_shard(self, router, dataset):
        _, vectors, _, _ = dataset
        router.attach_parallel(num_workers=1)
        try:
            versions_before = list(router._parallel_versions)
            router.insert(8_000, vectors[0], 50.0)
            got = router.query(
                vectors[0], 49.0, 51.0, k=5, l_budget=10**6
            )
            assert 8_000 in got.ids.tolist()
            touched = router.shard_for_attr(50.0)
            assert (
                router._parallel_versions[touched]
                > versions_before[touched]
            )
        finally:
            router.detach_parallel()

    def test_close_detaches_and_unlinks(self, dataset):
        import os

        ids, vectors, attrs, _ = dataset
        router = RangeShardedService.build(
            ids, vectors, attrs, num_shards=2, index_factory=factory
        )
        router.attach_parallel(num_workers=1)
        store_ids = [s.store_id for s in router._parallel_stores]
        router.close()
        if os.path.isdir("/dev/shm"):
            leftovers = [
                name
                for name in os.listdir("/dev/shm")
                if any(sid in name for sid in store_ids)
            ]
            assert leftovers == []
