"""Attribute-range sharding: scatter-gather over per-range services.

A single RangePQ tree serializes all writes behind one lock.  Sharding the
attribute domain at quantile boundaries splits the index into ``K``
independent services, so writes to different attribute regions never
contend, maintenance (rebuilds, snapshots) is shard-local and proportional
to shard size, and a range query touches only the shards its ``[lo, hi]``
interval overlaps.

The router keeps one piece of global state — the oid → shard map that
routes deletes — guarded by its own mutex; everything else delegates to
the shard services, which do their own locking.  A scattered query is
*not* a cross-shard atomic snapshot: each shard answers from its own
consistent snapshot (single-shard queries keep the full consistency
contract, and the common case — a narrow range — touches one shard).

The three decisions every attribute-range scatter path shares live here
once: :class:`ShardMap` (attribute → shard routing and the build-time
partition), :class:`OidOwnership` (the oid → shard map with
reserve-before-write) and :func:`merge_topk` (the only gather).  The
router, :class:`~repro.control.tiering.TieredReadPath` and the cluster
coordinator/supervisor all use them.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.results import QueryResult, QueryStats
from ..obs import counter, histogram, phase
from .engine import IndexService

__all__ = [
    "OidOwnership",
    "RangeShardedService",
    "ShardMap",
    "merge_topk",
    "quantile_boundaries",
]

_MERGE_MS = histogram("service.merge_ms")
_PARALLEL_FALLBACKS = counter("parallel.fallbacks")
_PARALLEL_QUERIES = counter("parallel.queries")


def quantile_boundaries(attrs: np.ndarray, num_shards: int) -> list[float]:
    """``num_shards - 1`` attribute-quantile split points, deduplicated.

    Duplicate quantiles (attribute mass concentrated on few values) are
    collapsed, which lowers the effective shard count rather than creating
    empty shards.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return []
    attrs = np.asarray(attrs, dtype=np.float64)
    fractions = np.arange(1, num_shards) / num_shards
    return np.unique(np.quantile(attrs, fractions)).tolist()


class ShardMap:
    """Attribute → shard routing over ``len(boundaries) + 1`` range shards.

    Shard ``i`` owns attributes in ``[boundaries[i-1], boundaries[i])``
    (first shard unbounded below, last unbounded above), so an attribute
    equal to a boundary belongs to the upper shard.

    Args:
        boundaries: Strictly increasing split points.
        num_shards: When given, must equal ``len(boundaries) + 1``.

    Raises:
        ValueError: On a count mismatch or unsorted boundaries.
    """

    def __init__(
        self, boundaries: Sequence[float], num_shards: int | None = None
    ) -> None:
        self.boundaries = tuple(float(b) for b in boundaries)
        if num_shards is not None and len(self.boundaries) != num_shards - 1:
            raise ValueError(
                f"{num_shards} shards need {num_shards - 1} boundaries, "
                f"got {len(self.boundaries)}"
            )
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def num_shards(self) -> int:
        return len(self.boundaries) + 1

    def shard_for_attr(self, attr: float) -> int:
        """Index of the shard owning attribute value ``attr``."""
        return bisect.bisect_right(self.boundaries, float(attr))

    def shards_for_range(self, lo: float, hi: float) -> range:
        """Shards whose interval overlaps ``[lo, hi]`` (none if ``lo > hi``)."""
        if lo > hi:
            return range(0)
        return range(self.shard_for_attr(lo), self.shard_for_attr(hi) + 1)

    def partition(self, attrs: np.ndarray) -> list[np.ndarray]:
        """Per-shard boolean member masks over ``attrs``.

        Raises:
            ValueError: If some shard would receive no member.
        """
        assignment = np.searchsorted(
            self.boundaries, np.asarray(attrs, dtype=np.float64), side="right"
        )
        masks = []
        for number in range(self.num_shards):
            members = assignment == number
            if not members.any():
                raise ValueError(
                    f"shard {number} would be empty; lower num_shards "
                    "(attribute mass is too concentrated)"
                )
            masks.append(members)
        return masks


class OidOwnership:
    """Mutex-guarded oid → shard map that routes deletes.

    Inserts reserve their oid before the shard write (so a concurrent
    duplicate insert fails instead of racing into another shard) and
    roll the reservation back if the write raises.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._owner: dict[int, int] = {}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._owner)

    def __contains__(self, oid: int) -> bool:
        with self._mutex:
            return int(oid) in self._owner

    def seed(self, shard: int, oids: Iterable[int]) -> None:
        """Record ``shard`` as the owner of every oid it already holds.

        Raises:
            ValueError: If an oid is already owned by another shard.
        """
        with self._mutex:
            for oid in oids:
                oid = int(oid)
                if oid in self._owner:
                    raise ValueError(f"oid {oid} present in two shards")
                self._owner[oid] = shard

    @contextmanager
    def reserve(self, oid: int, shard: int) -> Iterator[None]:
        """Own ``oid`` for ``shard`` around a write; undo it if the write raises.

        Raises:
            ValueError: If ``oid`` is already owned.
        """
        with self._mutex:
            if oid in self._owner:
                raise ValueError(f"oid {oid} already present")
            self._owner[oid] = shard
        try:
            yield
        except BaseException:  # repro: noqa-R004 - reservation rollback
            with self._mutex:
                self._owner.pop(oid, None)
            raise

    def owner(self, oid: int) -> int:
        """The shard owning ``oid``.

        Raises:
            KeyError: If no shard owns it.
        """
        with self._mutex:
            if oid not in self._owner:
                raise KeyError(f"unknown oid {oid}")
            return self._owner[oid]

    def release(self, oid: int) -> None:
        """Forget ``oid`` (after its delete committed)."""
        with self._mutex:
            self._owner.pop(oid, None)

    def check_invariants(self, held: Iterable[Iterable[int]]) -> None:
        """Audit the map against ``held``: shard ``i``'s oids at position ``i``.

        Only meaningful while no writes are in flight.
        """
        with self._mutex:
            owner = dict(self._owner)
        total = 0
        for shard, oids in enumerate(held):
            for oid in oids:
                total += 1
                if owner.get(int(oid)) != shard:
                    raise AssertionError(
                        f"oid {oid} lives in shard {shard} but is mapped "
                        f"to {owner.get(int(oid))}"
                    )
        if total != len(owner):
            raise AssertionError(
                f"{len(owner)} oids are mapped but the shards hold {total}"
            )


class RangeShardedService:
    """Scatter-gather router over attribute-range shards.

    Shard ``i`` owns attributes in ``[boundaries[i-1], boundaries[i])``
    (first shard unbounded below, last unbounded above).  Use
    :meth:`build` to construct shards from data at quantile boundaries.

    Args:
        shards: One service per shard, in boundary order (anything with
            the :class:`~repro.service.engine.IndexService` surface).
        boundaries: ``len(shards) - 1`` strictly increasing split points.
    """

    def __init__(
        self, shards: Sequence[IndexService], boundaries: Sequence[float]
    ) -> None:
        self._shards = list(shards)
        self._map = ShardMap(boundaries, len(self._shards))
        self._parallel_pool = None
        self._parallel_stores: list = []
        self._parallel_manifests: list = []
        self._parallel_versions: list[int] = []
        self._parallel_mutex = threading.Lock()
        self._owners = OidOwnership()
        for number, shard in enumerate(self._shards):
            self._owners.seed(number, shard.index.ivf.ids())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        ids: Sequence[int],
        vectors: np.ndarray,
        attrs: Sequence[float],
        *,
        num_shards: int,
        index_factory: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
        wal_dir: str | Path | None = None,
        **service_kwargs,
    ) -> "RangeShardedService":
        """Partition data at attribute quantiles and build one service per
        shard.

        Args:
            ids, vectors, attrs: The initial population.
            num_shards: Requested shard count (collapsed quantiles may
                yield fewer).
            index_factory: ``(ids, vectors, attrs) -> index`` building and
                training one shard's index from its partition.
            wal_dir: When given, shard ``i`` persists under
                ``wal_dir/shard-<i>``.
            **service_kwargs: Forwarded to every shard's
                :class:`IndexService`.
        """
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        attrs = np.asarray(attrs, dtype=np.float64)
        boundaries = quantile_boundaries(attrs, num_shards)
        shards = []
        for number, members in enumerate(ShardMap(boundaries).partition(attrs)):
            index = index_factory(
                ids[members], vectors[members], attrs[members]
            )
            kwargs = dict(service_kwargs)
            if wal_dir is not None:
                kwargs["wal_dir"] = Path(wal_dir) / f"shard-{number}"
            shards.append(IndexService(index, **kwargs))
        return cls(shards, boundaries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[IndexService]:
        """The shard services, in boundary order."""
        return list(self._shards)

    @property
    def boundaries(self) -> list[float]:
        """The attribute split points."""
        return list(self._map.boundaries)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, oid: int) -> bool:
        return oid in self._owners

    def shard_for_attr(self, attr: float) -> int:
        """Index of the shard owning attribute value ``attr``."""
        return self._map.shard_for_attr(attr)

    def check_invariants(self) -> None:
        """Audit every shard plus the router's own oid → shard map."""
        for shard in self._shards:
            shard.check_invariants()
        self._owners.check_invariants(
            shard.index.ivf.ids() for shard in self._shards
        )

    # ------------------------------------------------------------------
    # Write plane (per-shard serialization)
    # ------------------------------------------------------------------
    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Route one insert to the shard owning ``attr``."""
        oid = int(oid)
        target = self.shard_for_attr(attr)
        with self._owners.reserve(oid, target):
            # Delegation: the shard service write-locks internally.
            self._shards[target].insert(oid, vector, attr)  # repro: noqa-R007

    def delete(self, oid: int) -> None:
        """Route one delete via the oid → shard map."""
        oid = int(oid)
        target = self._owners.owner(oid)
        # Delegation: the shard service write-locks internally.
        self._shards[target].delete(oid)  # repro: noqa-R007
        self._owners.release(oid)

    # ------------------------------------------------------------------
    # Read plane (scatter-gather)
    # ------------------------------------------------------------------
    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
        timeout_s: float | None = None,
    ) -> QueryResult:
        """Scatter a range query to overlapping shards, merge top-``k``.

        Only shards whose attribute interval intersects ``[lo, hi]`` are
        consulted; their per-shard top-``k`` answers merge by approximate
        distance (ties broken by oid for determinism).

        Args:
            timeout_s: Remaining deadline budget for this query.  On the
                parallel backend it becomes the worker batch's per-task
                timeout, and an overrun raises :class:`TimeoutError`
                instead of silently falling back to threads (the client
                has stopped waiting; re-running serially would only burn
                capacity).  The in-process thread path has no preemption
                point, so there the budget is only checked up front.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if timeout_s is not None and timeout_s <= 0:
            raise TimeoutError("query deadline exhausted before execution")
        numbers = self._map.shards_for_range(lo, hi)
        # Lock-free fast path: a stale None just takes the thread path; a
        # stale pool is re-validated under _parallel_mutex in
        # _query_parallel before use.
        if self._parallel_pool is not None:  # repro: noqa-C002
            result = self._query_parallel(
                query_vector, lo, hi, k, numbers, l_budget, timeout_s
            )
            if result is not None:
                return result
        partials = [
            self._shards[number].query(query_vector, lo, hi, k, l_budget=l_budget)
            for number in numbers
        ]
        return merge_topk(partials, k)

    # ------------------------------------------------------------------
    # Parallel read backend (multiprocess, shared memory)
    # ------------------------------------------------------------------
    def attach_parallel(
        self,
        num_workers: int = 2,
        *,
        start_method: str | None = None,
        task_timeout_s: float = 60.0,
    ):
        """Attach a multiprocess read backend over shared memory.

        Each shard's arrays are published into a
        :class:`~repro.parallel.shm.SharedIndexStore` (under the shard's
        read lock, so every published snapshot is a committed version),
        and scattered range queries execute in a
        :class:`~repro.parallel.pool.WorkerPool` instead of the calling
        thread — one task per overlapping shard, merged through the same
        top-k lexsort as the thread path.  Writes republish lazily: a
        query republishes any overlapped shard whose service version
        moved since its last publish.

        Parallel answers drain candidates from the attr-sorted shared
        layout, so under a truncating ``L`` budget they can differ from
        the thread path at the truncation boundary (both orders are
        deterministic; full-budget answers agree).  If a worker batch
        fails, the query transparently falls back to the thread path.

        Raises:
            PoolUnavailable: If the workers cannot start (nothing is
                attached in that case).
        """
        from ..parallel.pool import WorkerPool
        from ..parallel.shm import SharedIndexStore

        # Lock-free fast-fail; authoritative re-check happens under the
        # mutex below before the backend is published.
        if self._parallel_pool is not None:  # repro: noqa-C002
            raise RuntimeError("a parallel backend is already attached")
        # Spawn the pool before taking the mutex (worker startup is slow
        # and can fail); publish the backend atomically under it.
        pool = WorkerPool(
            num_workers,
            start_method=start_method,
            task_timeout_s=task_timeout_s,
        )
        with self._parallel_mutex:
            if self._parallel_pool is not None:
                pool.close()
                raise RuntimeError("a parallel backend is already attached")
            self._parallel_pool = pool
            self._parallel_stores = [
                SharedIndexStore() for _ in self._shards
            ]
            self._parallel_manifests = [None] * len(self._shards)
            self._parallel_versions = [-1] * len(self._shards)
        self._refresh_manifests(range(len(self._shards)))
        return pool

    def detach_parallel(self) -> None:
        """Stop the parallel backend and unlink its shm blocks.  Idempotent."""
        # Unpublish atomically under the mutex; close the pool and stores
        # after releasing it (close can block on an in-flight batch).
        with self._parallel_mutex:
            pool, self._parallel_pool = self._parallel_pool, None
            stores = self._parallel_stores
            self._parallel_stores = []
            self._parallel_manifests = []
            self._parallel_versions = []
        if pool is not None:
            pool.close()
        for store in stores:
            store.close()

    def _refresh_manifests(self, numbers) -> None:
        """Republish every listed shard whose committed version moved."""
        with self._parallel_mutex:
            for number in numbers:
                shard = self._shards[number]
                if shard.version != self._parallel_versions[number]:
                    manifest, version = shard.publish_shared(
                        self._parallel_stores[number]
                    )
                    self._parallel_manifests[number] = manifest
                    self._parallel_versions[number] = version

    def _query_parallel(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        numbers,
        l_budget: int | None,
        timeout_s: float | None = None,
    ) -> QueryResult | None:
        """Scatter one query across the pool; None means "use threads"."""
        from ..parallel.pool import WorkerError, WorkerTimeout

        self._refresh_manifests(numbers)
        # Snapshot the pool and manifests under the mutex so a concurrent
        # detach/republish cannot hand us a half-replaced backend; run the
        # batch after releasing it (workers must not serialize on us).
        with self._parallel_mutex:
            pool = self._parallel_pool
            if pool is None:
                return None
            manifests = [
                self._parallel_manifests[number] for number in numbers
            ]
        query = np.ascontiguousarray(query_vector, dtype=np.float64)
        tasks = [
            (
                "search",
                {
                    "manifest": manifest,
                    "query": query,
                    "lo": float(lo),
                    "hi": float(hi),
                    "k": int(k),
                    "l_budget": l_budget,
                },
            )
            for manifest in manifests
        ]
        try:
            replies = pool.run(tasks, timeout_s=timeout_s)
        except WorkerTimeout as exc:
            if timeout_s is not None:
                # An explicit deadline overran: surface it rather than
                # re-running serially for a client that stopped waiting.
                raise TimeoutError(str(exc)) from exc
            _PARALLEL_FALLBACKS.inc()
            return None
        except WorkerError:
            _PARALLEL_FALLBACKS.inc()
            return None
        _PARALLEL_QUERIES.inc()
        partials = [
            QueryResult(
                ids=reply["ids"],
                distances=reply["distances"],
                stats=reply["stats"],
            )
            for reply in replies
        ]
        return merge_topk(partials, k)

    # ------------------------------------------------------------------
    # Control plane (per-shard knobs)
    # ------------------------------------------------------------------
    def shard_knobs(self) -> list[dict]:
        """Per-shard knob snapshots (see :meth:`IndexService.knobs`)."""
        return [shard.knobs() for shard in self._shards]

    def set_shard_l_policy(self, number: int, policy) -> int:
        """Swap one shard's L policy atomically.

        Delegates to :meth:`IndexService.set_l_policy`; the shard's
        version bump makes the parallel backend republish that shard's
        manifest (which embeds the policy) before the next scattered
        query touches it, so in-process and worker answers stay
        consistent with the new knob.
        """
        return self._shards[number].set_l_policy(policy)

    # ------------------------------------------------------------------
    # Maintenance plane (shard-local)
    # ------------------------------------------------------------------
    def attach_maintenance_wakeup(self, event: threading.Event) -> None:
        """Register one wakeup event with every shard (one shared daemon)."""
        for shard in self._shards:
            shard.attach_maintenance_wakeup(event)

    def maintenance_due(self) -> bool:
        """Whether any shard has pending maintenance."""
        return any(shard.maintenance_due() for shard in self._shards)

    def run_maintenance(self, *, audit: bool | None = None) -> dict:
        """Run one maintenance cycle on every shard that needs it.

        Returns an aggregate report (``rebuilt`` / ``snapshotted`` /
        ``audited`` true if true on any shard) plus the per-shard reports.
        """
        reports = [
            shard.run_maintenance(audit=audit)
            for shard in self._shards
            if shard.maintenance_due() or audit
        ]
        return {
            "rebuilt": any(r["rebuilt"] for r in reports),
            "snapshotted": any(r["snapshotted"] for r in reports),
            "audited": any(r["audited"] for r in reports),
            "shards": reports,
        }

    def close(self) -> None:
        """Detach the parallel backend (if any) and close every shard's WAL."""
        self.detach_parallel()
        for shard in self._shards:
            shard.close()


def merge_topk(partials: Sequence[QueryResult], k: int) -> QueryResult:
    """Merge per-shard top-``k`` answers into one global top-``k``.

    Order is by approximate distance with ties broken by oid, exactly
    the ordering one un-sharded index produces — every scatter-gather
    path (the router's thread and parallel backends, the tiered read
    path, and the cluster coordinator) merges through this one function
    so their answers stay bitwise comparable.  No partials (an inverted
    range overlaps no shard) give an empty result; a single partial is
    returned unchanged.
    """
    if not partials:
        return QueryResult.empty(QueryStats(num_in_range=0))
    if len(partials) == 1:
        return partials[0]
    with phase("merge", metric=_MERGE_MS):
        ids = np.concatenate([p.ids for p in partials])
        distances = np.concatenate([p.distances for p in partials])
        order = np.lexsort((ids, distances))[:k]
    stats = QueryStats()
    in_range = [p.stats.num_in_range for p in partials]
    stats.num_in_range = (
        sum(in_range) if all(n >= 0 for n in in_range) else -1
    )
    for partial in partials:
        stats.num_candidate_clusters += partial.stats.num_candidate_clusters
        stats.num_candidates += partial.stats.num_candidates
        stats.cover_nodes += partial.stats.cover_nodes
        stats.l_used = max(stats.l_used, partial.stats.l_used)
        stats.decompose_ms += partial.stats.decompose_ms
        stats.table_ms += partial.stats.table_ms
        stats.rank_ms += partial.stats.rank_ms
        stats.fetch_ms += partial.stats.fetch_ms
        stats.adc_ms += partial.stats.adc_ms
    return QueryResult(
        ids=ids[order], distances=distances[order], stats=stats
    )
