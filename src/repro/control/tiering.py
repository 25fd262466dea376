"""Tiered hot/cold shard storage: shm-pinned vs page-cached placements.

Takes dataset size past "everything in named shared memory".  Each shard
of a :class:`~repro.service.router.RangeShardedService` gets exactly one
*placement* at a time:

* **hot** — the shard's arrays are published into a
  :class:`~repro.parallel.shm.SharedIndexStore` (named shared memory,
  PR 5's publication path) and served through a zero-copy
  :class:`~repro.parallel.shm.SharedIndexSearcher` over the store's own
  views.  Memory is pinned for as long as the shard stays hot.
* **cold** — the shard is exported once per committed version as an
  *uncompressed* ``.npz`` snapshot
  (:meth:`~repro.service.engine.IndexService.export_snapshot`) and
  served through the same searcher attached via
  ``load_index(path, mmap_mode="r")``: the OS page cache decides how
  much of it is resident, and several readers share one cached copy.

Both tiers drain the identical attr-sorted arrays through the identical
kernels, so a query's answer is **bitwise independent of placement** —
the property ``control-bench`` gates on across a cold→hot promotion.

Placement follows an access-frequency EWMA the controller maintains:
:meth:`TieredReadPath.rebalance` folds the access counts since the last
pass into each shard's EWMA, then keeps the ``hot_capacity`` highest
scores hot (hysteresis keeps a marginally-warmer cold shard from
thrashing an incumbent).  Two disciplines keep rebalancing safe under
live traffic:

* **Reader bar.**  Every query holds a per-placement *lease* (a
  refcount taken under the tier mutex).  Demotion of a shard whose
  placement has in-flight leases is deferred to a later pass — the
  placement's backing (shm blocks, mapped snapshot) is never yanked
  under a reader.
* **Version-checked republish.**  A placement remembers the service
  version it was built from; a query that finds the shard's committed
  version has moved rebuilds the placement first (the same discipline
  ``RangeShardedService._refresh_manifests`` uses).  Retired placements
  are closed when their last lease drains.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.results import QueryResult
from ..obs import counter, gauge, histogram, phase
from ..parallel.shm import (
    SharedIndexSearcher,
    SharedIndexStore,
    snapshot_manifest,
)
from ..service.router import ShardMap, merge_topk

__all__ = ["TierStats", "TieredReadPath"]

_TIERED_READ_MS = histogram("control.tiered_read_ms")
_PROMOTIONS = counter("control.tier.promotions")
_DEMOTIONS = counter("control.tier.demotions")
_DEFERRED = counter("control.tier.deferred_demotions")
_REFRESHES = counter("control.tier.refreshes")
_HOT_SHARDS = gauge("control.tier.hot_shards")
_HOT_BYTES = gauge("control.tier.hot_bytes")


@dataclass
class TierStats:
    """Lifetime counters of one tiered read path.

    Attributes:
        promotions: Cold→hot placement changes applied.
        demotions: Hot→cold placement changes applied.
        deferred_demotions: Demotions skipped because the placement had
            in-flight readers (retried on a later rebalance).
        refreshes: Placements rebuilt because the shard's committed
            version moved.
        queries: Range queries served through the tiered path.
    """

    promotions: int = 0
    demotions: int = 0
    deferred_demotions: int = 0
    refreshes: int = 0
    queries: int = 0


class _Placement:
    """One tier residence of one shard: searcher + backing + leases."""

    __slots__ = ("tier", "version", "searcher", "store", "path", "leases", "retired")

    def __init__(
        self,
        tier: str,
        version: int,
        searcher: SharedIndexSearcher,
        *,
        store: SharedIndexStore | None = None,
        path: Path | None = None,
    ) -> None:
        self.tier = tier
        self.version = version
        self.searcher = searcher
        self.store = store
        self.path = path
        self.leases = 0
        self.retired = False

    def close_backing(self) -> None:
        """Release the searcher and whatever pins the tier's memory."""
        self.searcher.close()
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.path is not None:
            self.path.unlink(missing_ok=True)
            self.path = None


class _ShardState:
    """Per-shard tiering bookkeeping (guarded by the path's mutex)."""

    __slots__ = ("service", "placement", "ewma", "accesses", "retired")

    def __init__(self, service) -> None:
        self.service = service
        self.placement: _Placement | None = None
        self.ewma = 0.0
        self.accesses = 0
        self.retired: list[_Placement] = []


class TieredReadPath:
    """Hot/cold placement manager and scatter-gather read path.

    Args:
        shards: The shard services, in boundary order (each needs the
            :class:`~repro.service.engine.IndexService` control surface:
            ``publish_shared`` / ``export_snapshot`` / ``version``).
        boundaries: The router's attribute split points (``len(shards)
            - 1`` values) — used to scatter range queries.
        snapshot_dir: Directory for cold-tier snapshot archives.
        hot_capacity: Most shards pinned hot at once.
        ewma_alpha: Smoothing of the access-frequency EWMA (weight of
            the newest inter-rebalance access count).
        hysteresis: A cold shard displaces a hot incumbent only when its
            EWMA exceeds the incumbent's by this fraction — 0.10 means
            "10% warmer", damping placement thrash on near-ties.

    Use :meth:`for_router` to build one directly over a
    :class:`~repro.service.router.RangeShardedService`.  All shards
    start **cold**; promotion is earned through accesses + rebalance.
    """

    def __init__(
        self,
        shards,
        boundaries,
        *,
        snapshot_dir: str | Path,
        hot_capacity: int = 1,
        ewma_alpha: float = 0.3,
        hysteresis: float = 0.10,
    ) -> None:
        if hot_capacity < 0:
            raise ValueError(f"hot_capacity must be >= 0, got {hot_capacity}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        if hysteresis < 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        self._states = [_ShardState(shard) for shard in shards]
        self._map = ShardMap(boundaries, len(self._states))
        self._snapshot_dir = Path(snapshot_dir)
        self._snapshot_dir.mkdir(parents=True, exist_ok=True)
        self.hot_capacity = int(hot_capacity)
        self._alpha = float(ewma_alpha)
        self._hysteresis = float(hysteresis)
        self._mutex = threading.Lock()
        self._closed = False
        self.stats = TierStats()

    @classmethod
    def for_router(cls, router, **kwargs) -> "TieredReadPath":
        """Build over a sharded router's shards and boundaries."""
        return cls(router.shards, router.boundaries, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._states)

    def tier_of(self, number: int) -> str:
        """Current tier of shard ``number`` (``"hot"`` or ``"cold"``)."""
        with self._mutex:
            placement = self._states[number].placement
            if placement is None:
                return "cold"
            return placement.tier

    def ewma_of(self, number: int) -> float:
        """Current access-frequency EWMA of shard ``number``."""
        with self._mutex:
            return self._states[number].ewma

    def placements(self) -> list[dict]:
        """Snapshot of every shard's placement for logs/metrics."""
        with self._mutex:
            return [
                {
                    "shard": number,
                    "tier": st.placement.tier if st.placement else "cold",
                    "version": st.placement.version if st.placement else -1,
                    "ewma": st.ewma,
                    "leases": st.placement.leases if st.placement else 0,
                }
                for number, st in enumerate(self._states)
            ]

    def hot_bytes(self) -> int:
        """Bytes currently pinned in shared memory across hot shards."""
        with self._mutex:
            return sum(
                st.placement.store.shm_bytes
                for st in self._states
                if st.placement is not None and st.placement.store is not None
            )

    # ------------------------------------------------------------------
    # Placement construction (mutex held)
    # ------------------------------------------------------------------
    def _build_placement_locked(self, number: int, tier: str) -> _Placement:
        service = self._states[number].service
        if tier == "hot":
            store = SharedIndexStore()
            _, version = service.publish_shared(store)
            searcher = SharedIndexSearcher.from_store(store)
            return _Placement("hot", version, searcher, store=store)
        # Cold: one uncompressed archive per (shard, version); the mapped
        # searcher keeps an old archive readable after unlink (POSIX), so
        # versioned names never collide with a live mapping.
        version = service.version
        path = self._snapshot_dir / f"shard{number}-v{version}.npz"
        written, version = service.export_snapshot(path, compressed=False)
        searcher = SharedIndexSearcher.attach(
            snapshot_manifest(written, version=version)
        )
        return _Placement("cold", version, searcher, path=written)

    def _retire_locked(self, number: int, placement: _Placement) -> None:
        """Retire a placement; close now or when its leases drain."""
        placement.retired = True
        if placement.leases == 0:
            placement.close_backing()
        else:
            self._states[number].retired.append(placement)

    def _ensure_placement_locked(self, number: int) -> _Placement:
        """Current-version placement for a shard, building/refreshing it."""
        st = self._states[number]
        if st.placement is None:
            st.placement = self._build_placement_locked(number, "cold")
        elif st.placement.version != st.service.version:
            fresh = self._build_placement_locked(number, st.placement.tier)
            self._retire_locked(number, st.placement)
            st.placement = fresh
            self.stats.refreshes += 1
            _REFRESHES.inc()
        return st.placement

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def shard_for_attr(self, attr: float) -> int:
        """Index of the shard owning attribute value ``attr``."""
        return self._map.shard_for_attr(attr)

    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Scatter a range query over overlapping shards' placements.

        Identical merge discipline to the router
        (:func:`~repro.service.router.merge_topk`), identical searcher
        semantics to the parallel backend — answers are bitwise equal
        whichever tier each shard happens to occupy.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with phase("tiered_read", metric=_TIERED_READ_MS):
            return self._query_timed(query_vector, lo, hi, k, l_budget)

    def _query_timed(
        self, query_vector, lo: float, hi: float, k: int, l_budget
    ) -> QueryResult:
        numbers = self._map.shards_for_range(lo, hi)
        leased: list[tuple[int, _Placement]] = []
        with self._mutex:
            if self._closed:
                raise RuntimeError("tiered read path is closed")
            for number in numbers:
                placement = self._ensure_placement_locked(number)
                placement.leases += 1
                self._states[number].accesses += 1
                leased.append((number, placement))
            self.stats.queries += 1
        try:
            partials = [
                placement.searcher.search(
                    query_vector, lo, hi, k, l_budget=l_budget
                )
                for _, placement in leased
            ]
        finally:
            with self._mutex:
                for number, placement in leased:
                    placement.leases -= 1
                    if placement.retired and placement.leases == 0:
                        placement.close_backing()
                        try:
                            self._states[number].retired.remove(placement)
                        except ValueError:
                            pass
        return merge_topk(partials, k)

    def warm(self, numbers=None) -> None:
        """Build/refresh placements outside the query path.

        Queries pay for a stale placement's rebuild inline (the
        version-checked republish); calling ``warm`` after a batch of
        writes or knob changes moves that cost off the first client's
        latency.  Does not count as an access.
        """
        with self._mutex:
            if self._closed:
                return
            for number in (
                range(len(self._states)) if numbers is None else numbers
            ):
                self._ensure_placement_locked(number)

    def record_access(self, number: int, weight: int = 1) -> None:
        """Count an external access against a shard's EWMA (e.g. when
        queries are served elsewhere but placement should still follow
        this traffic)."""
        with self._mutex:
            self._states[number].accesses += int(weight)

    # ------------------------------------------------------------------
    # Rebalance (the controller's tiering actuator)
    # ------------------------------------------------------------------
    def rebalance(self) -> dict:
        """One placement pass: fold EWMAs, promote/demote to capacity.

        Returns a report dict with ``promoted`` / ``demoted`` /
        ``deferred`` shard-number lists.  Demotions of placements with
        in-flight leases are deferred (never yanked under a reader);
        promotions always apply — building the hot placement publishes a
        *new* store, and the old cold placement retires lease-safely.
        """
        report = {"promoted": [], "demoted": [], "deferred": []}
        with self._mutex:
            if self._closed:
                return report
            for st in self._states:
                st.ewma = (
                    self._alpha * st.accesses + (1.0 - self._alpha) * st.ewma
                )
                st.accesses = 0
            currently_hot = {
                number
                for number, st in enumerate(self._states)
                if st.placement is not None and st.placement.tier == "hot"
            }
            desired = self._desired_hot_locked(currently_hot)
            for number in sorted(currently_hot - desired):
                st = self._states[number]
                if st.placement is not None and st.placement.leases > 0:
                    report["deferred"].append(number)
                    self.stats.deferred_demotions += 1
                    _DEFERRED.inc()
                    continue
                fresh = self._build_placement_locked(number, "cold")
                if st.placement is not None:
                    self._retire_locked(number, st.placement)
                st.placement = fresh
                report["demoted"].append(number)
                self.stats.demotions += 1
                _DEMOTIONS.inc()
            for number in sorted(desired - currently_hot):
                st = self._states[number]
                fresh = self._build_placement_locked(number, "hot")
                if st.placement is not None:
                    self._retire_locked(number, st.placement)
                st.placement = fresh
                report["promoted"].append(number)
                self.stats.promotions += 1
                _PROMOTIONS.inc()
            hot_count = sum(
                1
                for st in self._states
                if st.placement is not None and st.placement.tier == "hot"
            )
            _HOT_SHARDS.set(hot_count)
            _HOT_BYTES.set(
                sum(
                    st.placement.store.shm_bytes
                    for st in self._states
                    if st.placement is not None
                    and st.placement.store is not None
                )
            )
        return report

    def _desired_hot_locked(self, currently_hot: set[int]) -> set[int]:
        """The hot set after this pass: top-EWMA with hysteresis.

        Ranked by ``(ewma, -shard_number)`` descending (deterministic on
        ties); a cold challenger only enters by displacing the coldest
        incumbent when its EWMA clears the hysteresis bar.  Shards that
        have never been accessed (EWMA 0) are never promoted.
        """
        if self.hot_capacity == 0:
            return set()
        ranked = sorted(
            range(len(self._states)),
            key=lambda n: (-self._states[n].ewma, n),
        )
        desired = set()
        for number in ranked:
            if len(desired) >= self.hot_capacity:
                break
            st = self._states[number]
            if st.ewma <= 0.0:
                continue
            if number not in currently_hot and currently_hot - desired:
                # Challenger: must beat the warmest incumbent it would
                # displace (the remaining incumbents are all candidates
                # for the leftover slots).
                incumbent_ewmas = [
                    self._states[i].ewma for i in (currently_hot - desired)
                ]
                slots_left = self.hot_capacity - len(desired)
                if len(incumbent_ewmas) >= slots_left:
                    bar = sorted(incumbent_ewmas)[-slots_left] * (
                        1.0 + self._hysteresis
                    )
                    if st.ewma <= bar:
                        continue
            desired.add(number)
        # Incumbents keep leftover slots (they already paid publication).
        for number in sorted(
            currently_hot - desired,
            key=lambda n: (-self._states[n].ewma, n),
        ):
            if len(desired) >= self.hot_capacity:
                break
            desired.add(number)
        return desired

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every placement and retired backing.  Idempotent."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            for st in self._states:
                if st.placement is not None:
                    st.placement.close_backing()
                    st.placement = None
                for placement in st.retired:
                    placement.close_backing()
                st.retired = []
        _HOT_SHARDS.set(0)
        _HOT_BYTES.set(0)

    def __enter__(self) -> "TieredReadPath":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
