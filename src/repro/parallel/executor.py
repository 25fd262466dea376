"""ParallelQueryExecutor: scatter one index's queries across processes.

Results are **bitwise identical** to the executor's own in-process
serial path (which tests pin against the index's exact kernels): the
parent plans the query (range slice, ranked candidate clusters,
per-cluster L takes) against its zero-copy view, splits the ranked
clusters into contiguous chunks of roughly equal take mass, and workers
score their chunks.  Partials return top-k keyed by **(ADC distance,
global drain position)** and merge with
``np.lexsort((positions, distances))`` — provably the same total order
a single stable sort over the undivided drain produces.

Attribute-sharded multiprocess reads are
:meth:`repro.service.router.RangeShardedService.attach_parallel`'s job.

Degradation: if the pool cannot start, a worker batch fails, or the
index is too small to be worth scattering, the executor answers
in-process from the same searcher — identical results, one counter
(``parallel.fallbacks``) incremented.
"""

from __future__ import annotations

import numpy as np

from ..core.results import QueryResult, QueryStats
from ..obs import counter
from .pool import PoolUnavailable, WorkerError, WorkerPool
from .shm import SharedIndexSearcher, SharedIndexStore

__all__ = ["ParallelQueryExecutor"]

_FALLBACKS = counter("parallel.fallbacks")
_PARALLEL_QUERIES = counter("parallel.queries")

#: Below this many drained candidates a scatter costs more than it saves.
DEFAULT_MIN_SCATTER_CANDIDATES = 256


class ParallelQueryExecutor:
    """Multiprocess range-query execution over one published index.

    Args:
        index: A trained RangePQ-family index (``ivf`` + attribute map).
        num_workers: Worker process count; 0 forces in-process execution
            (useful as a no-pool baseline with identical semantics).
        start_method / task_timeout_s: Forwarded to :class:`WorkerPool`.
        min_scatter_candidates: Plans draining fewer candidates than
            this run in-process (the result is identical either way).

    The executor snapshots the index at construction; call
    :meth:`refresh` after mutating the index to republish (bumping the
    manifest version workers re-attach to).  Always :meth:`close` — it
    unlinks the shared-memory blocks.
    """

    def __init__(
        self,
        index,
        *,
        num_workers: int = 2,
        start_method: str | None = None,
        task_timeout_s: float = 60.0,
        min_scatter_candidates: int = DEFAULT_MIN_SCATTER_CANDIDATES,
    ) -> None:
        self.index = index
        self._min_scatter = int(min_scatter_candidates)
        self._store = SharedIndexStore()
        self._manifest = self._store.publish(index)
        self._searcher = SharedIndexSearcher.from_store(self._store)
        self._pool: WorkerPool | None = None
        if num_workers > 0:
            try:
                self._pool = WorkerPool(
                    num_workers,
                    start_method=start_method,
                    task_timeout_s=task_timeout_s,
                )
            except PoolUnavailable:
                _FALLBACKS.inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Manifest version currently served (bumped by :meth:`refresh`)."""
        return self._store.version

    @property
    def num_workers(self) -> int:
        """Live worker count (0 when degraded to in-process)."""
        return self._pool.num_workers if self._pool is not None else 0

    def refresh(self) -> int:
        """Republish the index (after mutations); returns the new version.

        Workers re-attach lazily: the next task they receive carries the
        new manifest, superseding their cached attachment.  The old
        blocks are unlinked immediately (live mappings stay valid).
        """
        self._searcher.close()
        self._manifest = self._store.republish(self.index)
        self._searcher = SharedIndexSearcher.from_store(self._store)
        return self._store.version

    def close(self) -> None:
        """Stop the pool and unlink the shared-memory blocks."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._searcher.close()
        self._store.close()

    def __enter__(self) -> "ParallelQueryExecutor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Answer one range query, scattered across the pool."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.ascontiguousarray(query, dtype=np.float64)
        _PARALLEL_QUERIES.inc()
        return self._search_clustered(query, lo, hi, k, l_budget)

    def search_batch(
        self,
        queries: np.ndarray,
        ranges,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> list[QueryResult]:
        """Answer a batch with query-level parallelism (one task each).

        This is the throughput path: whole queries round-robin across
        workers, so per-query latency is serial but aggregate QPS scales
        with cores.  Each result equals :meth:`search` for that request.
        """
        queries = np.atleast_2d(np.ascontiguousarray(queries, dtype=np.float64))
        if len(queries) != len(ranges):
            raise ValueError(f"{len(queries)} queries but {len(ranges)} ranges")
        if self._pool is None:
            return [
                self.search(queries[i], lo, hi, k, l_budget=l_budget)
                for i, (lo, hi) in enumerate(ranges)
            ]
        tasks = [
            (
                "search",
                {
                    "manifest": self._manifest,
                    "query": queries[i],
                    "lo": float(lo),
                    "hi": float(hi),
                    "k": int(k),
                    "l_budget": l_budget,
                },
            )
            for i, (lo, hi) in enumerate(ranges)
        ]
        try:
            replies = self._pool.run(tasks)
        except WorkerError:
            _FALLBACKS.inc()
            return [
                self.search(queries[i], lo, hi, k, l_budget=l_budget)
                for i, (lo, hi) in enumerate(ranges)
            ]
        _PARALLEL_QUERIES.inc(len(tasks))
        return [
            QueryResult(
                ids=reply["ids"],
                distances=reply["distances"],
                stats=reply["stats"],
            )
            for reply in replies
        ]

    # ------------------------------------------------------------------
    # Scatter by ranked-cluster chunks
    # ------------------------------------------------------------------
    def _search_clustered(
        self,
        query: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        l_budget: int | None,
    ) -> QueryResult:
        searcher = self._searcher
        start, end = searcher.range_rows(lo, hi)
        budget = (
            searcher.budget_for_rows(end - start)
            if l_budget is None
            else l_budget
        )
        plan = searcher.plan_rows(query, start, end, budget)
        stats = QueryStats(num_in_range=plan["num_in_rows"])
        stats.num_candidate_clusters = plan["num_candidate_clusters"]
        clusters, takes = plan["clusters"], plan["takes"]
        if clusters.size == 0:
            return QueryResult.empty(stats)
        stats.l_used = budget
        total_take = int(takes.sum())
        workers = self._pool.num_workers if self._pool is not None else 0
        if (
            workers < 2
            or clusters.size < 2
            or total_take < self._min_scatter
        ):
            return self._finish_serial(query, plan, stats, k)
        chunks = _chunk_by_take(clusters, takes, workers)
        offsets = []
        offset = 0
        for _, chunk_takes in chunks:
            offsets.append(offset)
            offset += int(chunk_takes.sum())
        tasks = [
            (
                "cluster_slice",
                {
                    "manifest": self._manifest,
                    "query": query,
                    "row_start": plan["row_start"],
                    "row_end": plan["row_end"],
                    "clusters": chunk_clusters,
                    "takes": chunk_takes,
                    "offset": offsets[i],
                    "k": int(k),
                },
            )
            for i, (chunk_clusters, chunk_takes) in enumerate(chunks)
        ]
        try:
            partials = self._pool.run(tasks)
        except WorkerError:
            _FALLBACKS.inc()
            return self._finish_serial(query, plan, stats, k)
        ids = np.concatenate([p["ids"] for p in partials])
        distances = np.concatenate([p["distances"] for p in partials])
        positions = np.concatenate([p["positions"] for p in partials])
        # (distance, drain position) is a total order — positions are
        # distinct — so this merge equals a stable distance sort over
        # the whole undivided drain.
        order = np.lexsort((positions, distances))[:k]
        stats.num_candidates = sum(p["num_candidates"] for p in partials)
        return QueryResult(
            ids=ids[order], distances=distances[order], stats=stats
        )

    def _finish_serial(
        self, query: np.ndarray, plan: dict, stats: QueryStats, k: int
    ) -> QueryResult:
        """In-process completion of a planned query (the bitwise oracle)."""
        partial = self._searcher.search_cluster_slice(
            query,
            plan["row_start"],
            plan["row_end"],
            plan["clusters"],
            plan["takes"],
            0,
            k,
        )
        stats.num_candidates = partial["num_candidates"]
        return QueryResult(
            ids=partial["ids"], distances=partial["distances"], stats=stats
        )


def _chunk_by_take(
    clusters: np.ndarray, takes: np.ndarray, num_chunks: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguously split ranked clusters into ≤ ``num_chunks`` pieces of
    roughly equal take mass (greedy threshold on the cumulative sum)."""
    total = int(takes.sum())
    num_chunks = min(num_chunks, len(clusters))
    target = total / num_chunks
    cum = np.cumsum(takes)
    chunks = []
    begin = 0
    for piece in range(1, num_chunks):
        threshold = piece * target
        split = int(np.searchsorted(cum, threshold, side="left")) + 1
        split = max(split, begin + 1)
        remaining_pieces = num_chunks - piece
        split = min(split, len(clusters) - remaining_pieces)
        chunks.append((clusters[begin:split], takes[begin:split]))
        begin = split
    chunks.append((clusters[begin:], takes[begin:]))
    return [c for c in chunks if len(c[0])]
