"""Shared-memory publication of index storage (zero-copy worker reads).

A :class:`SharedIndexStore` copies the arrays that fully determine a
RangePQ-family query — PQ codes, attribute values, coarse-cluster
assignments, PQ codebooks, and coarse centers — into named
``multiprocessing.shared_memory`` blocks described by a small *manifest*
(a plain JSON-serializable dict).  Worker processes receive only the
manifest; they map the blocks read-only and never unpickle a single
vector.

Layout invariant
    Every per-object array is published **sorted by (attribute, oid)**.
    The objects inside an inclusive range ``[lo, hi]`` are then one
    contiguous row slice (two ``searchsorted`` calls), per-cluster
    in-range member sets fall out of one ``bincount``, and a stable sort
    of the slice's cluster IDs groups members *without disturbing their
    attribute order*.  :class:`SharedIndexSearcher` turns that layout
    into the same candidate-cluster / L-budget semantics as
    ``SearchByCCenters`` using the exact serial kernels
    (:meth:`~repro.quantization.ProductQuantizer.distance_table`,
    :meth:`~repro.ivf.coarse.CoarseQuantizer.center_distances`,
    :func:`~repro.quantization.adc_distances`), so partial results from
    different processes merge bitwise-identically to a single-process
    scan (see ``docs/parallel.md`` for the ordering proof).

Cleanup semantics
    The *publisher* owns the block lifetime: :meth:`SharedIndexStore.close`
    (or a republish superseding a version) unlinks the ``/dev/shm`` names
    immediately.  Attached readers keep a valid mapping until they
    detach — POSIX keeps the memory alive while mapped — so republishing
    under live readers is safe.  Attach-side handles are *unregistered*
    from ``multiprocessing.resource_tracker``: on CPython < 3.13 the
    tracker registers every attach and would otherwise unlink the
    publisher's segments when any reader process exits.
"""

from __future__ import annotations

import mmap as mmap_module
import os
import uuid
from multiprocessing import shared_memory

import numpy as np

from ..core.adaptive import AdaptiveLPolicy, FixedLPolicy, LPolicy
from ..core.results import QueryResult, QueryStats
from ..ivf.coarse import CoarseQuantizer
from ..obs import gauge
from ..quantization import ProductQuantizer, adc_distances

__all__ = [
    "ShmError",
    "SharedIndexStore",
    "SharedIndexView",
    "SharedIndexSearcher",
    "extract_index_arrays",
    "snapshot_manifest",
]


def snapshot_manifest(path, *, version: int = 1) -> dict:
    """Manifest attaching workers to a saved snapshot instead of shm.

    Workers load the archive with ``load_index(path, mmap_mode="r")`` —
    an *uncompressed* snapshot (``save_index(..., compressed=False)``)
    then maps its codes read-only, so co-located workers share one
    page-cache copy instead of each decompressing their own.
    """
    return {
        "kind": "snapshot",
        "path": str(path),
        "store": str(path),
        "version": int(version),
    }

_SHM_BYTES = gauge("parallel.shm_bytes")

#: Per-object arrays published to shared memory, in manifest order.
_OBJECT_BLOCKS = ("attrs", "oids", "clusters", "codes")
#: Trained-quantizer arrays published to shared memory.
_STATIC_BLOCKS = ("codebooks", "centers")

#: One-character suffix per block key.  Block names must stay short:
#: macOS caps POSIX shm names at 31 characters *including* the leading
#: slash (PSHMNAMLEN), so the full ``<store_id>-v<version>-<code>``
#: name is budgeted against :data:`_MAX_SHM_NAME`.
_BLOCK_CODES = {
    "attrs": "a",
    "oids": "o",
    "clusters": "c",
    "codes": "q",
    "codebooks": "b",
    "centers": "n",
}
#: Longest allowed block name (31 on macOS, minus the implicit "/").
_MAX_SHM_NAME = 30


class ShmError(RuntimeError):
    """Raised on publish/attach failures or closed-store access."""


def _policy_to_dict(policy: LPolicy) -> dict:
    if isinstance(policy, AdaptiveLPolicy):
        return {"kind": "adaptive", "l_base": policy.l_base, "r_base": policy.r_base}
    if isinstance(policy, FixedLPolicy):
        return {"kind": "fixed", "l": policy.l}
    raise ShmError(f"cannot publish custom L policy {type(policy).__name__}")


def _policy_from_dict(data: dict | None) -> LPolicy:
    if data is None:
        return AdaptiveLPolicy()
    if data["kind"] == "adaptive":
        return AdaptiveLPolicy(l_base=data["l_base"], r_base=data["r_base"])
    if data["kind"] == "fixed":
        return FixedLPolicy(l=data["l"])
    raise ShmError(f"unknown L policy kind {data['kind']!r}")


def extract_index_arrays(index) -> tuple[dict[str, np.ndarray], dict]:
    """Snapshot a RangePQ-family index into attr-sorted plain arrays.

    Returns ``(arrays, params)`` where ``arrays`` holds the six block
    payloads (per-object arrays permuted by ``lexsort((oids, attrs))``)
    and ``params`` the scalar metadata a searcher needs (dims, counts,
    dtypes, serialized L policy).
    """
    ivf = getattr(index, "ivf", None)
    attr_map = getattr(index, "_attr", None)
    if ivf is None or attr_map is None or not ivf.is_trained:
        raise ShmError(
            f"cannot publish {type(index).__name__}: need a trained "
            "RangePQ-family index (ivf + attribute map)"
        )
    oids = np.asarray(list(attr_map), dtype=np.int64)
    attrs = np.asarray([attr_map[int(oid)] for oid in oids], dtype=np.float64)
    rows = np.asarray(
        [ivf._row_of[int(oid)] for oid in oids], dtype=np.int64
    )
    order = np.lexsort((oids, attrs))
    arrays = {
        "attrs": attrs[order],
        "oids": oids[order],
        "clusters": ivf._clusters[rows[order]].astype(np.int64, copy=False),
        "codes": np.ascontiguousarray(ivf._codes[rows[order]]),
        "codebooks": np.ascontiguousarray(ivf.pq.codebooks),
        "centers": np.ascontiguousarray(ivf.coarse.centers),
    }
    params = {
        "count": int(len(oids)),
        "dim": int(ivf.pq.dim),
        "num_subspaces": int(ivf.pq.num_subspaces),
        "num_codewords": int(ivf.pq.num_codewords),
        "num_clusters": int(ivf.num_clusters),
        "l_policy": _policy_to_dict(index.l_policy)
        if getattr(index, "l_policy", None) is not None
        else None,
    }
    return arrays, params


class _AttachedBlock:
    """Read-only mapping of an existing block, invisible to the tracker.

    ``SharedMemory(name=...)`` registers attach-side handles with
    ``multiprocessing.resource_tracker`` on CPython < 3.13; with forked
    workers all processes share one tracker whose name cache is a plain
    set, so attach/detach pairs from several readers unbalance the
    publisher's create/unlink pair and the tracker either unlinks live
    segments or stack-traces at exit.  Readers therefore map the segment
    directly (``shm_open`` + ``PROT_READ`` mmap) and never touch the
    tracker; only the publisher's create/unlink registrations exist.
    """

    __slots__ = ("name", "_mmap", "buf")

    def __init__(self, name: str) -> None:
        import _posixshmem

        descriptor = _posixshmem.shm_open(f"/{name}", os.O_RDONLY, mode=0)
        try:
            size = os.fstat(descriptor).st_size
            self._mmap = mmap_module.mmap(
                descriptor, size, prot=mmap_module.PROT_READ
            )
        finally:
            os.close(descriptor)
        self.buf = memoryview(self._mmap)
        self.name = name

    def close(self) -> None:
        try:
            if self.buf is not None:
                self.buf.release()
        except BufferError:  # pragma: no cover - caller kept a view
            return
        finally:
            self.buf = None
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - caller kept a view
            pass


class _TrackedBlock:
    """Fallback attachment for platforms without ``_posixshmem``.

    Windows shared memory is named-mapping based and never touches the
    POSIX resource tracker, so the stdlib attach path is safe there.
    """

    __slots__ = ("name", "_shm", "buf")

    def __init__(self, name: str) -> None:
        self._shm = shared_memory.SharedMemory(name=name)
        self.buf = self._shm.buf
        self.name = name

    def close(self) -> None:
        self.buf = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view
            pass


def _attach_block(name: str):
    """Attach to an existing block without resource-tracker ownership."""
    try:
        return _AttachedBlock(name)
    except ImportError:  # pragma: no cover - non-POSIX platform
        return _TrackedBlock(name)


class SharedIndexStore:
    """Publisher side: owns the shared-memory blocks for one index.

    Usage::

        store = SharedIndexStore()
        manifest = store.publish(index)      # version 1
        ...                                  # hand manifest to workers
        manifest = store.republish(index)    # version 2, v1 names unlinked
        store.close()                        # all names unlinked

    The store is single-writer: publish/republish/close must be called
    from the owning (parent) process and thread.
    """

    def __init__(self, *, store_id: str | None = None) -> None:
        # Short on purpose: the derived block names must fit macOS's
        # 31-character POSIX shm name limit (see _MAX_SHM_NAME).
        self.store_id = store_id or f"rp-{uuid.uuid4().hex[:10]}"
        self._version = 0
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._manifest: dict | None = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Version of the currently published manifest (0 = none yet)."""
        return self._version

    @property
    def manifest(self) -> dict:
        """The current manifest (raises before the first publish)."""
        if self._manifest is None:
            raise ShmError("store has not published anything yet")
        return self._manifest

    @property
    def shm_bytes(self) -> int:
        """Total bytes of the currently published blocks."""
        return sum(block.size for block in self._blocks.values())

    def publish(self, index, *, version: int | None = None) -> dict:
        """Copy ``index``'s arrays into fresh blocks; returns the manifest.

        ``version`` defaults to the previous version + 1.  Blocks of the
        superseded version are unlinked immediately (live readers keep
        their mappings; new attaches of the old manifest fail).
        """
        if self._closed:
            raise ShmError("store is closed")
        arrays, params = extract_index_arrays(index)
        new_version = self._version + 1 if version is None else int(version)
        prefix = f"{self.store_id}-v{new_version}"
        blocks: dict[str, shared_memory.SharedMemory] = {}
        views: dict[str, np.ndarray] = {}
        manifest_blocks: dict[str, dict] = {}
        try:
            for key in (*_OBJECT_BLOCKS, *_STATIC_BLOCKS):
                source = arrays[key]
                name = f"{prefix}-{_BLOCK_CODES[key]}"
                if len(name) > _MAX_SHM_NAME:
                    raise ShmError(
                        f"shm block name {name!r} exceeds {_MAX_SHM_NAME} "
                        "chars (macOS PSHMNAMLEN); use a shorter store_id"
                    )
                block = shared_memory.SharedMemory(
                    create=True, name=name, size=max(1, source.nbytes)
                )
                view = np.ndarray(
                    source.shape, dtype=source.dtype, buffer=block.buf
                )
                if source.size:
                    view[...] = source
                blocks[key] = block
                views[key] = view
                manifest_blocks[key] = {
                    "shm": name,
                    "dtype": source.dtype.str,
                    "shape": list(source.shape),
                }
        except BaseException:  # repro: noqa-R004 — unlink partial publishes then re-raise
            views.clear()
            for block in blocks.values():
                block.close()
                block.unlink()
            raise
        self._unlink_current()
        self._blocks = blocks
        self._arrays = views
        self._version = new_version
        self._manifest = {
            "kind": "shm",
            "store": self.store_id,
            "version": new_version,
            "blocks": manifest_blocks,
            **params,
        }
        _SHM_BYTES.set(self.shm_bytes)
        return self._manifest

    def republish(self, index) -> dict:
        """Alias of :meth:`publish` that reads as an invalidation."""
        return self.publish(index)

    def view_arrays(self) -> dict[str, np.ndarray]:
        """The publisher's own zero-copy views of the current blocks."""
        if self._manifest is None:
            raise ShmError("store has not published anything yet")
        return dict(self._arrays)

    def _unlink_current(self) -> None:
        self._arrays = {}
        for block in self._blocks.values():
            try:
                block.close()
            except BufferError:  # pragma: no cover - caller kept a view
                pass
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._blocks = {}

    def close(self) -> None:
        """Unlink every published block.  Idempotent."""
        if self._closed:
            return
        self._unlink_current()
        self._manifest = None
        self._closed = True
        _SHM_BYTES.set(0)

    def __enter__(self) -> "SharedIndexStore":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class SharedIndexView:
    """Reader side: numpy views over one manifest's blocks.

    Detach with :meth:`close`; all arrays become invalid afterwards.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        blocks: list[_AttachedBlock],
    ) -> None:
        self.arrays = arrays
        self._blocks = blocks

    @classmethod
    def attach(cls, manifest: dict) -> "SharedIndexView":
        if manifest.get("kind") != "shm":
            raise ShmError(f"not a shm manifest: kind={manifest.get('kind')!r}")
        blocks: list[_AttachedBlock] = []
        arrays: dict[str, np.ndarray] = {}
        attached: dict[str, _AttachedBlock] = {}
        try:
            for key, spec in manifest["blocks"].items():
                block = _attach_block(spec["shm"])
                blocks.append(block)
                attached[key] = block
            # Under REPRO_SANITIZE=1, cross-check the publisher's manifest
            # against the dtype/shape contract table before building any
            # view — a mismatched block corrupts every query silently.
            from ..analysis.sanitize import sanitize_enabled

            if sanitize_enabled():
                from ..analysis.contracts import manifest_contract_errors

                sizes = {k: len(b.buf) for k, b in attached.items()}
                problems = manifest_contract_errors(manifest, sizes)
                if problems:
                    raise ShmError(
                        "manifest violates block contracts: "
                        + "; ".join(problems)
                    )
            for key, spec in manifest["blocks"].items():
                view = np.ndarray(
                    tuple(spec["shape"]),
                    dtype=np.dtype(spec["dtype"]),
                    buffer=attached[key].buf,
                )
                view.flags.writeable = False
                arrays[key] = view
        except BaseException:  # repro: noqa-R004 — close partial attaches then re-raise
            arrays.clear()
            for block in blocks:
                block.close()
            raise
        return cls(arrays, blocks)

    def close(self) -> None:
        """Drop the array views and detach from the blocks."""
        self.arrays = {}
        for block in self._blocks:
            try:
                block.close()
            except BufferError:  # pragma: no cover - caller kept a view
                pass
        self._blocks = []


class SharedIndexSearcher:
    """Deterministic range-query execution over attr-sorted arrays.

    One searcher answers two granularities, both sharing one code path
    so scattered partials merge bitwise-identically to a local scan:

    * :meth:`search` — a full query (range → plan → drain → top-k);
    * :meth:`search_cluster_slice` — an explicit (clusters, takes) slice
      of a parent-computed plan (the *coarse-cluster* partition unit).

    Results order by the total order **(ADC distance, collection
    position)** where position is the object's rank in the attr-sorted
    drain; positions are returned with cluster-slice partials so a
    parent can ``lexsort((positions, distances))``-merge them.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        params: dict,
        *,
        closer=None,
    ) -> None:
        self._attrs = arrays["attrs"]
        self._oids = arrays["oids"]
        self._clusters = arrays["clusters"]
        self._codes = arrays["codes"]
        self._count = int(params["count"])
        self._num_clusters = int(params["num_clusters"])
        self._closer = closer
        self.l_policy = _policy_from_dict(params.get("l_policy"))
        # Lightweight quantizers over the shared codebooks/centers — the
        # same reconstruction pattern repro.io.serialization uses, giving
        # the exact distance_table / center_distances kernels.
        self._pq = ProductQuantizer(
            int(params["num_subspaces"]), int(params["num_codewords"])
        )
        self._pq.codebooks = arrays["codebooks"]
        self._pq._dim = int(params["dim"])
        self._coarse = CoarseQuantizer(self._num_clusters)
        self._coarse.centers = arrays["centers"]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, manifest: dict) -> "SharedIndexSearcher":
        """Attach to a manifest (``kind="shm"`` or ``kind="snapshot"``)."""
        kind = manifest.get("kind")
        if kind == "shm":
            view = SharedIndexView.attach(manifest)
            return cls(view.arrays, manifest, closer=view.close)
        if kind == "snapshot":
            from ..io.serialization import load_index

            index = load_index(manifest["path"], mmap_mode="r")
            return cls.from_index(index)
        raise ShmError(f"unknown manifest kind {kind!r}")

    @classmethod
    def from_index(cls, index) -> "SharedIndexSearcher":
        """Build a searcher from a live index (no shared memory)."""
        arrays, params = extract_index_arrays(index)
        return cls(arrays, params)

    @classmethod
    def from_store(cls, store: SharedIndexStore) -> "SharedIndexSearcher":
        """Zero-copy searcher over a publisher's own blocks."""
        return cls(store.view_arrays(), store.manifest)

    def close(self) -> None:
        """Release array references and detach (when shm-backed)."""
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        self._attrs, self._oids, self._clusters = empty_f, empty_i, empty_i
        self._codes = np.empty((0, 1), dtype=np.uint8)
        self._pq.codebooks = None
        self._coarse.centers = None
        if self._closer is not None:
            closer, self._closer = self._closer, None
            closer()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def range_rows(self, lo: float, hi: float) -> tuple[int, int]:
        """Row interval ``[start, end)`` of objects with attr in [lo, hi]."""
        start = int(np.searchsorted(self._attrs, lo, side="left"))
        end = int(np.searchsorted(self._attrs, hi, side="right"))
        return start, end

    def budget_for_rows(self, num_rows: int) -> int:
        """The L policy's budget for a query covering ``num_rows`` objects."""
        return self.l_policy.choose(num_rows / max(self._count, 1))

    def plan_rows(
        self,
        query: np.ndarray,
        row_start: int,
        row_end: int,
        l_budget: int,
    ) -> dict:
        """Rank candidate clusters in a row interval and assign L takes.

        Mirrors Alg. 2's rank-then-drain: candidate clusters (those with
        at least one member in the interval) are ordered ascending by
        center distance (stable on ties, so the ascending cluster-ID
        enumeration from ``bincount`` matches the serial sorted candidate
        set), then the budget is drained cluster-by-cluster.
        """
        query = np.ascontiguousarray(query, dtype=np.float64)
        cluster_slice = self._clusters[row_start:row_end]
        counts = np.bincount(cluster_slice, minlength=self._num_clusters)
        candidates = np.flatnonzero(counts)
        if candidates.size == 0:
            return {
                "row_start": row_start,
                "row_end": row_end,
                "clusters": np.empty(0, dtype=np.int64),
                "takes": np.empty(0, dtype=np.int64),
                "num_candidate_clusters": 0,
                "num_in_rows": 0,
            }
        center_dist = self._coarse.center_distances(query)
        ranked = candidates[
            np.argsort(center_dist[candidates], kind="stable")
        ]
        sizes = counts[ranked]
        cum = np.cumsum(sizes)
        takes = np.clip(l_budget - (cum - sizes), 0, sizes)
        live = takes > 0
        return {
            "row_start": row_start,
            "row_end": row_end,
            "clusters": ranked[live].astype(np.int64, copy=False),
            "takes": takes[live].astype(np.int64, copy=False),
            "num_candidate_clusters": int(candidates.size),
            "num_in_rows": int(row_end - row_start),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def search_cluster_slice(
        self,
        query: np.ndarray,
        row_start: int,
        row_end: int,
        clusters: np.ndarray,
        takes: np.ndarray,
        offset: int,
        k: int,
    ) -> dict:
        """Score one plan slice; top-k by (distance, global position).

        ``offset`` is the number of drained objects preceding this slice
        in the parent's plan, so ``positions`` are globally comparable.
        """
        query = np.ascontiguousarray(query, dtype=np.float64)
        clusters = np.asarray(clusters, dtype=np.int64)
        takes = np.asarray(takes, dtype=np.int64)
        if clusters.size == 0:
            return {
                "ids": np.empty(0, dtype=np.int64),
                "distances": np.empty(0, dtype=np.float64),
                "positions": np.empty(0, dtype=np.int64),
                "num_candidates": 0,
            }
        cluster_slice = self._clusters[row_start:row_end]
        # Stable sort groups rows by cluster while preserving attr order
        # inside each group — the same member order the contiguous-range
        # layout guarantees serially.
        grouped = np.argsort(cluster_slice, kind="stable")
        counts = np.bincount(cluster_slice, minlength=self._num_clusters)
        starts = np.zeros(self._num_clusters + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        picked = [
            grouped[starts[c]: starts[c] + take]
            for c, take in zip(clusters.tolist(), takes.tolist())
        ]
        local = np.concatenate(picked)
        rows = row_start + local
        table = self._pq.distance_table(query)
        distances = adc_distances(table, self._codes[rows])
        # Positions ascend with array order, so a stable distance sort IS
        # the (distance, position) total order.
        order = np.argsort(distances, kind="stable")[:k]  # repro: noqa-R006 — stable order is the determinism contract
        return {
            "ids": self._oids[rows[order]],
            "distances": distances[order],
            "positions": offset + order.astype(np.int64, copy=False),
            "num_candidates": int(local.size),
        }

    def search(
        self,
        query: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Answer one range query over the whole published collection."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        start, end = self.range_rows(lo, hi)
        if l_budget is None:
            l_budget = self.budget_for_rows(end - start)
        plan = self.plan_rows(query, start, end, l_budget)
        stats = QueryStats(num_in_range=plan["num_in_rows"])
        stats.num_candidate_clusters = plan["num_candidate_clusters"]
        if plan["clusters"].size == 0:
            return QueryResult.empty(stats)
        stats.l_used = l_budget
        partial = self.search_cluster_slice(
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
