"""Fork/spawn-safe worker pool serving shared-memory query tasks.

Workers are plain ``multiprocessing`` processes.  Each talks to the
parent over a dedicated pair of one-way pipes — deliberately **not** a
shared ``multiprocessing.Queue``: a queue multiplexes all writers
through one cross-process semaphore fed by a background thread, and a
worker dying mid-send (the exact "crash mid-query" case this pool must
survive) leaves that semaphore acquired forever, wedging every other
worker.  Single-writer pipes have no shared locks, so one worker's
death can never block another.

Tasks carry the shm *manifest* (a small dict of block names — never
vector payloads); each worker caches one attached
:class:`~repro.parallel.shm.SharedIndexSearcher` per store and
re-attaches when a task arrives with a newer manifest version — this is
how publisher-side republishes propagate.

Dispatch is *windowed*: each worker holds at most
``_MAX_INFLIGHT`` dispatched tasks, with the rest queued parent-side
and topped up as results drain.  Pipes buffer ~64KB; dumping a large
batch up front can wedge the whole pool (worker blocked sending into a
full result pipe stops reading tasks, then the parent blocks sending
into the full task pipe before it ever reaches the gather loop).  The
window keeps the parent draining between sends, so neither side can
fill both pipes at once.

:meth:`WorkerPool.run` is thread-safe: an internal mutex serializes
batches, so concurrent readers (the sharded service's query path) can
share one pool without stealing each other's result messages.

Failure semantics (the pool never hangs):

* **worker crash** — detected by liveness polling while gathering; the
  dead worker is respawned and its in-flight tasks are resubmitted once
  (results are deduplicated by task ID, so a task the dying worker
  already answered is not double-counted).  A task whose retry also
  dies fails with a :class:`WorkerError` naming the exit code.
* **task timeout** — a task in flight longer than ``task_timeout_s``
  has its worker killed and respawned, and fails with a reason.
* **worker-side exception** — marshalled back as a string reason and
  raised as :class:`WorkerError`.

Callers (the executor, the sharded-service backend) catch
:class:`WorkerError` and degrade to in-process execution.

Fork vs spawn: the default start method is ``fork`` where available
(instant startup, page-cache sharing); ``spawn`` is supported for
portability at the cost of a fresh interpreter per worker.  The
:mod:`repro.obs` registry and tracing stack reset themselves in forked
children (see ``repro/obs/metrics.py``), so workers never inherit held
locks or parent histograms.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing import connection

from ..obs import counter, gauge, histogram

__all__ = ["WorkerError", "WorkerTimeout", "PoolUnavailable", "WorkerPool"]

_TASKS = counter("parallel.tasks")
_TASK_ERRORS = counter("parallel.task_errors")
_TASK_RETRIES = counter("parallel.task_retries")
_WORKER_RESTARTS = counter("parallel.worker_restarts")
_TASK_MS = histogram("parallel.task_ms")
_WORKERS_ALIVE = gauge("parallel.workers_alive")
_UTILIZATION = gauge("parallel.worker_utilization")

#: How often the gather loop wakes to poll worker liveness / deadlines.
_POLL_S = 0.05

#: Dispatch window: tasks in flight per worker before the rest queue
#: parent-side.  Must stay small enough that the window's results fit in
#: one ~64KB pipe buffer, or a worker can block writing results while
#: the parent blocks writing tasks (mutual pipe deadlock).
_MAX_INFLIGHT = 8


class WorkerError(RuntimeError):
    """A task failed (crash, timeout, or worker-side exception)."""


class WorkerTimeout(WorkerError):
    """A task's in-flight ceiling elapsed (its worker was killed).

    Subclasses :class:`WorkerError` so degrade-to-serial callers keep
    working unchanged; deadline-aware callers (the sharded router when
    given an explicit per-query ``timeout_s``) catch this subclass to
    surface a timeout instead of silently retrying in-process.
    """


class PoolUnavailable(RuntimeError):
    """The pool could not start its workers."""


def _execute_task(searchers: dict, kind: str, payload: dict):
    """Run one task inside a worker.  Returns a picklable result."""
    if kind == "ping":
        return {"pid": os.getpid()}
    if kind == "sleep":  # test hook: simulate a stuck task
        time.sleep(float(payload["seconds"]))
        return {}
    if kind == "echo":  # test hook: result as large as its payload
        return payload
    if kind == "crash":  # test hook: simulate a hard worker death
        os._exit(int(payload.get("code", 42)))
    searcher = _searcher_for(searchers, payload["manifest"])
    if kind == "search":
        result = searcher.search(
            payload["query"],
            payload["lo"],
            payload["hi"],
            payload["k"],
            l_budget=payload.get("l_budget"),
        )
        return {
            "ids": result.ids,
            "distances": result.distances,
            "stats": result.stats,
        }
    if kind == "cluster_slice":
        return searcher.search_cluster_slice(
            payload["query"],
            payload["row_start"],
            payload["row_end"],
            payload["clusters"],
            payload["takes"],
            payload["offset"],
            payload["k"],
        )
    raise ValueError(f"unknown task kind {kind!r}")


def _searcher_for(searchers: dict, manifest: dict):
    """Get (or re-attach) the cached searcher for a manifest.

    Keyed by store ID; a newer version supersedes the cached attachment,
    which is detached before the new one is mapped.
    """
    from .shm import SharedIndexSearcher

    store = manifest.get("store", manifest.get("path", "?"))
    cached = searchers.get(store)
    if cached is not None:
        version, searcher = cached
        if version == manifest["version"]:
            return searcher
        searcher.close()
    searcher = SharedIndexSearcher.attach(manifest)
    searchers[store] = (manifest["version"], searcher)
    return searcher


def _worker_main(worker_id: int, task_conn, result_conn) -> None:
    """Worker loop: attach lazily per manifest, serve tasks until None."""
    searchers: dict = {}
    result_conn.send(("ready", worker_id, os.getpid()))
    while True:
        try:
            message = task_conn.recv()
        except EOFError:  # parent went away
            break
        if message is None:
            break
        task_id, kind, payload = message
        started = time.perf_counter()
        try:
            result = _execute_task(searchers, kind, payload)
        except Exception as exc:  # repro: noqa-R004 — worker fault barrier: any task error must be reported, not kill the process
            result_conn.send(
                ("error", task_id, worker_id, f"{type(exc).__name__}: {exc}")
            )
            continue
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        result_conn.send(("done", task_id, worker_id, elapsed_ms, result))
    for _version, searcher in searchers.values():
        searcher.close()
    result_conn.close()


class _Worker:
    """Bookkeeping for one worker process."""

    __slots__ = ("process", "task_conn", "result_conn", "inflight", "pending")

    def __init__(self, process, task_conn, result_conn) -> None:
        self.process = process
        self.task_conn = task_conn      # parent -> worker (send end)
        self.result_conn = result_conn  # worker -> parent (recv end)
        self.inflight: dict[int, float] = {}  # task_id -> dispatch time
        self.pending: deque[int] = deque()  # task_ids awaiting dispatch

    def shutdown(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class WorkerPool:
    """A fixed-size pool of query workers.

    Args:
        num_workers: Worker process count (>= 1).
        start_method: ``"fork"`` / ``"spawn"`` / ``"forkserver"``;
            defaults to ``fork`` when the platform offers it.
        task_timeout_s: In-flight ceiling per task (measured from
            dispatch) before its worker is killed and the task failed.
        start_timeout_s: How long to wait for worker ready handshakes
            before raising :class:`PoolUnavailable`.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        start_method: str | None = None,
        task_timeout_s: float = 60.0,
        start_timeout_s: float = 30.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        if start_method not in methods:
            raise PoolUnavailable(
                f"start method {start_method!r} unavailable (have {methods})"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.task_timeout_s = float(task_timeout_s)
        self._start_timeout_s = float(start_timeout_s)
        self._workers: dict[int, _Worker] = {}
        self._next_task_id = 0
        self._next_worker_id = 0
        self._stale_tasks: set[int] = set()
        self._closed = False
        # Serializes run()/close(): batches from concurrent reader
        # threads must not interleave, or one thread's gather loop
        # drains (and drops) messages belonging to the other's batch.
        self._run_mutex = threading.Lock()
        try:
            spawned = [self._spawn_worker() for _ in range(num_workers)]
            for worker_id in spawned:
                self._await_ready(worker_id, self._start_timeout_s)
        except BaseException:  # repro: noqa-R004 — cleanup then re-raise
            self.close()
            raise
        _WORKERS_ALIVE.set(len(self._workers))

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_recv, result_send),
            daemon=True,
            name=f"repro-parallel-{worker_id}",
        )
        process.start()
        # Close the child's ends in the parent; the child's inherited
        # copies of *our* ends are harmless (we never wait for EOF).
        task_recv.close()
        result_send.close()
        self._workers[worker_id] = _Worker(process, task_send, result_recv)
        return worker_id

    def _await_ready(self, worker_id: int, timeout_s: float) -> None:
        """Block until ``worker_id`` sends its ready handshake."""
        worker = self._workers[worker_id]
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PoolUnavailable(
                    f"worker {worker_id} failed the ready handshake "
                    f"within {timeout_s}s"
                )
            if worker.result_conn.poll(min(remaining, _POLL_S)):
                try:
                    message = worker.result_conn.recv()
                except (EOFError, OSError):
                    raise PoolUnavailable(
                        f"worker {worker_id} died during startup "
                        f"(exitcode {worker.process.exitcode})"
                    )
                if message[0] == "ready" and message[1] == worker_id:
                    return
            elif not worker.process.is_alive():
                raise PoolUnavailable(
                    f"worker {worker_id} died during startup "
                    f"(exitcode {worker.process.exitcode})"
                )

    @property
    def num_workers(self) -> int:
        # Lock-free monitoring read: dict size is read atomically under the
        # GIL and an off-by-one during a concurrent respawn is acceptable.
        return len(self._workers)  # repro: noqa-C002

    @property
    def alive_workers(self) -> int:
        """Workers whose process currently reports alive (approximate:
        read lock-free, so a concurrent respawn may be counted either way).
        """
        return sum(
            1 for w in self._workers.values() if w.process.is_alive()  # repro: noqa-C002
        )

    @property
    def inflight_tasks(self) -> int:
        """Tasks currently dispatched and unanswered (approximate: read
        lock-free for monitoring/sanitize assertions; between batches —
        when no :meth:`run` is active — this is exactly 0, because
        ``_run_locked`` clears every worker's inflight map on both the
        success and the failure path)."""
        return sum(
            len(w.inflight) for w in self._workers.values()  # repro: noqa-C002
        )

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def run(
        self, tasks: list[tuple[str, dict]], *, timeout_s: float | None = None
    ) -> list:
        """Execute tasks across the pool; returns results in task order.

        Thread-safe: concurrent callers serialize on an internal mutex
        (batches never interleave on the result pipes).

        Args:
            tasks: ``(kind, payload)`` pairs.
            timeout_s: Per-task in-flight ceiling for this batch only,
                overriding the pool's ``task_timeout_s`` (deadline
                propagation: a caller with a client deadline passes the
                remaining budget here).

        Raises:
            WorkerTimeout: If any task overran the effective timeout
                (its worker was killed and respawned).
            WorkerError: If any task fails otherwise (crash after retry,
                respawn failure, or a worker-side exception).  The pool
                itself stays usable — dead workers are respawned before
                raising.
        """
        with self._run_mutex:
            return self._run_locked(tasks, timeout_s=timeout_s)

    def _run_locked(
        self, tasks: list[tuple[str, dict]], *, timeout_s: float | None = None
    ) -> list:
        if self._closed:
            raise WorkerError("pool is closed")
        if not tasks:
            return []
        if not self._workers:
            raise WorkerError("pool has no live workers")
        effective_timeout_s = (
            self.task_timeout_s if timeout_s is None else float(timeout_s)
        )
        started = time.monotonic()
        assignments: dict[int, tuple[int, str, dict, int]] = {}
        results: dict[int, object] = {}
        order: list[int] = []
        worker_ids = sorted(self._workers)
        for position, (kind, payload) in enumerate(tasks):
            task_id = self._next_task_id
            self._next_task_id += 1
            order.append(task_id)
            assignments[task_id] = (position, kind, payload, 0)
            target = worker_ids[position % len(worker_ids)]
            self._workers[target].pending.append(task_id)
        busy_ms = 0.0
        try:
            for worker_id in list(self._workers):
                self._top_up(worker_id, assignments)
            while len(results) < len(order):
                messages = self._drain_messages()
                if not messages:
                    self._reap_crashes(assignments, results)
                    self._reap_timeouts(results, effective_timeout_s)
                for message in messages:
                    tag = message[0]
                    if tag == "ready":
                        continue
                    task_id = message[1]
                    if task_id in self._stale_tasks:
                        self._stale_tasks.discard(task_id)
                        continue
                    if task_id not in assignments or task_id in results:
                        continue  # duplicate after a retry — first wins
                    worker = self._workers.get(message[2])
                    if worker is not None:
                        worker.inflight.pop(task_id, None)
                    if tag == "done":
                        elapsed_ms, result = message[3], message[4]
                        results[task_id] = result
                        busy_ms += elapsed_ms
                        _TASK_MS.observe(elapsed_ms)
                    elif tag == "error":
                        _TASK_ERRORS.inc()
                        raise WorkerError(
                            f"task {task_id} failed in worker "
                            f"{message[2]}: {message[3]}"
                        )
                for worker_id in list(self._workers):
                    self._top_up(worker_id, assignments)
        except BaseException:  # repro: noqa-R004 — bookkeeping then re-raise
            # Abandon everything still in flight so late results from
            # this batch are dropped by future run() calls.  Undispatched
            # pending tasks can never produce a message, so they are
            # simply forgotten (never marked stale).
            for worker in self._workers.values():
                worker.pending.clear()
                for task_id in worker.inflight:
                    if task_id not in results:
                        self._stale_tasks.add(task_id)
                worker.inflight.clear()
            raise
        _TASKS.inc(len(order))
        wall_ms = (time.monotonic() - started) * 1000.0
        if wall_ms > 0:
            _UTILIZATION.set(
                min(1.0, busy_ms / (wall_ms * max(len(self._workers), 1)))
            )
        ordered: list = [None] * len(order)
        for task_id in order:
            ordered[assignments[task_id][0]] = results[task_id]
        return ordered

    def _drain_messages(self) -> list:
        """Collect every message currently readable (waits ≤ ``_POLL_S``)."""
        conns = [w.result_conn for w in self._workers.values()]
        try:
            readable = connection.wait(conns, timeout=_POLL_S)
        except OSError:  # pragma: no cover - a conn died mid-wait
            readable = []
        messages = []
        for conn in readable:
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                continue  # dead worker; the liveness reaper handles it
        return messages

    def _dispatch(
        self, worker_id: int, task_id: int, kind: str, payload: dict
    ) -> None:
        worker = self._workers[worker_id]
        worker.inflight[task_id] = time.monotonic()
        try:
            worker.task_conn.send((task_id, kind, payload))
        except (BrokenPipeError, OSError):
            pass  # worker already dead; the crash reaper resubmits

    def _top_up(
        self,
        worker_id: int,
        assignments: dict[int, tuple[int, str, dict, int]],
    ) -> None:
        """Dispatch pending tasks until the worker's window is full."""
        worker = self._workers.get(worker_id)
        if worker is None:
            return
        while worker.pending and len(worker.inflight) < _MAX_INFLIGHT:
            task_id = worker.pending.popleft()
            _, kind, payload, _ = assignments[task_id]
            self._dispatch(worker_id, task_id, kind, payload)

    def _replace_worker(self, worker_id: int) -> int:
        """Drop ``worker_id`` and bring up a ready replacement.

        The dead worker's undispatched pending queue carries over to the
        replacement.  A replacement that fails its own handshake raises
        :class:`WorkerError` (not :class:`PoolUnavailable`) so run()'s
        degrade-to-serial callers catch it.
        """
        worker = self._workers.pop(worker_id)
        worker.shutdown()
        replacement = self._spawn_worker()
        try:
            self._await_ready(replacement, self._start_timeout_s)
        except PoolUnavailable as exc:
            dead = self._workers.pop(replacement, None)
            if dead is not None:
                if dead.process.is_alive():
                    dead.process.terminate()
                    dead.process.join(timeout=1.0)
                dead.shutdown()
            _WORKERS_ALIVE.set(len(self._workers))
            raise WorkerError(f"worker respawn failed: {exc}") from exc
        self._workers[replacement].pending.extend(worker.pending)
        _WORKER_RESTARTS.inc()
        _WORKERS_ALIVE.set(len(self._workers))
        return replacement

    def _reap_crashes(
        self,
        assignments: dict[int, tuple[int, str, dict, int]],
        results: dict[int, object],
    ) -> None:
        """Respawn dead workers; resubmit or fail their in-flight tasks."""
        for worker_id in list(self._workers):
            worker = self._workers[worker_id]
            if worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            # Salvage results the worker sent before dying.
            try:
                while worker.result_conn.poll():
                    message = worker.result_conn.recv()
                    if message[0] == "done" and message[1] not in results:
                        results[message[1]] = message[4]
            except (EOFError, OSError):
                pass
            orphans = [t for t in worker.inflight if t not in results]
            replacement = self._replace_worker(worker_id)
            for task_id in orphans:
                position, kind, payload, retries = assignments[task_id]
                if retries >= 1:
                    raise WorkerError(
                        f"task {task_id} lost to two worker crashes "
                        f"(last exitcode {exitcode})"
                    )
                _TASK_RETRIES.inc()
                assignments[task_id] = (position, kind, payload, retries + 1)
                self._dispatch(replacement, task_id, kind, payload)

    def _reap_timeouts(
        self, results: dict[int, object], timeout_s: float
    ) -> None:
        """Kill workers holding tasks past the deadline; fail the task."""
        now = time.monotonic()
        for worker_id in list(self._workers):
            worker = self._workers[worker_id]
            overdue = [
                task_id
                for task_id, assigned in worker.inflight.items()
                if task_id not in results and now - assigned > timeout_s
            ]
            if not overdue:
                continue
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            self._replace_worker(worker_id)
            raise WorkerTimeout(
                f"task {overdue[0]} exceeded the {timeout_s}s "
                f"timeout in worker {worker_id} (worker killed)"
            )

    # ------------------------------------------------------------------
    # Health / shutdown
    # ------------------------------------------------------------------
    def ping(self) -> list[int]:
        """Round-trip every worker; returns their PIDs."""
        # Build the task list under the run mutex: a concurrent run() may
        # respawn workers (mutating self._workers) mid-iteration otherwise.
        with self._run_mutex:
            replies = self._run_locked(
                [("ping", {}) for _ in self._workers]
            )
        return [reply["pid"] for reply in replies]

    def close(self, *, timeout_s: float = 5.0) -> None:
        """Stop all workers gracefully; terminate stragglers.  Idempotent.

        Thread-safe: waits for any in-flight :meth:`run` batch to finish
        (run is bounded by the task timeout, so this cannot wait forever).
        """
        # Lock-free fast path: a stale False only means we take the mutex
        # and re-check in _close_locked; a stale True is impossible because
        # _closed never transitions back.
        if self._closed:  # repro: noqa-C002
            return
        with self._run_mutex:
            self._close_locked(timeout_s)

    def _close_locked(self, timeout_s: float) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.task_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout_s
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.shutdown()
        self._workers = {}
        _WORKERS_ALIVE.set(0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
