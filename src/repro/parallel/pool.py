"""Persistent worker pool: a generic task-execution substrate.

One :class:`WorkerPool` keeps a fleet of worker processes warm across jobs
and runs typed tasks on it:

* **Typed tasks.**  Every task carries a ``kind`` resolved through the
  registry in :mod:`repro.parallel.tasks`; the worker loop does not know
  what a task *does*, only how to open the spool it runs against.
  Brute-force chunks, spool-export units and sampling pretest chunks
  ship as built-in kinds, and one job may mix kinds freely.

* **Concurrent jobs.**  Any number of caller threads may have a
  :meth:`WorkerPool.run_job` in flight at once over the same fleet — the
  shape ``repro-ind serve`` needs to multiplex overlapping requests.  Each
  job returns its own outcomes and its own :class:`PoolStats` delta, so
  callers can surface pool behaviour per request.

* **Parent-side assignment.**  Each worker talks to the parent over its own
  pipe, and no lock is shared between processes.  Pending tasks of every
  job wait in one parent-side FIFO, and the parent sends a task to a
  worker only while that worker is idle — one task at a time, no prefetch
  — so it always knows which task each worker holds.  Whichever thread
  adds work or frees a worker assigns, under the pool lock.  One
  dispatcher thread waits on every worker's pipe and process sentinel at
  once: a reply frees its worker, and a death requeues exactly the task
  that worker held and spawns a replacement.

Workers keep an LRU of parsed
:class:`~repro.storage.sorted_sets.SpoolDirectory` indexes shared across
kinds, so a pretest chunk scheduled after a brute-force chunk over the
same spool reuses the same warm handle (``PoolStats.spool_handle_reuses``
counts those wins, per kind in ``tasks_by_kind``).

Correctness is inherited, not re-proven: every task is executed by an
unchanged sequential validator, and each task's result is a deterministic
function of the spool contents and the task itself, so decisions and summed
counters are identical to the sequential run no matter which worker ran it
or in what order — the agreement suite asserts this per seed for every
built-in kind.

Fault tolerance follows from the assignment: a worker that dies costs one
repeated task, never a wrong or missing decision, because the task it held
goes back to the front of the FIFO and re-executes on another worker.  A
process-shared lock (such as a shared queue's read or write lock) held by
a worker that dies would stay held forever and wedge every survivor;
per-worker pipes leave nothing for a dying worker to hold.  A task that
keeps killing its workers fails its job after :data:`MAX_TASK_REQUEUES`.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.errors import DiscoveryError
from repro.obs.metrics import get_registry
from repro.obs.trace import stamp
from repro.parallel.tasks import (
    PoolTask,
    ShardOutcome,
    TaskSpec,
    merge_shard_outcomes,
    resolve_task_kind,
)
from repro.storage.sorted_sets import SpoolDirectory

__all__ = [
    "JobResult",
    "PoolStats",
    "PoolTask",
    "ShardOutcome",
    "TaskSpec",
    "WorkerPool",
    "merge_pool_stat_dicts",
    "merge_shard_outcomes",
    "run_specs",
]

#: How many spool directories one worker keeps warm (parsed index, interned
#: attribute ids).  Handles hold no file descriptors — cursors are opened and
#: closed per task — so the only cost of a cached entry is memory.  The cache
#: is shared by every task kind: a pretest chunk lands on the handle a
#: brute-force chunk warmed, and vice versa.
WARM_SPOOL_LIMIT = 8

#: Give up on a task after this many requeues.  Requeues happen only after
#: worker deaths, so hitting the cap means the task *reliably* kills its
#: worker (OOM, native crash in decoding) — respawning forever would hang
#: the job and leak a process every cycle.  Failing the job loudly is the
#: only honest outcome.
MAX_TASK_REQUEUES = 3

_FAULT_ATTR_ENV = "REPRO_POOL_FAULT_ATTR"
_FAULT_ONCE_DIR_ENV = "REPRO_POOL_FAULT_ONCE_DIR"

#: Pool lifecycle events (worker spawn/death/requeue/reap) log here; wire a
#: handler via ``repro-ind --log-level`` or the standard ``logging`` config.
logger = logging.getLogger("repro.parallel.pool")


@dataclass
class PoolStats:
    """Counters of pool activity (monotonic, additive).

    One instance lives on the pool for its lifetime totals; each
    :meth:`WorkerPool.run_job` additionally returns a fresh instance holding
    that job's delta, which is what ``DiscoveryResult.pool_stats`` and the
    per-request ``serve`` output surface.  A job's delta counts the workers
    its admission started (the first job on a fresh or reaped fleet) and
    the replacements spawned for a worker that died holding one of its
    tasks; a replacement counts as spawned and as replaced, as it does in
    the lifetime totals.
    """

    jobs: int = 0
    tasks_dispatched: int = 0
    tasks_completed: int = 0
    tasks_requeued: int = 0
    workers_spawned: int = 0
    workers_replaced: int = 0
    workers_reaped: int = 0
    spool_handle_reuses: int = 0
    #: Completed tasks per task kind, e.g. ``{"brute-force": 12}``.
    tasks_by_kind: dict[str, int] = field(default_factory=dict)

    def count_kind(self, kind: str) -> None:
        """Bump the completed-task counter of ``kind``."""
        self.tasks_by_kind[kind] = self.tasks_by_kind.get(kind, 0) + 1

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for JSON reports and the ``serve`` stats lines."""
        return {
            "jobs": self.jobs,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_completed": self.tasks_completed,
            "tasks_requeued": self.tasks_requeued,
            "workers_spawned": self.workers_spawned,
            "workers_replaced": self.workers_replaced,
            "workers_reaped": self.workers_reaped,
            "spool_handle_reuses": self.spool_handle_reuses,
            "tasks_by_kind": dict(sorted(self.tasks_by_kind.items())),
        }


@dataclass
class JobResult:
    """What one :meth:`WorkerPool.run_job` produced.

    ``outcomes`` are ordered by task id (i.e. by the caller's spec order);
    ``stats`` is this job's own counter delta, independent of the pool's
    lifetime :attr:`WorkerPool.stats`.  ``task_spans`` carries one
    worker-stamped span dict per completed task (ordered by task id, each
    annotated with ``task_id`` and its requeue count) for callers that
    assemble a request trace; pure observability, never folded into
    outcomes.
    """

    outcomes: list[ShardOutcome]
    stats: PoolStats
    task_spans: list[dict] = field(default_factory=list)


def merge_pool_stat_dicts(parts: list[dict | None]) -> dict | None:
    """Fold per-phase pool-stats dicts into one pipeline-wide summary.

    ``discover_inds`` runs up to three pool jobs per call (spool export,
    sampling pretest, validation), each reporting its own
    :meth:`PoolStats.as_dict` delta; the result object surfaces their sum
    so ``tasks_by_kind`` covers the whole pipeline.  ``None`` entries
    (phases that ran in-process) are skipped; all-``None`` input returns
    ``None``, meaning no pool ran at all.
    """
    live = [part for part in parts if part]
    if not live:
        return None
    merged = PoolStats()
    for part in live:
        for key, value in part.items():
            if key == "tasks_by_kind":
                for kind, count in value.items():
                    merged.tasks_by_kind[kind] = (
                        merged.tasks_by_kind.get(kind, 0) + count
                    )
            elif hasattr(merged, key):
                setattr(merged, key, getattr(merged, key) + value)
    return merged.as_dict()


def run_specs(
    pool: "WorkerPool | None",
    workers: int,
    spool_root: str,
    specs: list[TaskSpec],
) -> tuple[JobResult, bool]:
    """Run ``specs`` on ``pool``, or on a right-sized throwaway fleet.

    The one borrowed-vs-ephemeral pool policy of the brute-force engine
    and the pooled export: with ``pool=None`` a per-call :class:`WorkerPool` is built
    — never larger than the number of specs, since extra workers would have
    nothing to pull — and drained afterwards; a supplied pool is borrowed
    and left running.  Returns ``(job, ephemeral)`` so callers can report
    ``pool_warm`` honestly.
    """
    ephemeral = pool is None
    if ephemeral:
        pool = WorkerPool(min(workers, max(len(specs), 1)))
    try:
        return pool.run_job(spool_root, specs), ephemeral
    finally:
        if ephemeral:
            pool.shutdown()


# ------------------------------------------------------------ worker process
def _payload_mentions(payload: object, attr: str) -> bool:
    """Does ``payload`` contain ``attr`` as a string, at any tuple depth?

    The kind-agnostic half of the fault hook's trigger: tasks without
    candidates (``spool-export`` units are plain nested tuples carrying
    their qualified attribute names) can still be marked for a crash by
    naming the attribute.  Only ever called on the test-hook path.
    """
    if isinstance(payload, str):
        return payload == attr
    if isinstance(payload, (tuple, list)):
        return any(_payload_mentions(item, attr) for item in payload)
    return False


def _maybe_inject_fault(task: PoolTask) -> None:
    """Test hook: die once, hard, when a task touches the marked attribute.

    Only active when ``REPRO_POOL_FAULT_ATTR`` names an attribute one of the
    task's candidates uses — or, for candidate-free kinds like
    ``spool-export``, an attribute whose qualified name appears in the task
    payload.  With ``REPRO_POOL_FAULT_ONCE_DIR`` set, an
    ``O_EXCL`` marker file limits the crash to exactly one worker, so the
    requeued task succeeds on the replacement — the shape the lifecycle
    tests need.  ``os._exit`` deliberately skips all cleanup: a real worker
    death (OOM kill, segfault) does not flush its pipe either.
    """
    attr = os.environ.get(_FAULT_ATTR_ENV)
    if not attr:
        return
    touched = any(
        attr in (c.dependent.qualified, c.referenced.qualified)
        for c in task.candidates
    ) or _payload_mentions(task.payload, attr)
    if not touched:
        return
    marker_dir = os.environ.get(_FAULT_ONCE_DIR_ENV)
    if marker_dir:
        try:
            fd = os.open(
                os.path.join(marker_dir, "pool-fault-fired"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return  # the fault already fired once; behave normally now
        os.close(fd)
    os._exit(17)


def _open_warm(
    handles: "OrderedDict[str, SpoolDirectory]", root: str
) -> tuple[SpoolDirectory, bool]:
    """Open ``root`` through the worker's warm-handle cache (LRU, bounded).

    A cached handle counts as warm only while the spool's ``index.json``
    is provably the file it parsed
    (:meth:`~repro.storage.sorted_sets.SpoolDirectory.index_is_current`) —
    a re-export to the same path (explicit ``spool_dir``, cache rebuild, a
    partial delta re-export) must never be validated against a stale
    parsed index, because stale per-block metadata could silently skip
    live blocks under ``skip_scan``.  The identity includes the inode:
    mtime alone misses a rewrite landing within one clock tick of the
    original (coarse filesystem timestamps make that reachable for
    back-to-back delta rounds), but ``save_index`` always publishes via
    ``os.replace`` of a freshly created temp file, so every rewrite
    carries a new inode even when size and mtime collide.  One ``stat``
    per task buys that guarantee.
    """
    cached = handles.get(root)
    if cached is not None and cached.index_is_current():
        handles.move_to_end(root)
        return cached, True
    spool = SpoolDirectory.open(root)
    handles[root] = spool
    handles.move_to_end(root)
    while len(handles) > WARM_SPOOL_LIMIT:
        handles.popitem(last=False)
    return spool, False


def _worker_loop(conn) -> None:
    """Long-lived worker: run the tasks ``conn`` brings until ``None`` or EOF.

    The loop is kind-agnostic: it resolves every task's executor through the
    registry in :mod:`repro.parallel.tasks` and only owns the two concerns
    shared by all kinds — warm spool handles and one reply per task.  The
    parent sends a task only to an idle worker and remembers which task it
    sent, so a reply names no task: it is ``("done", outcome, warm)`` or
    ``("error", detail)``.

    Every completed task carries a worker-stamped timing span
    (:func:`repro.obs.trace.stamp`) on its outcome — two monotonic clock
    reads and a small dict, cheap enough to run unconditionally, and
    ``CLOCK_MONOTONIC`` is system-wide so the parent can place it directly
    on the request's timeline.
    """
    handles: OrderedDict[str, SpoolDirectory] = OrderedDict()
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent closed its end
            break
        if task is None:
            break
        try:
            _maybe_inject_fault(task)
            executor = resolve_task_kind(task.kind)
            started = time.monotonic()
            spool, warm = _open_warm(handles, task.spool_root)
            outcome = executor(spool, task)
            outcome.span = stamp(
                f"task:{task.kind}",
                started,
                time.monotonic(),
                kind=task.kind,
                chunk_size=len(task.candidates),
                warm=warm,
            )
            conn.send(("done", outcome, warm))
        except Exception as exc:  # ship the failure, keep the worker alive
            conn.send(("error", repr(exc)))


# ------------------------------------------------------------------- the pool
@dataclass
class _JobState:
    """Book-keeping for one in-flight :meth:`WorkerPool.run_job`."""

    job_id: int
    tasks: dict[int, PoolTask]
    outcomes: dict[int, ShardOutcome] = field(default_factory=dict)
    task_spans: dict[int, dict] = field(default_factory=dict)  # by task_id
    requeues: dict[int, int] = field(default_factory=dict)  # task_id -> count
    stats: PoolStats = field(default_factory=PoolStats)
    error: DiscoveryError | None = None
    done: threading.Event = field(default_factory=threading.Event)

    def fail(self, error: DiscoveryError) -> None:
        """Mark the job failed and release its waiting caller."""
        if self.error is None:
            self.error = error
        self.done.set()


@dataclass(eq=False)
class _Worker:
    """One worker process and the parent's end of its pipe."""

    proc: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    #: The task this worker is executing; ``None`` while it is idle.
    task: PoolTask | None = None


class WorkerPool:
    """Long-lived task-execution workers, each fed over its own pipe.

    The pool is created cheaply (no processes yet) and spawns its workers —
    plus one parent-side dispatcher thread that waits on their pipes — on
    the first job; it then survives any number of jobs until
    :meth:`shutdown` drains it.  One pool instance serves one parent
    process; it is not itself picklable and must not be shared across forks.

    ``run_job`` is thread-safe: any number of caller threads may have jobs
    in flight at once (``repro-ind serve`` multiplexes overlapping requests
    this way), and every job gets back its own outcomes and its own
    :class:`PoolStats` delta.  Tasks are typed — see
    :mod:`repro.parallel.tasks` — so one warm fleet executes brute-force
    chunks and pretest chunks interchangeably.

    Use as a context manager or via
    :class:`repro.core.runner.DiscoverySession`; passing the pool to the
    validation engines (or ``discover_inds(..., pool=...)``) makes every
    call reuse the warm fleet instead of forking a fresh one.

    ``shutdown`` is idempotent — a second call is a no-op — and a drained
    pool refuses further jobs with :class:`~repro.errors.DiscoveryError`.
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        """Create an idle pool of ``workers`` processes (spawned lazily).

        ``start_method`` overrides the platform's multiprocessing start
        method (``fork``/``spawn``/``forkserver``); the protocol works
        identically under all of them because tasks carry only picklable
        paths, candidates and payloads, never handles, and each worker's
        pipe end travels as a process argument.  (Task kinds registered
        dynamically at runtime — rather than at import time of a module
        workers also import — are visible to workers only under ``fork``.)
        """
        if workers < 1:
            raise DiscoveryError(f"workers must be >= 1, got {workers!r}")
        self._workers_target = workers
        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._workers: list[_Worker] = []
        #: Tasks no worker holds yet, across all jobs, oldest first.
        self._pending: deque[PoolTask] = deque()
        #: Written to wake the dispatcher when a worker joins the fleet or
        #: the pool shuts down; the workers' pipes cover everything else.
        self._wake_r = self._wake_w = None
        self._closed = False
        self._job_counter = 0
        self._jobs: dict[int, _JobState] = {}
        self._lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._last_activity = time.monotonic()
        self.stats = PoolStats()

    # -- lifecycle ---------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured fleet size (the pool respawns toward this number)."""
        return self._workers_target

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed pool accepts no jobs."""
        return self._closed

    @property
    def started(self) -> bool:
        """True once the first job spawned the fleet (dispatcher live).

        Stays true after :meth:`reap_idle` drains the worker processes —
        the next job simply respawns them.
        """
        return self._dispatcher is not None

    @property
    def alive_workers(self) -> int:
        """Worker processes currently alive.

        Zero before the first job and after :meth:`reap_idle`; in both
        cases the next pooled job pays worker startup.
        """
        with self._lock:
            return sum(1 for worker in self._workers if worker.proc.is_alive())

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: the pool itself (workers still lazy)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drain the fleet."""
        self.shutdown()

    def _admit(self, state: _JobState) -> None:
        """Start or refill the fleet and register ``state`` under a new job
        id (lock held); the workers spawned here count toward its stats."""
        if self._closed:
            raise DiscoveryError("worker pool is shut down")
        if self._dispatcher is None:
            self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="pool-dispatcher", daemon=True
            )
            self._dispatcher.start()
        # Respawn a fleet reap_idle released; a no-op on the hot path
        # (the fleet is already at target size).
        while len(self._workers) < self._workers_target:
            self._spawn_worker()
            state.stats.workers_spawned += 1
        self._job_counter += 1
        state.job_id = self._job_counter
        state.stats.jobs = 1
        self._jobs[state.job_id] = state
        self.stats.jobs += 1

    def _spawn_worker(self) -> None:
        """Start one worker on a fresh pipe (lock held)."""
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        proc.start()
        # Only the worker may hold its end, so that the pipe breaks when
        # the worker dies; a later fork must not inherit it.
        child_conn.close()
        self._workers.append(_Worker(proc, conn))
        self._wake_w.send_bytes(b"")  # watch the new worker's pipe too
        self.stats.workers_spawned += 1
        get_registry().inc("pool_workers_spawned_total")
        logger.debug("spawned pool worker pid=%s", proc.pid)

    @staticmethod
    def _stop_workers(workers: list[_Worker], timeout: float) -> None:
        """Send each worker the ``None`` sentinel, join, kill stragglers."""
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.conn.close()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Drain the fleet: sentinel every worker, join, terminate stragglers.

        Safe to call any number of times (double shutdown is a documented
        no-op) and safe to call on a pool that never started.  Jobs still in
        flight fail with :class:`~repro.errors.DiscoveryError` rather than
        hang; callers draining a service should let their requests finish
        first (``repro-ind serve`` does).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for state in self._jobs.values():
                state.fail(DiscoveryError("worker pool is shut down"))
            self._jobs.clear()
            self._pending.clear()
            workers, self._workers = self._workers, []
            if self._dispatcher is None:
                return
            self._wake_w.send_bytes(b"")
        self._dispatcher.join(timeout=timeout)
        self._stop_workers(workers, timeout)
        self._wake_r.close()
        self._wake_w.close()

    def reap_idle(
        self, max_idle_seconds: float = 0.0, timeout: float = 5.0
    ) -> int:
        """Drain an idle fleet without closing the pool; returns workers reaped.

        A session whose requests stop reaching the pool — merges and
        single-candidate validations run in process — would otherwise
        pin a warm fleet of processes doing nothing; this releases them
        once the pool has had no job activity for ``max_idle_seconds``.
        The pool stays open: the next :meth:`run_job` simply respawns
        toward the configured fleet size (counted in ``workers_spawned``
        again, plus ``workers_reaped`` here), at the usual cold-start
        price.  A busy pool (jobs in flight), a never-started pool, or one
        active too recently reaps nothing and returns 0.

        The whole drain runs under the pool lock, so a concurrent
        ``run_job`` blocks until the victims exited and respawns a fresh
        fleet only then.
        """
        with self._lock:
            if (
                self._dispatcher is None
                or self._closed
                or self._jobs
                or not self._workers
            ):
                return 0
            if time.monotonic() - self._last_activity < max_idle_seconds:
                return 0
            victims, self._workers = self._workers, []
            self._stop_workers(victims, timeout)
            self.stats.workers_reaped += len(victims)
            get_registry().inc("pool_workers_reaped_total", len(victims))
            logger.info(
                "reaped %s idle pool worker(s): %s",
                len(victims),
                [worker.proc.pid for worker in victims],
            )
            return len(victims)

    # -- dispatch ----------------------------------------------------------
    def run_job(self, spool_root: str, specs: list[TaskSpec]) -> JobResult:
        """Execute every spec against ``spool_root``; return outcomes + stats.

        Specs join the pool's FIFO in order (callers put the heaviest
        first) and each goes to the next idle worker — the work-stealing
        hand-out.  The call blocks until every task has exactly one
        outcome, requeuing the task of any worker that died mid-task and
        replacing the worker.  A task that fails *in* its executor (not by
        worker death) runs once, and the call raises
        :class:`~repro.errors.DiscoveryError`.  Thread-safe: concurrent
        ``run_job`` calls interleave over the same fleet, each getting its
        own results and stats delta.
        """
        for spec in specs:
            resolve_task_kind(spec.kind)  # unknown kinds fail in the caller
        if not specs:
            if self._closed:
                raise DiscoveryError("worker pool is shut down")
            return JobResult(outcomes=[], stats=PoolStats())
        with self._lock:
            state = _JobState(job_id=0, tasks={})
            self._admit(state)
            state.tasks = {
                index: PoolTask(
                    job_id=state.job_id,
                    task_id=index,
                    kind=spec.kind,
                    spool_root=spool_root,
                    candidates=tuple(spec.candidates),
                    payload=tuple(spec.payload),
                )
                for index, spec in enumerate(specs)
            }
            tasks = state.tasks
            state.stats.tasks_dispatched = len(tasks)
            self.stats.tasks_dispatched += len(tasks)
            self._pending.extend(tasks.values())
            self._assign()
        self._await(state)
        return JobResult(
            outcomes=[
                state.outcomes[index] for index in sorted(state.outcomes)
            ],
            stats=state.stats,
            task_spans=[
                state.task_spans[index] for index in sorted(state.task_spans)
            ],
        )

    def _await(self, state: _JobState) -> None:
        """Block until ``state`` is done, raise its error, then forget it."""
        try:
            while not state.done.wait(timeout=0.1):
                if not self._dispatcher.is_alive():
                    # Belt and braces under the dispatcher's own exception
                    # guard: should the thread die anyway (MemoryError,
                    # interpreter teardown), waiting would hang forever.
                    raise DiscoveryError("pool dispatcher thread died")
            if state.error is not None:
                raise state.error
        finally:
            with self._lock:
                self._jobs.pop(state.job_id, None)
                self._last_activity = time.monotonic()

    def _assign(self) -> None:
        """Send pending tasks to idle workers, oldest first (lock held).

        A task whose job already finished or failed is dropped here.  The
        send cannot block for long: an idle worker is waiting in ``recv``.
        """
        for worker in self._workers:
            while worker.task is None and self._pending:
                task = self._pending.popleft()
                state = self._jobs.get(task.job_id)
                if state is None or state.error is not None:
                    continue
                try:
                    worker.conn.send(task)
                except OSError:
                    pass  # the worker died; its sentinel requeues the task
                worker.task = task

    # -- dispatcher thread -------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Wait on every worker's pipe and sentinel; apply what arrives.

        A reply frees its worker; a death — the sentinel, or EOF or an
        error on the pipe — requeues the one task the worker held.  Either
        way the freed or replacement worker takes the next pending task
        before the loop waits again.
        """
        while True:
            with self._lock:
                if self._closed:
                    return
                watched: dict[object, _Worker | None] = {self._wake_r: None}
                for worker in self._workers:
                    watched[worker.conn] = worker
                    watched[worker.proc.sentinel] = worker
            try:
                ready = multiprocessing.connection.wait(list(watched))
            except OSError:  # a watched pipe was closed meanwhile; rebuild
                continue
            with self._lock:
                if self._closed:
                    return
                try:
                    self._apply(ready, {watched[obj] for obj in ready})
                except Exception as exc:
                    # The dispatcher is the only thread driving jobs
                    # forward; if it died silently (respawn failing under
                    # memory pressure) every in-flight run_job would hang
                    # forever.  Fail the current jobs loudly and keep
                    # serving — a persistent fault simply keeps failing
                    # jobs, which is observable, unlike a dead thread.
                    for state in self._jobs.values():
                        state.fail(
                            DiscoveryError(f"pool dispatcher failed: {exc!r}")
                        )

    def _apply(self, ready: list, woken: set) -> None:
        """Handle one ``wait`` result (lock held).

        ``woken`` holds the workers ``ready`` belongs to, resolved from the
        watch list ``wait`` ran on: a worker reaped meanwhile is no longer
        in the fleet and is skipped, and its sentinel's file descriptor,
        should it be reused, can never be mistaken for a new worker's.
        """
        if self._wake_r in ready:
            while self._wake_r.poll():
                self._wake_r.recv_bytes()
        for worker in list(self._workers):
            if worker not in woken:
                continue
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._replace_dead(worker)
                    continue
                self._handle_message(worker, message)
            if worker.proc.sentinel in ready:
                self._replace_dead(worker)
        self._assign()

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        """Apply a worker's reply to the job of its task (lock held)."""
        task, worker.task = worker.task, None
        state = self._jobs.get(task.job_id)
        if state is None or state.error is not None:
            return  # the job finished or failed while the task ran
        task_id = task.task_id
        if message[0] == "error":
            state.fail(
                DiscoveryError(
                    f"pool worker {worker.proc.pid} failed executing "
                    f"{task.kind!r} task {task_id}: {message[1]}"
                )
            )
            return
        _, outcome, warm = message
        state.outcomes[task_id] = outcome
        if outcome.span is not None:
            span = dict(outcome.span)
            span["attrs"] = dict(
                span.get("attrs", {}),
                task_id=task_id,
                requeues=state.requeues.get(task_id, 0),
            )
            state.task_spans[task_id] = span
        for stats in (self.stats, state.stats):
            stats.tasks_completed += 1
            stats.count_kind(task.kind)
            if warm:
                stats.spool_handle_reuses += 1
        registry = get_registry()
        registry.inc("pool_tasks_total", kind=task.kind)
        if warm:
            registry.inc("spool_handle_reuses_total")
        if len(state.outcomes) == len(state.tasks):
            state.done.set()

    def _replace_dead(self, worker: _Worker) -> None:
        """Requeue a dead worker's task and spawn a replacement (lock held).

        The replacement counts toward the stats of the job whose task the
        dead worker held, as one spawned and one replaced worker.
        """
        self._workers.remove(worker)
        worker.conn.close()
        worker.proc.join(timeout=1.0)
        get_registry().inc("pool_workers_died_total")
        logger.warning(
            "pool worker pid=%s died (exitcode=%s)",
            worker.proc.pid,
            worker.proc.exitcode,
        )
        job = None
        if worker.task is not None:
            job = self._jobs.get(worker.task.job_id)
            self._requeue(worker.task)
        while len(self._workers) < self._workers_target:
            self._spawn_worker()
            self.stats.workers_replaced += 1
            get_registry().inc("pool_workers_replaced_total")
            if job is not None:
                job.stats.workers_spawned += 1
                job.stats.workers_replaced += 1

    def _requeue(self, task: PoolTask) -> None:
        """Put a dead worker's task back at the front of the FIFO (lock
        held), failing its job instead at :data:`MAX_TASK_REQUEUES`."""
        state = self._jobs.get(task.job_id)
        if state is None or state.error is not None:
            return  # the job finished or failed while the task ran
        attempts = state.requeues.get(task.task_id, 0) + 1
        if attempts > MAX_TASK_REQUEUES:
            state.fail(
                DiscoveryError(
                    f"task {task.task_id} killed its worker {attempts} times "
                    f"(candidates {[str(c) for c in task.candidates]}); "
                    "giving up instead of respawning forever"
                )
            )
            return
        state.requeues[task.task_id] = attempts
        self._pending.appendleft(task)
        self.stats.tasks_requeued += 1
        state.stats.tasks_requeued += 1
        get_registry().inc("pool_tasks_requeued_total")
        logger.warning(
            "requeued %r task %s of job %s (attempt %s of %s)",
            task.kind,
            task.task_id,
            state.job_id,
            attempts,
            MAX_TASK_REQUEUES,
        )
