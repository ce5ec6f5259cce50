"""Admission control + trajectory-affinity routing.

:class:`ReconService` is the in-process heart of the service — the
HTTP front end (:mod:`repro.service.server`) is a thin JSON shim over
it, and everything here is directly usable (and tested) without a
socket.

Two policies live here:

**Bounded admission (backpressure).**  The service accepts at most
``max_pending`` jobs that are queued or running at once.  A submission
beyond that is refused *before* a job id is issued —
:class:`~repro.errors.ServiceOverloaded`, carrying a ``retry_after``
estimate derived from the queue depth and an exponentially smoothed
per-job wall time.  Because the bound is enforced globally at
admission, the per-worker inboxes can be unbounded: an accepted job
always has a queue slot and is therefore *never* dropped, even during
shutdown (``close(drain=True)`` refuses new work but finishes all
accepted work).

**Trajectory affinity.**  Jobs are routed by trajectory fingerprint:
the first job of a fingerprint picks the least-loaded worker and the
assignment sticks (bounded LRU of assignments), so repeat traffic on
one trajectory always lands on the worker whose cached plan (with its
bound select tables or compiled plan and Toeplitz operator) is already
warm for it.  Distinct trajectories spread over workers by load.
"""

from __future__ import annotations

import math
import queue
import threading
from collections import OrderedDict, deque

from ..errors import DegradationEvent, ServiceOverloaded
from ..robustness.checkpoint import CheckpointStore
from .jobs import Job, JobSpec, JobState
from .watchdog import Watchdog
from .worker import _SHUTDOWN, ReconWorker

__all__ = ["ReconService"]


class ReconService:
    """A warm-cache reconstruction worker pool with bounded admission.

    Parameters
    ----------
    workers:
        Worker-thread count (each owns its own warm caches and buffer
        pool).
    max_pending:
        Global bound on jobs simultaneously queued + running.  The
        lever that turns overload into fast 429s instead of unbounded
        memory growth.
    plan_cache_size:
        Warm plans each worker retains (see
        :class:`~repro.service.worker.ReconWorker`).
    max_affinity:
        Sticky fingerprint→worker assignments remembered (LRU).
    max_jobs_retained:
        Terminal job records kept for status lookup (oldest-finished
        evicted beyond this), bounding service memory under sustained
        traffic: a record keeps its status and result, not its input
        arrays.
    autostart:
        Start the worker threads immediately.  Tests pass ``False`` to
        exercise admission deterministically, then call :meth:`start`.
    watchdog_period / watchdog_stale_after:
        Supervision cadence (see :class:`~repro.service.watchdog.Watchdog`).
        The watchdog thread starts with :meth:`start`; pass
        ``watchdog_period=None`` to run without supervision (some
        admission-only tests do).
    max_requeues:
        Watchdog requeues one job survives before it is force-failed
        instead of being retried on yet another replacement worker.
    checkpoint_store:
        Shared :class:`~repro.robustness.CheckpointStore` (an
        in-memory LRU by default; pass a
        :class:`~repro.robustness.FileCheckpointStore` to survive the
        process).  Streamed adjoint jobs snapshot into it so a
        watchdog requeue resumes mid-stream bit-identically.
    checkpoint_every:
        Streamed chunks between snapshots.
    idempotency_capacity:
        Client idempotency keys remembered (LRU) for submission dedup.
    """

    def __init__(
        self,
        workers: int = 2,
        max_pending: int = 64,
        plan_cache_size: int = 8,
        max_affinity: int = 1024,
        max_jobs_retained: int = 4096,
        autostart: bool = True,
        watchdog_period: float | None = 0.25,
        watchdog_stale_after: float = 2.0,
        max_requeues: int = 2,
        checkpoint_store: CheckpointStore | None = None,
        checkpoint_every: int = 4,
        idempotency_capacity: int = 1024,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self._plan_cache_size = plan_cache_size
        self.checkpoint_store = (
            CheckpointStore() if checkpoint_store is None else checkpoint_store
        )
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.max_requeues = max(0, int(max_requeues))
        self.workers = [self._make_worker(f"w{i}") for i in range(int(workers))]
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._affinity: OrderedDict[str, ReconWorker] = OrderedDict()
        self.max_affinity = int(max_affinity)
        self.max_jobs_retained = max(1, int(max_jobs_retained))
        #: idempotency-key -> Job dedup map (bounded LRU)
        self._idempotency: OrderedDict[str, Job] = OrderedDict()
        self.idempotency_capacity = max(1, int(idempotency_capacity))
        #: terminal job ids in finish order (status-retention eviction)
        self._finished_order: list[str] = []
        #: jobs currently queued or running (maintained via on_terminal)
        self._pending = 0
        self._closed = False
        self._started = False
        #: exponentially smoothed per-job wall seconds (Retry-After input)
        self._ewma_seconds = 1.0
        #: recent service-level DegradationEvents (watchdog restarts)
        self.events: deque = deque(maxlen=64)
        # monitoring counters
        self.accepted = 0
        self.rejected = 0
        self.deduplicated = 0
        self.jobs_cancelled = 0
        self.jobs_deadline_exceeded = 0
        self.jobs_resumed = 0
        self.watchdog_restarts = 0
        self.watchdog = (
            None
            if watchdog_period is None
            else Watchdog(
                self,
                period=watchdog_period,
                stale_after=watchdog_stale_after,
            )
        )
        if autostart:
            self.start()

    def _make_worker(self, name: str) -> ReconWorker:
        return ReconWorker(
            name,
            plan_cache_size=self._plan_cache_size,
            checkpoint_store=self.checkpoint_store,
            checkpoint_every=self.checkpoint_every,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start (or restart after ``autostart=False``) the worker threads."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            self._started = True
        for worker in self.workers:
            worker.start()
        if self.watchdog is not None:
            self.watchdog.start()

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; optionally finish everything accepted.

        ``drain=True`` (the graceful path) lets every queued and
        running job reach a terminal state before the worker threads
        exit — the sentinel sits *behind* the accepted jobs in each
        inbox.  ``drain=False`` abandons queued jobs in place (their
        records stay ``queued`` forever) and is only for emergency
        teardown in tests.
        """
        with self._lock:
            self._closed = True
            started = self._started
        # stop supervising before draining: workers exiting on the
        # shutdown sentinel must not look like crashes to the watchdog
        if self.watchdog is not None:
            self.watchdog.stop()
        if not started:
            if drain:
                # workers never ran; run them now so accepted jobs finish
                for worker in self.workers:
                    worker.start()
            else:
                return
        if drain:
            for worker in self.workers:
                worker.stop(timeout)
        else:
            for worker in self.workers:
                worker.inbox.queue.clear()  # test-only emergency path
                worker.stop(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # admission + routing
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Jobs currently queued or running."""
        with self._lock:
            return self._pending

    def _job_finished(self, job: Job) -> None:
        """``on_terminal`` hook: bookkeeping for admission + retention.

        Also the single place the lifecycle counters are derived —
        from the terminal state itself, so every path into
        ``cancelled`` / ``deadline_exceeded`` (worker, watchdog sweep,
        client cancel of a queued job) is counted exactly once.
        """
        with self._lock:
            self._pending -= 1
            if job.state == JobState.CANCELLED:
                self.jobs_cancelled += 1
            elif job.state == JobState.DEADLINE_EXCEEDED:
                self.jobs_deadline_exceeded += 1
            if job.result is not None and job.result.resumed_from is not None:
                self.jobs_resumed += 1
            if job.seconds is not None:
                # smooth the Retry-After estimator with real job times
                self._ewma_seconds = (
                    0.7 * self._ewma_seconds + 0.3 * job.seconds
                )
            self._finished_order.append(job.id)
            while len(self._finished_order) > self.max_jobs_retained:
                self._jobs.pop(self._finished_order.pop(0), None)
        # a cancelled/expired/failed streamed job may leave a snapshot
        # behind; a terminal job can never be resumed, so drop it
        self.checkpoint_store.delete(job.id)

    def _retry_after(self, depth: int) -> int:
        """Whole-second wait estimate for one queue slot to open."""
        per_worker = depth / max(1, len(self.workers))
        return max(1, int(math.ceil(per_worker * self._ewma_seconds)))

    def _route(self, spec: JobSpec) -> ReconWorker:
        """Sticky fingerprint→worker assignment (least-loaded on first sight)."""
        fp = spec.fingerprint
        worker = self._affinity.get(fp)
        if worker is None:
            worker = min(self.workers, key=lambda w: w.depth)
            self._affinity[fp] = worker
            while len(self._affinity) > self.max_affinity:
                self._affinity.popitem(last=False)
        else:
            self._affinity.move_to_end(fp)
        return worker

    def submit(self, spec: JobSpec) -> Job:
        """Admit, route, and enqueue one job (or refuse at the door).

        A spec carrying an ``idempotency_key`` already seen returns
        the *original* job (whatever its state) instead of enqueueing
        a duplicate — a client retrying after an ambiguous network
        failure can never make the same work run twice.

        Raises
        ------
        ServiceOverloaded
            When ``max_pending`` jobs are already queued or running.
            No job id is issued; the caller should retry after
            ``exc.retry_after`` seconds.
        RuntimeError
            When the service is closed (draining or shut down).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shutting down; not accepting jobs")
            key = spec.idempotency_key
            if key is not None:
                existing = self._idempotency.get(key)
                if existing is not None:
                    self._idempotency.move_to_end(key)
                    self.deduplicated += 1
                    return existing
            depth = self._pending
            if depth >= self.max_pending:
                self.rejected += 1
                raise ServiceOverloaded(
                    f"job queue is full ({depth}/{self.max_pending} pending)",
                    retry_after=self._retry_after(depth),
                )
            job = Job(spec)
            job.on_terminal = self._job_finished
            self._jobs[job.id] = job
            if key is not None:
                self._idempotency[key] = job
                while len(self._idempotency) > self.idempotency_capacity:
                    self._idempotency.popitem(last=False)
            self._pending += 1
            worker = self._route(spec)
            self.accepted += 1
        # enqueue outside the lock: unbounded inbox, never blocks
        worker.inbox.put(job)
        return job

    def cancel(self, job_id: str, reason: str = "cancelled by client") -> Job:
        """Request cancellation of a job (raises KeyError if unknown).

        Queued jobs go terminal immediately; running jobs have their
        cancel token set and stop at the next cooperative check
        (between streamed chunks / CG iterations).  Terminal jobs are
        untouched — cancellation is idempotent and never un-finishes
        anything.  Returns the job for status inspection.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        # set the token first so a job racing queued -> running still
        # observes the cancel at its first cooperative check
        job.cancel_token.cancel(reason)
        if job.state == JobState.QUEUED:
            job.mark_cancelled(reason)
        return job

    # ------------------------------------------------------------------
    # lookup / waiting / stats
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs_snapshot(self) -> list[Job]:
        """Consistent list of all retained jobs (watchdog sweeps this)."""
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # supervision (called from the watchdog thread)
    # ------------------------------------------------------------------
    def _replace_worker(self, index: int, old: ReconWorker, reason: str) -> None:
        """Swap a wedged/dead worker for a fresh one and rescue its jobs.

        A hung Python thread cannot be killed, so recovery is by
        replacement: the new worker inherits the name, the affinity
        assignments, and the inbox backlog; the old thread's token is
        cancelled so it exits on wake (the shutdown sentinel in its
        inbox finishes the zombie off), and its late terminal marks
        are fenced by the attempt counter :meth:`Job.requeue` bumped.
        """
        replacement = self._make_worker(old.name)
        with self._lock:
            if self._closed or self.workers[index] is not old:
                return  # already replaced, or shutting down
            self.workers[index] = replacement
            for fp, worker in self._affinity.items():
                if worker is old:
                    self._affinity[fp] = replacement
            self.watchdog_restarts += 1
            wedged = [
                job
                for job in self._jobs.values()
                if job.state == JobState.RUNNING and job.worker == old.name
            ]
        replacement.start()
        self._record_event(
            DegradationEvent(
                "service", f"worker:{old.name}", "restart", reason
            )
        )
        for job in wedged:
            # free the hung thread at its next cooperative check (a
            # crashed thread is already gone; cancel is then a no-op)
            job.cancel_token.cancel(f"worker {old.name} replaced: {reason}")
            if job.deadline is not None and job.deadline.expired:
                job.mark_deadline_exceeded(
                    f"DeadlineExceeded: deadline exceeded "
                    f"({job.spec.deadline_seconds:g}s budget) "
                    f"when worker {old.name} wedged"
                )
            elif job.requeues >= self.max_requeues:
                job.mark_failed(
                    f"RuntimeError: worker {old.name} wedged ({reason}) and "
                    f"the requeue budget ({self.max_requeues}) is spent"
                )
            elif job.requeue():
                # a streamed adjoint job resumes from its checkpoint
                # (keyed by job id) instead of restarting from zero
                replacement.inbox.put(job)
        # hand the old inbox's backlog to the replacement, in order,
        # then leave the sentinel so the zombie exits if it ever wakes
        while True:
            try:
                item = old.inbox.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                replacement.inbox.put(item)
        old.inbox.put(_SHUTDOWN)

    def _record_event(self, event: DegradationEvent) -> None:
        self.events.append(event)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` is terminal (raises KeyError if unknown)."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        job.wait(timeout)
        return job

    def stats(self) -> dict:
        """Queue + per-worker + aggregate-pool numbers (JSON-ready).

        The aggregate pool line is
        :meth:`repro.gridding.PoolSnapshot.merge` over every worker's
        snapshot — each worker's pool counters are local to its own
        pool object, so without the merge a parent-side report would
        silently show only its own (empty) pool.
        """
        from ..gridding.buffers import PoolSnapshot

        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        worker_stats = [w.stats() for w in self.workers]
        aggregate = PoolSnapshot.merge(
            w.buffer_pool.snapshot() for w in self.workers
        )
        return {
            "workers": worker_stats,
            "pool": aggregate.as_dict(),
            "queue_depth": sum(w["depth"] for w in worker_stats),
            "max_pending": self.max_pending,
            "jobs": states,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "deduplicated": self.deduplicated,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_deadline_exceeded": self.jobs_deadline_exceeded,
            "jobs_resumed": self.jobs_resumed,
            "watchdog_restarts": self.watchdog_restarts,
            "watchdog_alive": self.watchdog is not None and self.watchdog.alive,
            "checkpoints_held": len(self.checkpoint_store),
            "events": [
                {
                    "component": e.component,
                    "from_stage": e.from_stage,
                    "to_stage": e.to_stage,
                    "reason": e.reason,
                }
                for e in list(self.events)
            ],
            "ewma_job_seconds": round(self._ewma_seconds, 6),
            "closed": self._closed,
        }

    # context-manager sugar: `with ReconService() as svc:` drains on exit
    def __enter__(self) -> "ReconService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=True)
