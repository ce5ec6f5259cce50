"""Supervision loop for the reconstruction worker pool.

The :class:`Watchdog` is one daemon thread owned by
:class:`~repro.service.ReconService`.  Every ``period`` seconds it
runs two sweeps:

**Deadline sweep.**  Running jobs enforce their own deadline — the
:class:`~repro.robustness.CancelToken` raises
:class:`~repro.errors.DeadlineExceeded` at the next cooperative check
— but a *queued* job has no thread checking anything.  The sweep marks
expired queued jobs ``deadline_exceeded`` directly, so a job whose SLA
elapsed in the queue never wastes a worker slot on a solve nobody
wants.

**Worker sweep.**  Each worker proves liveness by touching a monotonic
heartbeat at job pickup and on every cooperative check (between
streamed chunks / CG iterations).  Two wedge shapes are detected:

- *crash* — the worker thread is no longer alive (an exception
  escaped the job isolation boundary, e.g. the chaos suite's
  :class:`~repro.robustness.InjectedWorkerCrash`);
- *hang* — the thread is alive, a job is in flight, and the heartbeat
  is older than ``stale_after`` seconds.

Either way the service *replaces* the worker (a hung Python thread
cannot be killed): a fresh :class:`~repro.service.worker.ReconWorker`
takes over the name, the inbox backlog, and the affinity assignments;
the old token is cancelled so a hung thread exits on wake (its late
terminal marks are fenced off by the job's attempt counter); and the
wedged job is requeued — resuming mid-stream from its checkpoint when
one exists — or force-failed with a recorded
:class:`~repro.errors.DegradationEvent` once its requeue budget is
spent.
"""

from __future__ import annotations

import threading
import time

from .jobs import JobState

__all__ = ["Watchdog"]


class Watchdog:
    """Periodic deadline + worker-liveness sweeper.

    Parameters
    ----------
    service:
        The owning :class:`~repro.service.ReconService` (supplies the
        job table, the worker list, and the replacement machinery).
    period:
        Seconds between sweeps.  The lifecycle guarantee is phrased in
        this unit: a wedged worker is detected and replaced within one
        period of its heartbeat going stale.
    stale_after:
        Heartbeat age (seconds) beyond which a busy worker counts as
        hung.  Must comfortably exceed the longest atomic step between
        cooperative checks (one chunk scatter / one CG iteration), or
        healthy-but-slow workers get restarted for no reason.
    """

    def __init__(self, service, period: float = 0.25, stale_after: float = 2.0):
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.service = service
        self.period = float(period)
        self.stale_after = float(stale_after)
        #: sweep pass counter (visibility that the loop is running)
        self.sweeps = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="recon-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            try:
                self.sweep()
            except Exception:  # pragma: no cover - supervision never dies
                pass

    # ------------------------------------------------------------------
    # sweeps (public so tests can drive them deterministically)
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """One supervision pass: deadlines first, then worker health."""
        if self.service.closed:
            return
        self.sweeps += 1
        self._sweep_deadlines()
        self._sweep_workers()

    def _sweep_deadlines(self) -> None:
        for job in self.service.jobs_snapshot():
            if (
                job.state == JobState.QUEUED
                and job.deadline is not None
                and job.deadline.expired
            ):
                budget = job.spec.deadline_seconds
                job.mark_deadline_exceeded(
                    f"DeadlineExceeded: deadline exceeded "
                    f"({budget:g}s budget) while queued"
                )

    def _sweep_workers(self) -> None:
        now = time.monotonic()
        for index, worker in enumerate(list(self.service.workers)):
            if worker._thread is None:
                continue  # never started (autostart=False test setups)
            if not worker.alive:
                self.service._replace_worker(
                    index, worker, "worker thread died"
                )
            elif (
                worker.current_job_id is not None
                and now - worker.heartbeat > self.stale_after
            ):
                self.service._replace_worker(
                    index,
                    worker,
                    f"heartbeat stale for more than {self.stale_after:g}s",
                )
