"""Warm-cache reconstruction workers.

Each :class:`ReconWorker` is one long-lived thread owning:

- an unbounded inbox (admission control is *global*, at the router —
  once a job is accepted it must never be droppable at a worker);
- a true-LRU cache of warm :class:`~repro.nufft.NufftPlan` objects
  keyed by :meth:`~repro.service.jobs.JobSpec.plan_key` — holding a
  plan warm transitively holds its gridder's bound select tables or
  compiled scatter plan, and the Toeplitz operator the plan binds to
  its weights (:meth:`~repro.nufft.NufftPlan.toeplitz`), warm.  That
  is where repeat-trajectory throughput comes from (PyNUFFT and
  cuFINUFFT both win by amortizing exactly this setup): the one-shot
  PSF build of the Toeplitz CG fast path (``2^d`` adjoints on the
  plan) is paid once per trajectory while its jobs keep one weights
  vector, and again on each switch between weights vectors;
- one shared :class:`~repro.gridding.GridBufferPool` threaded through
  every cached plan, so the worker's grid buffers are reused across
  plans and its ``/stats`` pool numbers are one coherent snapshot.

Workers are **threads, not processes**: the hot kernels (SciPy's
sparse mat-vecs, FFT) release the GIL, and in-process workers let
``/stats`` read every pool/cache counter without cross-process merge
plumbing.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict

import numpy as np

from ..errors import DeadlineExceeded, JobCancelled
from ..gridding.buffers import GridBufferPool
from ..nufft import NufftPlan
from ..recon import cg_reconstruction
from ..robustness.checkpoint import CheckpointConfig
from ..robustness.faults import InjectedWorkerCrash, heartbeat_fault_point
from .jobs import Job, JobResult, JobSpec

__all__ = ["ReconWorker"]

#: inbox sentinel that tells the worker loop to exit after the queue
#: ahead of it has drained
_SHUTDOWN = object()


class ReconWorker:
    """One worker thread with a warm plan cache.

    Parameters
    ----------
    name:
        Stable worker id (``"w0"``, ``"w1"``, ...) used in job records
        and ``/stats``.
    plan_cache_size:
        Warm plans retained (true LRU).  Eviction only drops the
        *cache reference*; a plan still executing the current job owns
        a live Python reference and completes safely — the
        concurrent-cache regression tests hammer exactly this.
    checkpoint_store:
        Optional :class:`~repro.robustness.CheckpointStore` the
        service shares across workers.  When set, streamed adjoint
        jobs snapshot their dice accumulator every
        ``checkpoint_every`` chunks under the job id, so a watchdog
        requeue resumes mid-stream instead of restarting.  Only
        ``method="adjoint"`` jobs checkpoint: a CG solve issues many
        streamed transforms with *different* input values under the
        same job id, so a leftover mid-solve snapshot could be
        silently resumed into the wrong transform.
    """

    def __init__(
        self,
        name: str,
        plan_cache_size: int = 8,
        checkpoint_store=None,
        checkpoint_every: int = 4,
    ):
        if plan_cache_size < 1:
            raise ValueError(f"plan_cache_size must be >= 1, got {plan_cache_size}")
        self.name = name
        self.plan_cache_size = int(plan_cache_size)
        self.checkpoint_store = checkpoint_store
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.inbox: queue.Queue = queue.Queue()
        #: one pool for every plan this worker ever builds
        self.buffer_pool = GridBufferPool()
        self._plans: OrderedDict[tuple, NufftPlan] = OrderedDict()
        # counters (read by /stats from other threads; int updates are
        # atomic enough under the GIL for monitoring purposes)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_deadline_exceeded = 0
        self.jobs_resumed = 0
        self.jobs_chunked = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.toeplitz_hits = 0
        self.toeplitz_misses = 0
        self.busy_seconds = 0.0
        #: monotonic timestamp of the last liveness proof: touched at
        #: job pickup and on every cooperative cancel check (between
        #: chunks / CG iterations).  The watchdog reads it together
        #: with :attr:`current_job_id` — staleness only means "wedged"
        #: while a job is actually in flight.
        self.heartbeat = time.monotonic()
        #: id of the job this worker is executing right now (None when
        #: idle, i.e. blocked on the inbox)
        self.current_job_id: str | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"recon-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = None) -> None:
        """Enqueue the shutdown sentinel and join (drains the inbox first)."""
        if self._thread is None:
            return
        self.inbox.put(_SHUTDOWN)
        self._thread.join(timeout)
        self._thread = None

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def depth(self) -> int:
        """Jobs currently waiting in this worker's inbox."""
        return self.inbox.qsize()

    def _run(self) -> None:
        while True:
            item = self.inbox.get()
            try:
                if item is _SHUTDOWN:
                    return
                self._execute(item)
            except InjectedWorkerCrash:
                # die like a crashed thread would, but without spamming
                # the default threading excepthook — the chaos tests
                # assert on watchdog behaviour, not on stderr
                return
            finally:
                self.inbox.task_done()

    # ------------------------------------------------------------------
    # heartbeat
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        """Cooperative-check hook installed on the running job's token.

        The fault-injection site runs *before* the timestamp update so
        an injected hang leaves the heartbeat exactly as stale as a
        real wedge would (and an injected crash never touches it).
        Even a job that is about to observe its own cancellation
        proves its worker thread alive by reaching this hook.
        """
        heartbeat_fault_point(self.name)
        self.heartbeat = time.monotonic()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _warm_plan(self, spec: JobSpec) -> tuple[NufftPlan, str]:
        """Fetch or build the plan for ``spec`` (true-LRU semantics)."""
        key = spec.plan_key()
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.plan_hits += 1
            return plan, "hit"
        self.plan_misses += 1
        plan = NufftPlan(
            spec.image_shape,
            spec.coords,
            gridder=spec.gridder,
            gridder_options=spec.plan_gridder_options(),
            precision=spec.precision,
            fft_backend=spec.fft_backend,
            quality_policy=spec.quality_policy,
            buffer_pool=self.buffer_pool,
        )
        self._plans[key] = plan
        while len(self._plans) > self.plan_cache_size:
            self._plans.popitem(last=False)
        return plan, "miss"

    def _execute(self, job: Job) -> None:
        attempt = job.mark_running(self.name)
        if attempt is None:
            return  # cancelled or deadline-swept while still queued
        token = job.cancel_token
        token.on_check = self._touch
        self.heartbeat = time.monotonic()
        self.current_job_id = job.id
        t0 = time.perf_counter()
        try:
            result = self._reconstruct(job)
        except DeadlineExceeded as exc:
            self.jobs_deadline_exceeded += 1
            self.busy_seconds += time.perf_counter() - t0
            job.mark_deadline_exceeded(exc, attempt=attempt)
            return
        except JobCancelled as exc:
            self.jobs_cancelled += 1
            self.busy_seconds += time.perf_counter() - t0
            job.mark_cancelled(exc, attempt=attempt)
            return
        except InjectedWorkerCrash:
            # simulated thread death: leave the job running and
            # unmarked — exactly the wreckage a real crash leaves.
            # The watchdog detects the dead thread, records the
            # wedge, and requeues the job on a replacement worker.
            raise
        except BaseException as exc:  # noqa: BLE001 - job isolation boundary
            self.jobs_failed += 1
            self.busy_seconds += time.perf_counter() - t0
            job.mark_failed(exc, attempt=attempt)
            return
        finally:
            self.current_job_id = None
        result.seconds = time.perf_counter() - t0
        self.busy_seconds += result.seconds
        self.jobs_done += 1
        if result.chunks:
            self.jobs_chunked += 1
        if result.resumed_from is not None:
            self.jobs_resumed += 1
        job.mark_done(result, attempt=attempt)

    def _reconstruct(self, job: Job) -> JobResult:
        spec = job.spec
        plan, plan_cache = self._warm_plan(spec)
        token = job.cancel_token
        plan.cancel_token = token
        gridder = plan.gridder
        checkpointing = (
            self.checkpoint_store is not None
            and spec.method == "adjoint"
            and getattr(gridder, "chunk_samples", None) is not None
        )
        if checkpointing:
            gridder.checkpoint = CheckpointConfig(
                store=self.checkpoint_store,
                key=job.id,
                fingerprint=repr(spec.plan_key()),
                every=self.checkpoint_every,
            )
        # the engine's and the FFT chain's records are sticky across
        # jobs: report the events since this job began
        seen = len(getattr(gridder, "degradations", ()))
        fft_seen = len(plan._fft.events)
        try:
            result = self._run_spec(job, spec, plan, plan_cache, checkpointing)
        finally:
            # cached plans outlive the job: never let a stale token or
            # checkpoint config leak into the next job's transforms
            plan.cancel_token = None
            gridder.cancel_token = None
            if checkpointing:
                gridder.checkpoint = None
        result.degradations = (
            tuple(result.degradations)
            + tuple(getattr(gridder, "degradations", ())[seen:])
            + tuple(plan._fft.events[fft_seen:])
        )
        return result

    def _run_spec(
        self,
        job: Job,
        spec: JobSpec,
        plan: NufftPlan,
        plan_cache: str,
        checkpointing: bool,
    ) -> JobResult:
        samples = np.asarray(spec.samples, dtype=plan.cdtype)
        weights = spec.weights
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).ravel()

        if spec.method == "adjoint":
            if weights is None:
                values = samples
            else:
                values = samples * weights.astype(samples.real.dtype)
            image = plan.adjoint(values)
            quality = plan.timings.quality
            resumed = plan.gridder.last_resume if checkpointing else None
            return JobResult(
                image=image,
                plan_cache=plan_cache,
                quality=None if quality is None else _quality_dict(quality),
                kernel=plan.timings.kernel,
                exec_lane=plan.timings.exec_lane,
                chunks=plan.timings.chunks,
                peak_bytes=int(plan.gridder.stats.peak_bytes),
                resumed_from=resumed,
            )

        toeplitz_cache = None
        bound = plan.toeplitz_binding.product
        try:
            cg = cg_reconstruction(
                plan,
                samples,
                weights=weights,
                n_iterations=spec.n_iterations,
                tolerance=spec.tolerance,
                regularization=spec.regularization,
                normal=spec.normal,
                cancel=job.cancel_token,
            )
        finally:
            if spec.normal == "toeplitz":
                # CG fetched the plan's Toeplitz operator: a hit found
                # the one bound before the job; a rebuild, a failed
                # build or a job that ended before the fetch is a miss
                hit = bound is not None and plan.toeplitz_binding.product is bound
                toeplitz_cache = "hit" if hit else "miss"
                if hit:
                    self.toeplitz_hits += 1
                else:
                    self.toeplitz_misses += 1
        quality = plan.timings.quality
        return JobResult(
            image=cg.image,
            n_iterations=cg.n_iterations,
            converged=cg.converged,
            residual=float(cg.residual_norms[-1]) if cg.residual_norms else None,
            restarts=cg.restarts,
            breakdown=cg.breakdown,
            degradations=cg.degradations,
            quality=None if quality is None else _quality_dict(quality),
            plan_cache=plan_cache,
            toeplitz_cache=toeplitz_cache,
            kernel=plan.timings.kernel,
            exec_lane=plan.timings.exec_lane,
            chunks=plan.timings.chunks,
            peak_bytes=int(plan.gridder.stats.peak_bytes),
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready per-worker counters + this worker's pool snapshot."""
        plan_total = self.plan_hits + self.plan_misses
        return {
            "worker": self.name,
            "alive": self.alive,
            "depth": self.depth,
            "current_job": self.current_job_id,
            "heartbeat_age": round(time.monotonic() - self.heartbeat, 6),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_deadline_exceeded": self.jobs_deadline_exceeded,
            "jobs_resumed": self.jobs_resumed,
            "jobs_chunked": self.jobs_chunked,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": round(self.plan_hits / plan_total, 4)
            if plan_total
            else 0.0,
            "toeplitz_hits": self.toeplitz_hits,
            "toeplitz_misses": self.toeplitz_misses,
            "warm_plans": len(self._plans),
            "busy_seconds": round(self.busy_seconds, 6),
            "pool": self.buffer_pool.snapshot().as_dict(),
        }


def _quality_dict(report) -> dict:
    """JSON-ready view of a DataQualityReport."""
    return report.as_dict()
