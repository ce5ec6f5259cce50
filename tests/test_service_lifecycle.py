"""Job lifecycle robustness: deadlines, cancellation, checkpoint/resume,
and the supervised worker pool.

The contracts under test:

1. deadlines and cancellation are *cooperative*: a chunked engine
   checks between chunks and CG between iterations, raising the typed
   :class:`~repro.errors.DeadlineExceeded` /
   :class:`~repro.errors.JobCancelled` — never a silently truncated
   result;
2. checkpoint/resume is *exact*: a streamed adjoint interrupted after
   >= 3 checkpoint intervals and resumed from its snapshot produces
   ``np.array_equal`` output vs an uninterrupted run, on the compiled
   engine's chunk mode;
3. supervision frees wedged workers: an injected hang or crash is
   detected within one watchdog period, the worker is replaced, and
   the wedged job is requeued (resuming mid-stream from its
   checkpoint) or terminated — without wedging any other accepted job;
4. the service-boundary conveniences hold: idempotency keys dedup
   resubmissions, ``POST /jobs/<id>/cancel`` works over HTTP, the
   client polls with capped exponential backoff, and the lifecycle
   counters surface in ``/stats``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import NufftPlan
from repro.errors import DeadlineExceeded, JobCancelled
from repro.robustness import (
    CancelToken,
    CheckpointConfig,
    CheckpointStore,
    Deadline,
    FileCheckpointStore,
    StreamCheckpoint,
    inject_faults,
)
from repro.recon import cg_reconstruction
from repro.service import Job, JobSpec, JobState, ReconService
from repro.trajectories import radial_trajectory


def _problem(spokes=16, readout=24, seed=7):
    coords = radial_trajectory(spokes, readout)
    rng = np.random.default_rng(seed)
    m = coords.shape[0]
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return coords, samples


#: execution lanes the compiled engine's chunk mode reports
#: (``stats.exec_lane``): its one lane
LANES = ["numpy"]


def _stream_plan(coords, n=24, chunk=48):
    return NufftPlan(
        (n, n),
        coords,
        gridder="slice_and_dice_compiled",
        gridder_options={"chunk_samples": chunk},
    )


# ----------------------------------------------------------------------
# deadline / cancel primitives
# ----------------------------------------------------------------------
class TestDeadlineAndCancel:
    def test_deadline_expiry_and_remaining(self):
        d = Deadline.after(60.0)
        assert not d.expired
        assert 0 < d.remaining() <= 60.0
        expired = Deadline.after(-0.001)
        assert expired.expired
        assert expired.remaining() == 0.0

    def test_cancel_token_raises_typed_error(self):
        token = CancelToken()
        token.check()  # clean token is a no-op
        token.cancel("operator said stop")
        token.cancel("second reason is ignored")
        with pytest.raises(JobCancelled, match="operator said stop"):
            token.check()

    def test_deadline_wins_over_explicit_cancel(self):
        token = CancelToken(deadline=Deadline.after(-1.0))
        token.cancel("also cancelled")
        with pytest.raises(DeadlineExceeded):
            token.check()
        # DeadlineExceeded IS a JobCancelled: one except clause catches both
        assert issubclass(DeadlineExceeded, JobCancelled)

    def test_cg_checks_between_iterations(self):
        coords, samples = _problem()
        plan = NufftPlan((24, 24), coords, gridder="slice_and_dice_compiled")
        with pytest.raises(DeadlineExceeded):
            cg_reconstruction(
                plan,
                samples,
                n_iterations=5,
                cancel=CancelToken(deadline=Deadline.after(-1.0)),
            )

    def test_streaming_adjoint_checks_between_chunks(self):
        coords, samples = _problem()
        plan = _stream_plan(coords)
        token = CancelToken()
        seen = {"n": 0}

        def hook():
            seen["n"] += 1
            if seen["n"] >= 3:
                token.cancel("mid-stream interrupt")

        token.on_check = hook
        plan.cancel_token = token
        with pytest.raises(JobCancelled, match="mid-stream"):
            plan.adjoint(samples)
        assert seen["n"] >= 3  # entry check + per-chunk checks
        # the aborted pass strands no pooled storage and leaves no
        # partial accumulation: the next pass is a fresh plan's
        assert plan.buffer_pool.outstanding == 0
        plan.cancel_token = None
        assert np.array_equal(
            plan.adjoint(samples), _stream_plan(coords).adjoint(samples)
        )


# ----------------------------------------------------------------------
# checkpoint stores
# ----------------------------------------------------------------------
class TestCheckpointStores:
    def _snap(self, cursor=2, fingerprint="fp"):
        return StreamCheckpoint(
            fingerprint=fingerprint,
            chunk_cursor=cursor,
            sample_cursor=cursor * 8,
            dice=np.arange(6, dtype=np.complex128).reshape(1, 6),
        )

    def test_memory_store_lru(self):
        store = CheckpointStore(max_entries=2)
        for key in ("a", "b", "c"):
            store.save(key, self._snap())
        assert store.load("a") is None  # evicted
        assert store.load("c") is not None
        assert len(store) == 2
        store.delete("c")
        store.delete("c")  # idempotent
        assert len(store) == 1

    def test_file_store_round_trip(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        snap = self._snap(cursor=5)
        store.save("job-1", snap)
        assert len(store) == 1
        back = store.load("job-1")
        assert back.fingerprint == snap.fingerprint
        assert back.chunk_cursor == 5
        np.testing.assert_array_equal(back.dice, snap.dice)
        assert store.load("missing") is None
        store.delete("job-1")
        assert len(store) == 0

    def test_matches_rejects_stale_snapshots(self):
        snap = self._snap()
        assert snap.matches("fp", (1, 6))
        assert not snap.matches("other-plan", (1, 6))
        assert not snap.matches("fp", (2, 6))
        assert not StreamCheckpoint(
            fingerprint="fp", chunk_cursor=0, sample_cursor=0, dice=snap.dice
        ).matches("fp", (1, 6))  # cursor 0 carries nothing worth resuming


# ----------------------------------------------------------------------
# exact resume (the tentpole numerics contract)
# ----------------------------------------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("lane", LANES)
    def test_interrupt_then_resume_is_bit_identical(self, lane):
        """Kill mid-stream after >= 3 checkpoint intervals, resume from
        the snapshot: output must be ``np.array_equal`` to an
        uninterrupted run on the same lane."""
        coords, samples = _problem()
        ref = _stream_plan(coords).adjoint(samples)

        store = CheckpointStore()
        plan = _stream_plan(coords)
        gridder = plan.gridder
        gridder.checkpoint = CheckpointConfig(
            store=store, key="t", fingerprint="fp", every=1
        )
        token = CancelToken()
        seen = {"n": 0}

        def hook():
            seen["n"] += 1
            if seen["n"] >= 5:  # entry + 3 accumulated chunks, die on 4th
                token.cancel("injected interrupt")

        token.on_check = hook
        plan.cancel_token = token
        with pytest.raises(JobCancelled):
            plan.adjoint(samples)
        snap = store.load("t")
        assert snap is not None and snap.chunk_cursor >= 3

        plan.cancel_token = None
        out = plan.adjoint(samples)  # same config -> resumes from snapshot
        assert gridder.last_resume == {
            "chunk_cursor": snap.chunk_cursor,
            "sample_cursor": snap.sample_cursor,
        }
        assert np.array_equal(out, ref)
        assert gridder.stats.exec_lane == lane
        assert store.load("t") is None  # delete_on_success cleaned up

    def test_stale_snapshot_is_ignored_not_blended(self):
        coords, samples = _problem()
        ref = _stream_plan(coords).adjoint(samples)
        store = CheckpointStore()
        store.save(
            "t",
            StreamCheckpoint(
                fingerprint="some-other-plan",
                chunk_cursor=3,
                sample_cursor=99,
                dice=np.ones((1, 4), dtype=np.complex128),
            ),
        )
        plan = _stream_plan(coords)
        plan.gridder.checkpoint = CheckpointConfig(
            store=store, key="t", fingerprint="fp", every=1
        )
        out = plan.adjoint(samples)
        assert np.array_equal(out, ref)
        assert plan.gridder.last_resume is None
        assert any(
            e.component == "checkpoint" and e.to_stage == "fresh"
            for e in plan.gridder.degradations
        )


# ----------------------------------------------------------------------
# job model: attempt fencing + requeue
# ----------------------------------------------------------------------
class TestJobFencing:
    def test_terminal_marks_are_idempotent(self):
        coords, samples = _problem()
        job = Job(JobSpec((24, 24), coords, samples, method="adjoint"))
        assert job.mark_cancelled("first")
        assert not job.mark_failed(ValueError("late"))
        assert not job.mark_cancelled("again")
        assert job.state == JobState.CANCELLED
        assert job.error == "first"

    def test_requeue_fences_zombie_marks(self):
        coords, samples = _problem()
        job = Job(JobSpec((24, 24), coords, samples, method="adjoint"))
        attempt = job.mark_running("w0")
        old_token = job.cancel_token
        assert job.requeue()
        assert job.state == JobState.QUEUED
        assert job.requeues == 1
        assert job.cancel_token is not old_token
        # the abandoned thread's marks carry the stale attempt: ignored
        assert not job.mark_failed(RuntimeError("zombie"), attempt=attempt)
        assert not job.mark_done(None, attempt=attempt)
        assert job.state == JobState.QUEUED
        # the replacement attempt's marks work
        attempt2 = job.mark_running("w0")
        assert attempt2 == attempt + 2
        assert job.mark_cancelled("real", attempt=attempt2)

    def test_requeue_preserves_the_absolute_deadline(self):
        coords, samples = _problem()
        job = Job(JobSpec((24, 24), coords, samples, method="adjoint",
                          deadline_seconds=60.0))
        before = job.deadline
        job.mark_running("w0")
        job.requeue()
        assert job.deadline is before  # retry never extends the SLA
        assert job.cancel_token.deadline is before

    def test_mark_running_skips_terminal_jobs(self):
        coords, samples = _problem()
        job = Job(JobSpec((24, 24), coords, samples, method="adjoint"))
        job.mark_cancelled("cancelled while queued")
        assert job.mark_running("w0") is None

    def test_spec_validation(self):
        coords, samples = _problem()
        with pytest.raises(ValueError, match="deadline_seconds"):
            JobSpec((24, 24), coords, samples, deadline_seconds=0)
        with pytest.raises(ValueError, match="idempotency_key"):
            JobSpec((24, 24), coords, samples, idempotency_key="")
        spec = JobSpec((24, 24), coords, samples, deadline_seconds=5,
                       idempotency_key="k")
        # per-call options must not fragment the warm-plan cache
        bare = JobSpec((24, 24), coords, samples)
        assert spec.plan_key() == bare.plan_key()

    def test_from_payload_accepts_lifecycle_options(self):
        from repro.service import encode_array

        coords, samples = _problem()
        spec = JobSpec.from_payload({
            "image_shape": [24, 24],
            "coords": encode_array(coords),
            "samples": encode_array(samples),
            "method": "adjoint",
            "options": {"deadline_seconds": "2.5", "idempotency_key": "abc"},
        })
        assert spec.deadline_seconds == 2.5
        assert spec.idempotency_key == "abc"


# ----------------------------------------------------------------------
# service-level lifecycle
# ----------------------------------------------------------------------
class TestServiceLifecycle:
    def test_cancel_queued_job(self):
        coords, samples = _problem()
        with ReconService(workers=1, autostart=False,
                          watchdog_period=None) as svc:
            job = svc.submit(JobSpec((24, 24), coords, samples,
                                     method="adjoint"))
            svc.cancel(job.id, "changed my mind")
            assert job.state == JobState.CANCELLED
            assert job.error == "changed my mind"
            svc.start()  # draining executes nothing for the cancelled job
        assert svc.jobs_cancelled == 1

    def test_cancel_running_job_stops_between_iterations(self):
        coords, samples = _problem()
        with ReconService(workers=1, watchdog_period=None) as svc:
            job = svc.submit(
                JobSpec((32, 32), coords, samples, n_iterations=100000,
                        tolerance=1e-30, normal="gridding")
            )
            deadline = time.monotonic() + 10
            while job.state != JobState.RUNNING:
                assert time.monotonic() < deadline, job.state
                time.sleep(0.005)
            svc.cancel(job.id, "cancelled by client")
            assert job.wait(timeout=30)
        assert job.state == JobState.CANCELLED
        assert "cancelled by client" in job.error
        assert svc.stats()["jobs_cancelled"] == 1

    def test_cancel_during_psf_build_ends_cancelled(self, monkeypatch):
        # cancel between the PSF's lag blocks (2^d plan adjoints): the
        # job ends cancelled, no operator is bound to the plan, and the
        # build is not retried by CG's toeplitz -> gridding fallback
        coords, samples = _problem()
        calls = []
        adjoint = NufftPlan.adjoint

        def cancelling_adjoint(plan, values):
            calls.append(1)
            if len(calls) == 2:
                svc.cancel(job.id, "cancelled during the PSF build")
            return adjoint(plan, values)

        monkeypatch.setattr(NufftPlan, "adjoint", cancelling_adjoint)
        with ReconService(workers=1, autostart=False,
                          watchdog_period=None) as svc:
            job = svc.submit(JobSpec((24, 24), coords, samples,
                                     normal="toeplitz"))
            svc.start()
            assert job.wait(timeout=30)
        assert job.state == JobState.CANCELLED
        assert "cancelled during the PSF build" in job.error
        assert len(calls) == 2  # block 1 ran, block 2 observed the token
        assert job.result is None
        assert "degradations" not in job.as_dict()
        (worker,) = svc.workers
        assert [p.toeplitz_binding.product for p in worker._plans.values()] == [None]
        assert worker.toeplitz_misses == 1
        assert worker.buffer_pool.outstanding == 0
        assert svc.stats()["jobs_cancelled"] == 1

    def test_nan_weight_fails_at_the_psf_build(self):
        # bad weights poison the gridding operator too: the job fails
        # with a typed error before any PSF is built, instead of
        # degrading to the gridding normal operator
        coords, samples = _problem()
        weights = np.ones(coords.shape[0])
        weights[3] = np.nan
        with ReconService(workers=1, watchdog_period=None) as svc:
            job = svc.submit(JobSpec((24, 24), coords, samples,
                                     weights=weights, normal="toeplitz"))
            assert job.wait(timeout=30)
        assert job.state == JobState.FAILED
        assert "DataQualityError" in job.error and "non-finite" in job.error
        (worker,) = svc.workers
        assert [p.toeplitz_binding.product for p in worker._plans.values()] == [None]
        assert worker.toeplitz_misses == 1
        assert worker.buffer_pool.outstanding == 0

    def test_cancel_unknown_id_raises(self):
        with ReconService(workers=1, watchdog_period=None) as svc:
            with pytest.raises(KeyError):
                svc.cancel("nope")

    def test_deadline_exceeded_surfaces_in_status(self):
        coords, samples = _problem()
        with ReconService(workers=1, watchdog_period=None) as svc:
            job = svc.submit(
                JobSpec((24, 24), coords, samples, method="adjoint",
                        deadline_seconds=1e-4)
            )
            assert job.wait(timeout=30)
        assert job.state == JobState.DEADLINE_EXCEEDED
        assert "deadline exceeded" in job.error
        record = job.as_dict()
        assert record["state"] == "deadline_exceeded"
        assert record["deadline_seconds"] == 1e-4
        assert svc.jobs_deadline_exceeded == 1

    def test_watchdog_sweeps_expired_queued_jobs(self):
        coords, samples = _problem()
        svc = ReconService(workers=1, autostart=False, watchdog_period=None)
        job = svc.submit(JobSpec((24, 24), coords, samples, method="adjoint",
                                 deadline_seconds=1e-4))
        from repro.service import Watchdog

        time.sleep(0.002)
        Watchdog(svc, period=0.05).sweep()
        assert job.state == JobState.DEADLINE_EXCEEDED
        assert "while queued" in job.error
        svc.close(drain=False)

    def test_idempotency_key_dedups_resubmission(self):
        coords, samples = _problem()
        with ReconService(workers=1, watchdog_period=None) as svc:
            make = lambda: JobSpec(  # noqa: E731
                (24, 24), coords, samples, method="adjoint",
                idempotency_key="retry-42",
            )
            first = svc.submit(make())
            svc.wait(first.id, timeout=60)
            again = svc.submit(make())        # after terminal: still dedups
            assert again is first
            other = svc.submit(JobSpec((24, 24), coords, samples,
                                       method="adjoint",
                                       idempotency_key="retry-43"))
            assert other is not first
            svc.wait(other.id, timeout=60)
        assert svc.deduplicated == 1
        assert svc.accepted == 2

    def test_stats_surface_lifecycle_counters(self):
        coords, samples = _problem()
        with ReconService(workers=1) as svc:
            job = svc.submit(JobSpec((24, 24), coords, samples,
                                     method="adjoint"))
            svc.wait(job.id, timeout=60)
            stats = svc.stats()
        for key in (
            "jobs_cancelled", "jobs_deadline_exceeded", "jobs_resumed",
            "watchdog_restarts", "checkpoints_held", "deduplicated",
            "events",
        ):
            assert key in stats, key
        assert stats["watchdog_restarts"] == 0


# ----------------------------------------------------------------------
# chaos: hang / crash supervision (the tentpole acceptance tests)
# ----------------------------------------------------------------------
class TestSupervisionChaos:
    def _spec(self, coords, samples, **kw):
        return JobSpec(
            (24, 24), coords, samples, method="adjoint",
            gridder="slice_and_dice_compiled",
            gridder_options={"chunk_samples": 32},
            **kw,
        )

    def test_hung_worker_is_freed_within_one_watchdog_period(self):
        """An injected hang under a deadline: the watchdog replaces the
        worker, the job goes terminal promptly, and the replacement
        serves the next job — nothing waits out the 30s hang."""
        coords, samples = _problem()
        svc = ReconService(workers=1, watchdog_period=0.05,
                           watchdog_stale_after=0.2)
        try:
            with inject_faults(seed=5, worker_hang=1,
                               hang_seconds=30.0) as inj:
                t0 = time.monotonic()
                job = svc.submit(self._spec(coords, samples,
                                            deadline_seconds=0.15))
                assert job.wait(timeout=10)
                elapsed = time.monotonic() - t0
                assert elapsed < 5.0, f"took {elapsed:.2f}s against a 30s hang"
                assert job.state == JobState.DEADLINE_EXCEEDED, job.state
                assert svc.watchdog_restarts == 1
                assert any("hang" in d for _, d in inj.log)
                # the replacement worker is live and serves new jobs
                follow_up = svc.submit(self._spec(coords, samples))
                assert follow_up.wait(timeout=30)
                assert follow_up.state == JobState.DONE, follow_up.error
        finally:
            svc.close()

    @pytest.mark.parametrize("lane", LANES)
    def test_crashed_worker_resumes_from_checkpoint_bit_identical(self, lane):
        """Kill the worker thread mid-stream (after >= 3 checkpointed
        chunks): the watchdog restarts it, the requeued job resumes
        from its snapshot, and the image is ``np.array_equal`` to an
        uninterrupted run."""
        coords, samples = _problem()
        opts = {"chunk_samples": 32}
        svc = ReconService(workers=1, watchdog_period=0.05,
                           watchdog_stale_after=0.3, checkpoint_every=1)
        try:
            ref_job = svc.submit(
                JobSpec((24, 24), coords, samples, method="adjoint",
                        gridder="slice_and_dice_compiled",
                        gridder_options=dict(opts))
            )
            assert ref_job.wait(timeout=30)
            assert ref_job.state == JobState.DONE, ref_job.error
            ref = ref_job.result.image

            with inject_faults(seed=3, worker_crash=1,
                               worker_fault_delay=4) as inj:
                job = svc.submit(
                    JobSpec((24, 24), coords, samples, method="adjoint",
                            gridder="slice_and_dice_compiled",
                            gridder_options=dict(opts))
                )
                assert job.wait(timeout=30)
                assert job.state == JobState.DONE, job.error
                assert job.requeues == 1
                assert job.result.resumed_from is not None
                assert job.result.resumed_from["chunk_cursor"] >= 3
                assert np.array_equal(job.result.image, ref)
                assert job.result.exec_lane == lane
                assert svc.watchdog_restarts == 1
                assert svc.jobs_resumed == 1
                assert any("crash" in d for _, d in inj.log)
        finally:
            svc.close()

    def test_wedge_never_stalls_other_accepted_jobs(self):
        """Jobs queued behind the wedged one ride over to the
        replacement worker and finish."""
        coords, samples = _problem()
        svc = ReconService(workers=1, watchdog_period=0.05,
                           watchdog_stale_after=0.2)
        try:
            with inject_faults(seed=9, worker_crash=1,
                               worker_fault_delay=2):
                jobs = [svc.submit(self._spec(coords, samples,
                                              fft_backend="numpy"))
                        for _ in range(3)]
                for job in jobs:
                    assert job.wait(timeout=30)
                    assert job.state == JobState.DONE, job.error
            assert svc.watchdog_restarts == 1
        finally:
            svc.close()

    def test_requeue_budget_exhaustion_force_fails(self):
        coords, samples = _problem()
        svc = ReconService(workers=1, watchdog_period=0.05,
                           watchdog_stale_after=0.2, max_requeues=0)
        try:
            with inject_faults(seed=11, worker_crash=1,
                               worker_fault_delay=2):
                job = svc.submit(self._spec(coords, samples))
                assert job.wait(timeout=10)
            assert job.state == JobState.FAILED
            assert "requeue budget" in job.error
            assert any(e.to_stage == "restart" for e in svc.events)
        finally:
            svc.close()


# ----------------------------------------------------------------------
# client backoff (no socket needed: status + sleep are stubbed)
# ----------------------------------------------------------------------
class TestClientBackoff:
    def test_wait_backs_off_exponentially_with_cap(self, monkeypatch):
        from repro.service import client as client_mod

        client = client_mod.ReconClient("http://stub.invalid")
        states = iter(["queued", "queued", "running", "running", "running",
                       "done"])
        monkeypatch.setattr(
            client, "status",
            lambda job_id: {"state": next(states), "job": job_id},
        )
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        monkeypatch.setattr(client_mod.random, "random", lambda: 0.5)
        record = client.wait("j", timeout=60.0, poll=0.02, max_poll=0.1)
        assert record["state"] == "done"
        # 0.02 doubling to the 0.1 cap (jitter pinned to 1.0x)
        assert sleeps == pytest.approx([0.02, 0.04, 0.08, 0.1, 0.1])

    def test_wait_treats_all_terminal_states_as_final(self, monkeypatch):
        from repro.service import client as client_mod

        client = client_mod.ReconClient("http://stub.invalid")
        for terminal in ("done", "failed", "cancelled", "deadline_exceeded"):
            states = iter(["queued", terminal])
            monkeypatch.setattr(
                client, "status",
                lambda job_id, _s=states: {"state": next(_s), "job": job_id},
            )
            monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
            record = client.wait("j", timeout=5.0, poll=0.001)
            assert record["state"] == terminal
            assert client.last_status is record


# ----------------------------------------------------------------------
# HTTP cancel endpoint (end to end)
# ----------------------------------------------------------------------
class TestHttpCancel:
    def test_cancel_endpoint_round_trip(self):
        from repro.service import ReconClient, ReconServer

        coords, samples = _problem()
        with ReconServer(port=0, workers=1) as server:
            client = ReconClient(server.url)
            job_id = client.submit(
                (32, 32), coords, samples, n_iterations=100000,
                tolerance=1e-30, normal="gridding",
            )
            deadline = time.monotonic() + 10
            while client.status(job_id)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            ack = client.cancel(job_id)
            assert ack["job"] == job_id
            record = client.wait(job_id, timeout=30)
            assert record["state"] == "cancelled"
            # idempotent: cancelling a terminal job changes nothing
            again = client.cancel(job_id)
            assert again["state"] == "cancelled"
            with pytest.raises(KeyError):
                client.cancel("unknown-id")
            stats = client.stats()
            assert stats["jobs_cancelled"] == 1

    def test_deadline_over_http(self):
        from repro.service import ReconClient, ReconServer

        coords, samples = _problem()
        with ReconServer(port=0, workers=1) as server:
            client = ReconClient(server.url)
            job_id = client.submit((24, 24), coords, samples,
                                   method="adjoint", deadline_seconds=1e-4)
            record = client.wait(job_id, timeout=30)
            assert record["state"] == "deadline_exceeded"
            assert "deadline exceeded" in record["error"]
