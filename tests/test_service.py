"""In-process service tests: jobs, workers, routing, backpressure.

Everything here drives :class:`repro.service.ReconService` (and below)
without a socket — the HTTP layer has its own suite in
``test_service_http.py``.  The contracts under test:

1. a job's result is bit-identical to calling the library directly
   with the same options (the service adds *no* numerics);
2. repeat traffic on one trajectory hits the warm plan (and the
   Toeplitz operator it binds to the job's weights) and sticks to one
   worker (affinity);
3. admission is bounded: the ``max_pending+1``-th submission raises
   :class:`~repro.errors.ServiceOverloaded` *before* an id is issued,
   and every accepted job still reaches a terminal state — including
   through a graceful drain;
4. LRU eviction under interleaved distinct-trajectory load never
   corrupts an in-flight plan (results stay equal to references).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import NufftPlan, cg_reconstruction, shepp_logan_2d
from repro.errors import ServiceOverloaded
from repro.gridding.buffers import GridBufferPool, PoolSnapshot
from repro.robustness import inject_faults
from repro.service import (
    Job,
    JobSpec,
    JobState,
    ReconService,
    ReconWorker,
    decode_array,
    encode_array,
    trajectory_fingerprint,
)
from repro.trajectories import radial_trajectory


def _problem(n=32, spokes=16, readout=32, seed=7):
    coords = radial_trajectory(spokes, readout)
    rng = np.random.default_rng(seed)
    m = coords.shape[0]
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return coords, samples, np.ones(m)


# ----------------------------------------------------------------------
# job model
# ----------------------------------------------------------------------
class TestJobModel:
    def test_fingerprint_stable_and_discriminating(self):
        coords, _, _ = _problem()
        assert trajectory_fingerprint(coords) == trajectory_fingerprint(
            coords.copy()
        )
        other = radial_trajectory(17, 32)
        assert trajectory_fingerprint(coords) != trajectory_fingerprint(other)
        # one interior row, off every row a sampled key would read
        moved = coords.copy()
        moved[5] = moved[5][::-1]
        assert trajectory_fingerprint(coords) != trajectory_fingerprint(moved)

    def test_array_codec_round_trip(self):
        rng = np.random.default_rng(3)
        for arr in (
            rng.standard_normal((5, 2)),
            (rng.standard_normal(7) + 1j * rng.standard_normal(7)),
            np.arange(6, dtype=np.float32).reshape(2, 3),
        ):
            out = decode_array(encode_array(arr))
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_decode_lenient_spellings(self):
        np.testing.assert_allclose(decode_array([[1.0, 2.0]]), [[1.0, 2.0]])
        z = decode_array({"real": [1.0, 2.0], "imag": [3.0, 4.0]})
        np.testing.assert_allclose(z, [1 + 3j, 2 + 4j])

    def test_spec_validation(self):
        coords, samples, _ = _problem()
        with pytest.raises(ValueError, match="method"):
            JobSpec((32, 32), coords, samples, method="magic")
        with pytest.raises(ValueError, match="rank"):
            JobSpec((32, 32, 32), coords, samples)
        with pytest.raises(ValueError, match="samples"):
            JobSpec((32, 32), coords, samples[:-3])

    def test_from_payload_rejects_unknown_options(self):
        coords, samples, _ = _problem()
        payload = {
            "image_shape": [32, 32],
            "coords": encode_array(coords),
            "samples": encode_array(samples.astype(complex)),
            "options": {"beam_power": 9001},
        }
        with pytest.raises(ValueError, match="beam_power"):
            JobSpec.from_payload(payload)

    def test_job_lifecycle_states(self):
        coords, samples, _ = _problem()
        job = Job(JobSpec((32, 32), coords, samples, method="adjoint"))
        assert job.state == JobState.QUEUED
        assert job.seconds is None
        job.mark_running("w0")
        assert job.state == JobState.RUNNING
        job.mark_failed(ValueError("nope"))
        assert job.state == JobState.FAILED
        assert job.state in JobState.TERMINAL
        assert "ValueError" in job.error
        assert job.wait(timeout=0.1)
        assert job.seconds is not None


# ----------------------------------------------------------------------
# end-to-end numerics + warm caches
# ----------------------------------------------------------------------
class TestServiceNumerics:
    def test_cg_job_matches_direct_call(self):
        coords, _, weights = _problem()
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled")
        samples = plan.forward(shepp_logan_2d(32).astype(complex))
        ref = cg_reconstruction(
            plan, samples, weights=weights, n_iterations=5, normal="toeplitz"
        )
        with ReconService(workers=1) as svc:
            job = svc.submit(
                JobSpec((32, 32), coords, samples, weights=weights,
                        n_iterations=5)
            )
            svc.wait(job.id, timeout=60)
        assert job.state == JobState.DONE
        np.testing.assert_array_equal(job.result.image, ref.image)

    def test_adjoint_job_matches_direct_call(self):
        coords, samples, weights = _problem()
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled")
        ref = plan.adjoint(samples * weights)
        with ReconService(workers=1) as svc:
            job = svc.submit(
                JobSpec((32, 32), coords, samples, weights=weights,
                        method="adjoint")
            )
            svc.wait(job.id, timeout=60)
        assert job.state == JobState.DONE
        np.testing.assert_array_equal(job.result.image, ref)

    def test_moved_interior_sample_gets_its_own_plan(self):
        """Two adjoint jobs differ in one interior sample: the second
        must not be served the first job's warm plan."""
        coords, samples, weights = _problem()
        moved = coords.copy()
        moved[5] = moved[5][::-1]  # mirrored across the diagonal
        with ReconService(workers=1) as svc:
            for c in (coords, moved):
                job = svc.submit(JobSpec((32, 32), c, samples, weights=weights,
                                         method="adjoint"))
                svc.wait(job.id, timeout=60)
                assert job.state == JobState.DONE
        assert job.result.plan_cache == "miss"
        plan = NufftPlan((32, 32), moved, gridder="slice_and_dice_compiled")
        np.testing.assert_array_equal(job.result.image, plan.adjoint(samples * weights))

    def test_interior_weights_get_their_own_psf(self):
        """Two CG jobs share coords; the second triples weights at rows
        a sampled key never reads.  It must get its own Toeplitz PSF."""
        coords, _, weights = _problem()
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled")
        samples = plan.forward(shepp_logan_2d(32).astype(complex))
        tripled = weights.copy()
        tripled[1:31] *= 3.0
        ref = cg_reconstruction(
            plan, samples, weights=tripled, n_iterations=5, normal="toeplitz"
        )
        with ReconService(workers=1) as svc:
            for w in (weights, tripled):
                job = svc.submit(JobSpec((32, 32), coords, samples, weights=w,
                                         n_iterations=5))
                svc.wait(job.id, timeout=60)
                assert job.state == JobState.DONE
        assert (job.result.plan_cache, job.result.toeplitz_cache) == ("hit", "miss")
        np.testing.assert_array_equal(job.result.image, ref.image)

    def test_repeat_trajectory_hits_warm_caches(self):
        coords, samples, weights = _problem()
        with ReconService(workers=2) as svc:
            spec = lambda: JobSpec(  # noqa: E731
                (32, 32), coords, samples, weights=weights, n_iterations=3
            )
            first = svc.submit(spec())
            svc.wait(first.id, timeout=60)
            second = svc.submit(spec())
            svc.wait(second.id, timeout=60)
            assert first.result.plan_cache == "miss"
            assert first.result.toeplitz_cache == "miss"
            assert second.result.plan_cache == "hit"
            assert second.result.toeplitz_cache == "hit"
            # affinity: same fingerprint -> same worker
            assert first.worker == second.worker

    def test_distinct_weights_share_plan_not_toeplitz(self):
        coords, samples, weights = _problem()
        with ReconService(workers=1) as svc:
            a = svc.submit(JobSpec((32, 32), coords, samples,
                                   weights=weights, n_iterations=3))
            svc.wait(a.id, timeout=60)
            b = svc.submit(JobSpec((32, 32), coords, samples,
                                   weights=weights * 2.0, n_iterations=3))
            svc.wait(b.id, timeout=60)
        assert b.result.plan_cache == "hit"
        assert b.result.toeplitz_cache == "miss"

    def test_one_shot_psf_fault_is_recorded_then_rebuilt(self):
        # the failed build degrades the job to the gridding normal
        # operator on the record; nothing is bound, so the next job on
        # the same trajectory and weights builds the PSF and the one
        # after it reuses that build
        coords, samples, weights = _problem()
        spec = lambda: JobSpec(  # noqa: E731
            (32, 32), coords, samples, weights=weights, n_iterations=3
        )
        with ReconService(workers=1) as svc:
            with inject_faults(seed=0, toeplitz_psf_errors=1) as inj:
                failed = svc.submit(spec())
                svc.wait(failed.id, timeout=60)
            later = []
            for _ in range(2):
                later.append(svc.submit(spec()))
                svc.wait(later[-1].id, timeout=60)
        assert inj.log == [("toeplitz:psf", "raise")]
        assert failed.state == JobState.DONE
        assert failed.result.toeplitz_cache == "miss"
        assert [
            (e.component, e.from_stage, e.to_stage)
            for e in failed.result.degradations
        ] == [("normal", "toeplitz", "gridding")]
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled")
        ref = cg_reconstruction(plan, samples, weights=weights, n_iterations=3)
        np.testing.assert_array_equal(failed.result.image, ref.image)
        assert [j.result.toeplitz_cache for j in later] == ["miss", "hit"]
        assert [j.result.degradations for j in later] == [(), ()]

    def test_single_precision_cg_job_matches_direct_call(self):
        # the PSF folds in the weights CG solves with: float32 on the
        # single lane, in the service as in a direct call
        coords, _, _ = _problem()
        weights = np.random.default_rng(3).uniform(0.5, 1.5, coords.shape[0])
        fresh = lambda: NufftPlan(  # noqa: E731
            (32, 32), coords, gridder="slice_and_dice_compiled",
            precision="single",
        )
        samples = fresh().forward(shepp_logan_2d(32).astype(np.complex64))
        ref = cg_reconstruction(
            fresh(), samples, weights=weights, n_iterations=5, normal="toeplitz"
        )
        with ReconService(workers=1) as svc:
            job = svc.submit(JobSpec((32, 32), coords, samples, weights=weights,
                                     n_iterations=5, precision="single"))
            svc.wait(job.id, timeout=60)
        assert job.state == JobState.DONE
        assert job.result.image.dtype == np.complex64
        np.testing.assert_array_equal(job.result.image, ref.image)

    def test_fft_demotion_is_in_the_job_record(self):
        coords, samples, weights = _problem()
        spec = lambda: JobSpec(  # noqa: E731
            (32, 32), coords, samples, weights=weights, method="adjoint",
            fft_backend="scipy",
        )
        with ReconService(workers=1) as svc:
            with inject_faults(seed=0, fft_errors={"scipy": 1}) as inj:
                job = svc.submit(spec())
                svc.wait(job.id, timeout=60)
            later = svc.submit(spec())
            svc.wait(later.id, timeout=60)
        assert inj.log == [("fft:scipy", "raise")]
        assert job.state == JobState.DONE
        assert [
            (e.component, e.from_stage, e.to_stage)
            for e in job.result.degradations
        ] == [("fft", "scipy", "numpy")]
        # the demotion is sticky on the warm plan; only the job it
        # happened in reports it
        assert later.result.plan_cache == "hit"
        assert later.result.degradations == ()
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled",
                         fft_backend="numpy")
        np.testing.assert_array_equal(job.result.image, plan.adjoint(samples * weights))

    def test_failed_job_surfaces_typed_error(self):
        coords, samples, _ = _problem()
        bad = coords.copy()
        bad[0, 0] = np.nan
        with ReconService(workers=1) as svc:
            job = svc.submit(JobSpec((32, 32), bad, samples, method="adjoint"))
            svc.wait(job.id, timeout=60)
        assert job.state == JobState.FAILED
        assert "CoordinateError" in job.error

    def test_quality_policy_drop_degrades_and_reports(self):
        coords, samples, weights = _problem()
        bad = coords.copy()
        bad[3] = np.nan
        with ReconService(workers=1) as svc:
            job = svc.submit(
                JobSpec((32, 32), bad, samples, weights=weights,
                        method="adjoint", quality_policy="drop")
            )
            svc.wait(job.id, timeout=60)
        assert job.state == JobState.DONE
        assert job.result.quality is not None
        assert job.result.quality["dropped"] >= 1
        assert np.all(np.isfinite(job.result.image))


# ----------------------------------------------------------------------
# routing + admission
# ----------------------------------------------------------------------
class TestRoutingAndAdmission:
    def test_distinct_trajectories_spread_over_workers(self):
        with ReconService(workers=2, autostart=False) as svc:
            specs = []
            for i in range(4):
                coords = radial_trajectory(8 + i, 16)
                samples = np.ones(coords.shape[0], dtype=complex)
                specs.append(JobSpec((16, 16), coords, samples,
                                     method="adjoint"))
            jobs = [svc.submit(s) for s in specs]
            workers = {j.id: None for j in jobs}
            svc.start()
            for j in jobs:
                svc.wait(j.id, timeout=60)
                workers[j.id] = j.worker
        assert len(set(workers.values())) == 2

    def test_backpressure_429_then_drain_completes_all(self):
        coords, samples, _ = _problem(16, 8, 16)
        svc = ReconService(workers=2, max_pending=3, autostart=False)
        accepted = [
            svc.submit(JobSpec((16, 16), coords, samples, method="adjoint"))
            for _ in range(3)
        ]
        with pytest.raises(ServiceOverloaded) as exc_info:
            svc.submit(JobSpec((16, 16), coords, samples, method="adjoint"))
        assert exc_info.value.retry_after >= 1
        assert svc.rejected == 1
        assert svc.pending() == 3
        # graceful drain finishes every accepted job, even though the
        # workers had not started when the jobs were accepted
        svc.close(drain=True)
        assert [j.state for j in accepted] == [JobState.DONE] * 3
        with pytest.raises(RuntimeError, match="not accepting"):
            svc.submit(JobSpec((16, 16), coords, samples, method="adjoint"))

    def test_slots_reopen_after_completion(self):
        coords, samples, _ = _problem(16, 8, 16)
        with ReconService(workers=1, max_pending=1) as svc:
            job = svc.submit(
                JobSpec((16, 16), coords, samples, method="adjoint")
            )
            svc.wait(job.id, timeout=60)
            # terminal job freed its admission slot
            again = svc.submit(
                JobSpec((16, 16), coords, samples, method="adjoint")
            )
            svc.wait(again.id, timeout=60)
            assert again.state == JobState.DONE

    def test_terminal_retention_bounded(self):
        coords, samples, _ = _problem(16, 8, 16)
        with ReconService(workers=1, max_jobs_retained=2) as svc:
            ids = []
            for _ in range(4):
                job = svc.submit(
                    JobSpec((16, 16), coords, samples, method="adjoint")
                )
                svc.wait(job.id, timeout=60)
                ids.append(job.id)
            assert svc.get(ids[0]) is None  # evicted
            assert svc.get(ids[-1]) is not None

    def test_retained_jobs_drop_their_inputs(self):
        """A finished job keeps its status, not its ``(M,)`` input
        arrays, so ``max_jobs_retained`` bounds the service's memory;
        the caller's spec is untouched."""
        coords, samples, _ = _problem(16, 8, 16)
        spec = JobSpec((16, 16), coords, samples, method="adjoint")
        fingerprint = spec.fingerprint
        with ReconService(workers=1) as svc:
            job = svc.submit(spec)
            svc.wait(job.id, timeout=60)
            kept = svc.get(job.id)
            assert kept.state == JobState.DONE
            assert kept.spec.coords is None and kept.spec.samples is None
            status = kept.as_dict()
            assert status["fingerprint"] == fingerprint
            assert status["result"]["image"]
        assert spec.coords is coords and spec.samples is samples

    def test_stats_aggregate_is_merge_of_workers(self):
        coords, samples, weights = _problem()
        with ReconService(workers=2) as svc:
            for _ in range(2):
                job = svc.submit(JobSpec((32, 32), coords, samples,
                                         weights=weights, n_iterations=2))
                svc.wait(job.id, timeout=60)
            stats = svc.stats()
        expected = PoolSnapshot.merge(
            w.buffer_pool.snapshot() for w in svc.workers
        )
        assert stats["pool"] == expected.as_dict()
        assert stats["accepted"] == 2
        assert stats["jobs"] == {"done": 2}
        per_worker = [w["pool"] for w in stats["workers"]]
        assert sum(p["hits"] for p in per_worker) == stats["pool"]["hits"]


# ----------------------------------------------------------------------
# pool snapshots
# ----------------------------------------------------------------------
class TestPoolSnapshot:
    def test_snapshot_tracks_counters(self):
        pool = GridBufferPool()
        buf = pool.acquire((8, 8), np.complex128)
        pool.release(buf)
        buf = pool.acquire((8, 8), np.complex128)
        pool.release(buf)
        snap = pool.snapshot()
        assert isinstance(snap, PoolSnapshot)
        assert snap.hits == 1
        assert snap.misses == 1
        assert snap.outstanding == 0
        assert snap.hit_rate == 0.5
        assert snap.peak_bytes >= 8 * 8 * 16

    def test_merge_sums_fields(self):
        a = PoolSnapshot(hits=2, misses=2, miss_bytes=10, resident_bytes=5,
                         peak_bytes=7, outstanding=1)
        b = PoolSnapshot(hits=6, misses=0, miss_bytes=0, resident_bytes=3,
                         peak_bytes=4, outstanding=0)
        merged = PoolSnapshot.merge([a, b])
        assert merged.hits == 8
        assert merged.misses == 2
        assert merged.peak_bytes == 11
        assert merged.hit_rate == 0.8
        assert merged.as_dict()["hit_rate"] == 0.8

    def test_merge_empty_is_zero(self):
        zero = PoolSnapshot.merge([])
        assert zero.hits == 0 and zero.hit_rate == 0.0


# ----------------------------------------------------------------------
# LRU eviction under concurrent interleaved load (satellite)
# ----------------------------------------------------------------------
class TestWarmCacheHammer:
    def test_eviction_never_corrupts_inflight_plans(self):
        """One worker, tiny LRU, interleaved distinct trajectories.

        With ``plan_cache_size=2`` and four distinct trajectories
        submitted round-robin from four threads, plans are evicted
        while sibling jobs for the same fingerprint are still queued
        or running.  Every result must still equal the direct-library
        reference — eviction may cost a rebuild, never correctness.
        """
        n = 24
        problems = []
        for i in range(4):
            coords = radial_trajectory(10 + i, 24)
            rng = np.random.default_rng(i)
            m = coords.shape[0]
            samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            plan = NufftPlan((n, n), coords,
                             gridder="slice_and_dice_compiled")
            problems.append((coords, samples, plan.adjoint(samples)))

        errors = []
        with ReconService(workers=1, plan_cache_size=2, max_pending=64) as svc:
            def _hammer(idx: int) -> None:
                try:
                    for rep in range(6):
                        coords, samples, ref = problems[(idx + rep) % 4]
                        job = svc.submit(
                            JobSpec((n, n), coords, samples, method="adjoint")
                        )
                        svc.wait(job.id, timeout=60)
                        assert job.state == JobState.DONE, job.error
                        np.testing.assert_array_equal(job.result.image, ref)
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=_hammer, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.workers[0].stats()
        assert not errors, errors[0]
        assert stats["jobs_done"] == 24
        assert stats["warm_plans"] <= 2
        # the tiny LRU must actually have churned for this test to bite
        assert stats["plan_misses"] > 4
