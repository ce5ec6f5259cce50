"""FFT backend registry, buffer pool, and fused-kernel bit-identity.

The contract under test: swapping the FFT backend or fusing the
apodize+pad / crop+deapodize steps must never change *what* the NuFFT
computes — on the ``numpy`` backend the plan's pipeline is
bit-identical to the same steps composed one by one from the plan's
reference parts, and the buffer pool only changes where the bytes
live, not their values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridding.buffers import GridBufferPool
from repro.nufft import NufftPlan
from repro.nufft.fft_backend import (
    FftBackend,
    NumpyFftBackend,
    available_fft_backends,
    fft_backend_available,
    get_fft_backend,
    register_fft_backend,
)
from repro.trajectories import radial_trajectory, random_trajectory

HAVE_SCIPY = fft_backend_available("scipy")
HAVE_PYFFTW = fft_backend_available("pyfftw")


# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self):
        assert fft_backend_available("numpy")
        assert "numpy" in available_fft_backends()

    def test_get_by_name(self):
        backend = get_fft_backend("numpy")
        assert backend.name == "numpy"
        assert backend.workers == 1

    def test_instance_passthrough(self):
        inst = NumpyFftBackend()
        assert get_fft_backend(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown fft backend"):
            get_fft_backend("fftw3000")

    def test_auto_prefers_scipy_when_available(self):
        resolved = get_fft_backend("auto")
        expected = "scipy" if HAVE_SCIPY else "numpy"
        assert resolved.name == expected

    def test_auto_never_selects_pyfftw(self):
        assert get_fft_backend("auto").name in ("numpy", "scipy")

    def test_disable_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_DISABLE", "scipy,pyfftw")
        assert not fft_backend_available("scipy")
        assert get_fft_backend("auto").name == "numpy"
        with pytest.raises(ValueError, match="not available"):
            get_fft_backend("scipy")

    def test_register_custom_backend(self):
        class Doubler(NumpyFftBackend):
            name = "test_doubler"

        register_fft_backend("test_doubler", Doubler)
        try:
            assert fft_backend_available("test_doubler")
            assert get_fft_backend("test_doubler").name == "test_doubler"
        finally:
            from repro.nufft import fft_backend as mod

            mod._REGISTRY.pop("test_doubler", None)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_scipy_matches_numpy_to_tolerance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        np_b = get_fft_backend("numpy")
        sp_b = get_fft_backend("scipy")
        np.testing.assert_allclose(sp_b.fftn(a), np_b.fftn(a), rtol=1e-12)
        np.testing.assert_allclose(
            sp_b.ifftn(a, norm="forward"), np_b.ifftn(a, norm="forward"), rtol=1e-12
        )

    @pytest.mark.skipif(not HAVE_PYFFTW, reason="pyfftw not installed")
    def test_pyfftw_matches_numpy_to_tolerance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        np_b = get_fft_backend("numpy")
        fw_b = get_fft_backend("pyfftw")
        np.testing.assert_allclose(fw_b.fftn(a), np_b.fftn(a), rtol=1e-10, atol=1e-10)

    def test_workers_validation(self):
        from repro.nufft.fft_backend import _default_workers

        with pytest.raises(ValueError, match="workers"):
            _default_workers(0)
        assert _default_workers(3) == 3
        assert _default_workers(None) >= 1

    def test_default_workers_follow_affinity(self, monkeypatch):
        """The default thread count is the CPUs the process may run on
        (``taskset``, cgroup cpusets), not every CPU of the machine;
        without an affinity mask it falls back to ``os.cpu_count()``."""
        import os

        from repro.gridding.buffers import usable_cpus
        from repro.nufft.fft_backend import _default_workers

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert usable_cpus() == _default_workers(None) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cpus() == _default_workers(None) == 64


# ----------------------------------------------------------------------
class TestGridBufferPool:
    def test_reuse_and_counters(self):
        pool = GridBufferPool()
        a = pool.acquire((8, 8))
        assert a.shape == (8, 8) and a.dtype == np.complex128
        assert (pool.hits, pool.misses) == (0, 1)
        pool.release(a)
        b = pool.acquire((8, 8))
        assert b is a
        assert (pool.hits, pool.misses) == (1, 1)

    def test_reused_buffer_is_zeroed(self):
        pool = GridBufferPool()
        a = pool.acquire((4, 4))
        a[...] = 7.0
        pool.release(a)
        b = pool.acquire((4, 4))
        assert np.all(b == 0)

    def test_zero_false_skips_memset(self):
        pool = GridBufferPool()
        a = pool.acquire((4, 4))
        a[...] = 7.0
        pool.release(a)
        b = pool.acquire((4, 4), zero=False)
        assert b is a  # dirty reuse is allowed when requested

    def test_different_shapes_do_not_alias(self):
        pool = GridBufferPool()
        a = pool.acquire((4, 4))
        pool.release(a)
        b = pool.acquire((8, 8))
        assert b is not a

    def test_miss_bytes_accumulates(self):
        pool = GridBufferPool()
        pool.acquire((4, 4))
        assert pool.miss_bytes == 4 * 4 * 16
        pool.acquire((4, 4))
        assert pool.miss_bytes == 2 * 4 * 4 * 16

    def test_max_per_key_bounds_residency(self):
        pool = GridBufferPool(max_per_key=1)
        a, b = pool.acquire((4, 4)), pool.acquire((4, 4))
        pool.release(a)
        pool.release(b)  # dropped
        assert pool.resident_bytes == a.nbytes

    def test_clear(self):
        pool = GridBufferPool()
        pool.release(pool.acquire((4, 4)))
        pool.clear()
        assert pool.resident_bytes == 0
        c = pool.acquire((4, 4))
        assert pool.misses == 2 and c.shape == (4, 4)


# ----------------------------------------------------------------------
CASES = [
    ("2d-pow2", (64, 64), radial_trajectory(32, 64)),
    ("2d-nonpow2", (48, 48), radial_trajectory(24, 48)),
    ("2d-rect", (32, 48), random_trajectory(300, 2, rng=2)),
    ("3d", (16, 16, 16), random_trajectory(400, 3, rng=1)),
]


def reference_adjoint(plan, values):
    """The adjoint NuFFT composed step by step: grid, ifft, crop, apodize."""
    grid = plan.gridder.grid(plan.grid_coords, values)
    return plan._apodize(plan._crop(np.fft.ifftn(grid, norm="forward")))


def reference_forward(plan, image):
    """The forward NuFFT composed step by step: apodize, pad, fft, interp."""
    padded = plan._pad(plan._apodize(image, conjugate=True))
    return plan.gridder.interp(np.fft.fftn(padded), plan.grid_coords)


class TestFusedBitIdentity:
    """The plan's fused pipeline == the stepwise reference, exactly."""

    @pytest.mark.parametrize("label,shape,coords", CASES, ids=[c[0] for c in CASES])
    def test_adjoint_and_forward(self, label, shape, coords):
        plan = NufftPlan(shape, coords, fft_backend="numpy")
        v = np.exp(2j * np.pi * np.arange(coords.shape[0]) / 7)
        rng = np.random.default_rng(0)
        img = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(plan.adjoint(v), reference_adjoint(plan, v))
        assert np.array_equal(plan.forward(img), reference_forward(plan, img))

    @pytest.mark.parametrize("label,shape,coords", CASES, ids=[c[0] for c in CASES])
    def test_batched(self, label, shape, coords):
        plan = NufftPlan(shape, coords, fft_backend="numpy")
        v = np.exp(2j * np.pi * np.arange(coords.shape[0]) / 7)
        rng = np.random.default_rng(0)
        img = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        vals = np.stack([v, 2 * v, -1j * v])
        imgs = np.stack([img, 1j * img])
        assert np.array_equal(
            plan.adjoint_batch(vals),
            np.stack([reference_adjoint(plan, row) for row in vals]),
        )
        assert np.array_equal(
            plan.forward_batch(imgs),
            np.stack([reference_forward(plan, row) for row in imgs]),
        )

    def test_oversampling_1p5(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((32, 32), coords, oversampling=1.5, fft_backend="numpy")
        v = np.exp(2j * np.pi * np.arange(coords.shape[0]) / 5)
        assert np.array_equal(plan.adjoint(v), reference_adjoint(plan, v))

    def test_norm_forward_matches_scaled_ifftn_pow2(self):
        # the adjoint's norm="forward" inverse FFT is bit-identical to
        # the historical ifftn * prod(grid_shape) on power-of-two grids
        rng = np.random.default_rng(3)
        for shape in [(64, 64), (8, 8, 8)]:
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(
                np.fft.ifftn(a, norm="forward"),
                np.fft.ifftn(a) * float(np.prod(shape)),
            )


# ----------------------------------------------------------------------
class TestPlanBackendsAndPool:
    def test_plan_rejects_unknown_backend(self):
        coords = radial_trajectory(8, 16)
        with pytest.raises(ValueError, match="unknown fft backend"):
            NufftPlan((16, 16), coords, fft_backend="nope")

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_scipy_backend_close_to_numpy(self):
        coords = radial_trajectory(16, 32)
        v = np.exp(2j * np.pi * np.arange(coords.shape[0]) / 7)
        ref = NufftPlan((32, 32), coords, fft_backend="numpy").adjoint(v)
        out = NufftPlan((32, 32), coords, fft_backend="scipy").adjoint(v)
        np.testing.assert_allclose(out, ref, rtol=1e-11, atol=1e-11)

    @pytest.mark.skipif(not HAVE_PYFFTW, reason="pyfftw not installed")
    def test_pyfftw_backend_close_to_numpy(self):
        coords = radial_trajectory(16, 32)
        v = np.exp(2j * np.pi * np.arange(coords.shape[0]) / 7)
        ref = NufftPlan((32, 32), coords, fft_backend="numpy").adjoint(v)
        out = NufftPlan((32, 32), coords, fft_backend="pyfftw").adjoint(v)
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)

    def test_timings_record_backend(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords, fft_backend="numpy")
        plan.adjoint(np.ones(coords.shape[0], dtype=complex))
        assert plan.timings.fft_backend == "numpy"
        assert plan.timings.fft_workers == 1

    def test_pool_shared_with_gridder(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        assert plan.gridder.buffer_pool is plan.buffer_pool

    def test_warm_calls_hit_pool(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        v = np.ones(coords.shape[0], dtype=complex)
        plan.adjoint(v)
        misses_after_first = plan.buffer_pool.misses
        plan.adjoint(v)
        assert plan.buffer_pool.misses == misses_after_first

    def test_warm_transforms_allocate_one_grid(self):
        # a warm complex128 forward and adjoint each allocate exactly
        # one full grid: the FFT output (every other grid is pooled)
        coords = radial_trajectory(16, 32)
        v = np.exp(2j * np.pi * np.arange(coords.shape[0]) / 7)
        rng = np.random.default_rng(0)
        img = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        plan = NufftPlan((32, 32), coords, fft_backend="numpy")
        plan.adjoint(v)  # warm the pool and the gridder's caches
        plan.forward(img)
        grid_nbytes = int(np.prod(plan.grid_shape)) * 16
        plan.adjoint(v)
        assert plan.timings.peak_bytes == grid_nbytes
        plan.forward(img)
        assert plan.timings.peak_bytes == grid_nbytes

    def test_repeat_calls_identical_with_pooling(self):
        # pooled buffer reuse must not leak state between transforms
        coords = random_trajectory(200, 2, rng=5)
        plan = NufftPlan((32, 32), coords)
        v = np.exp(2j * np.pi * np.arange(200) / 7)
        first = plan.adjoint(v)
        second = plan.adjoint(v)
        assert np.array_equal(first, second)

    def test_compiled_gather_scratch_is_hoisted(self):
        # satellite of the JIT-lane PR: the compiled engine's warm
        # grid_batch/interp_batch must not allocate the (nnz,)-sized
        # weighted-gather scratch per RHS — it lives in a persistent
        # (2, nnz) buffer on the gridder.  A single fresh (nnz,) float64
        # temp would show up in the tracemalloc peak at ~nnz * 8 bytes;
        # everything legitimately allocated during a warm call (dice
        # buffers, the output stack) is far smaller
        # for this geometry (nnz = M * W^2 = 108_000 vs n_flat = 1024).
        import tracemalloc

        from repro.gridding import GriddingSetup, make_gridder
        from repro.kernels import KernelLUT, beatty_kernel

        setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
        g = make_gridder("slice_and_dice_compiled", setup, backend="csr")
        rng = np.random.default_rng(3)
        m = 3000
        coords = rng.uniform(0, 32, (m, 2))
        stack = (
            rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        )
        grids = g.grid_batch(coords, stack)  # compile plan + scratch
        _ = g.interp_batch(grids, coords)
        nnz = g.stats.plan_nnz
        assert nnz >= 100_000  # geometry big enough for the assertion

        tracemalloc.start()
        g.grid_batch(coords, stack)
        _, peak_grid = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracemalloc.start()
        _ = g.interp_batch(grids, coords)
        _, peak_interp = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # one leaked per-RHS scratch would cost nnz * 8 ≈ 864 KB
        assert peak_grid < nnz * 4
        assert peak_interp < nnz * 4
