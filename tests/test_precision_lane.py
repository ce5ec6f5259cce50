"""True single-precision (complex64) lane: accuracy, dtypes, isolation.

The ``precision="single"`` lane must compute in complex64/float32 end
to end — gridding engines, buffer pool, FFT, apodization, CG — while
staying within the float32 error floor of the complex128 reference.
The legacy stepwise comparator lives on as ``"simulate-single"``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gridding import GriddingSetup, make_gridder
from repro.gridding.buffers import GridBufferPool
from repro.kernels import KernelLUT, beatty_kernel
from repro.nufft import NufftPlan
from repro.recon import cg_reconstruction
from repro.trajectories import (
    cell_counting_density_compensation,
    radial_trajectory,
    random_trajectory,
    spiral_trajectory,
)

ENGINES = [
    "naive",
    "output_parallel",
    "binning",
    "sparse_matrix",
    "slice_and_dice",
    "slice_and_dice_compiled",
]

TRAJECTORIES_2D = [
    ("radial", radial_trajectory(16, 32)),
    ("spiral", spiral_trajectory(4, 64)),
    ("random", random_trajectory(128, 2, rng=7)),
]


def _plans(shape, coords, engine, **kwargs):
    double = NufftPlan(
        shape, coords, gridder=engine, fft_backend="numpy", **kwargs
    )
    single = NufftPlan(
        shape, coords, gridder=engine, fft_backend="numpy",
        precision="single", **kwargs
    )
    return double, single


def _nrmsd(a, ref):
    return float(np.linalg.norm(a - ref) / np.linalg.norm(ref))


# ----------------------------------------------------------------------
class TestNrmsdAcrossEngines:
    """complex64 results track the complex128 reference on every engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name,coords", TRAJECTORIES_2D, ids=[t[0] for t in TRAJECTORIES_2D]
    )
    def test_adjoint_forward_2d(self, engine, name, coords):
        double, single = _plans((32, 32), coords, engine)
        rng = np.random.default_rng(1)
        m = coords.shape[0]
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a64 = double.adjoint(vals)
        a32 = single.adjoint(vals)
        assert a32.dtype == np.complex64
        assert _nrmsd(a32, a64) < 1e-4
        f64 = double.forward(a64)
        f32 = single.forward(a32)
        assert f32.dtype == np.complex64
        assert _nrmsd(f32, f64) < 1e-4

    @pytest.mark.parametrize(
        "engine", ["naive", "slice_and_dice", "slice_and_dice_compiled"]
    )
    def test_adjoint_3d(self, engine):
        coords = random_trajectory(256, 3, rng=5)
        double, single = _plans((16, 16, 16), coords, engine)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a64 = double.adjoint(vals)
        a32 = single.adjoint(vals)
        assert a32.dtype == np.complex64
        assert _nrmsd(a32, a64) < 1e-4


class TestCgNrmsd:
    """CG reconstruction in the single lane tracks the double lane."""

    @pytest.mark.parametrize(
        "name,coords",
        [
            ("radial", radial_trajectory(96, 256)),
            ("spiral", spiral_trajectory(12, 768)),
        ],
    )
    def test_cg_256(self, name, coords):
        shape = (256, 256)
        rng = np.random.default_rng(11)
        phantom = np.zeros(shape, dtype=complex)
        phantom[64:192, 64:192] = 1.0
        phantom += 0.05 * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        ref_plan = NufftPlan(shape, coords, gridder="slice_and_dice_compiled")
        kspace = ref_plan.forward(phantom)
        w = cell_counting_density_compensation(coords, shape)
        r64 = cg_reconstruction(
            ref_plan, kspace, weights=w, n_iterations=80, tolerance=1e-4
        )
        plan32 = NufftPlan(
            shape, coords, gridder="slice_and_dice_compiled", precision="single"
        )
        r32 = cg_reconstruction(
            plan32, kspace, weights=w, n_iterations=80, tolerance=1e-4
        )
        assert r32.image.dtype == np.complex64
        assert r64.converged and r32.converged
        assert _nrmsd(r32.image, r64.image) < 1e-3


# ----------------------------------------------------------------------
class TestAdjointnessFloat32:
    """<A x, y> == <x, A^H y> at float32 tolerances (hypothesis)."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_dot_test(self, seed):
        coords = random_trajectory(64, 2, rng=123)
        plan = NufftPlan(
            (16, 16), coords, gridder="slice_and_dice", precision="single",
            fft_backend="numpy",
        )
        rng = np.random.default_rng(seed)
        x = (
            rng.standard_normal(plan.image_shape)
            + 1j * rng.standard_normal(plan.image_shape)
        ).astype(np.complex64)
        y = (
            rng.standard_normal(plan.n_samples)
            + 1j * rng.standard_normal(plan.n_samples)
        ).astype(np.complex64)
        lhs = np.vdot(plan.forward(x), y)
        rhs = np.vdot(x, plan.adjoint(y))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-4


# ----------------------------------------------------------------------
class TestDtypeIsolation:
    """Caches, pools, and plans keep the two dtype lanes apart."""

    def test_pool_keys_by_dtype(self):
        pool = GridBufferPool()
        a = pool.acquire((8, 8), np.complex128)
        b = pool.acquire((8, 8), np.complex64)
        assert a.dtype == np.complex128 and b.dtype == np.complex64
        pool.release(a)
        pool.release(b)
        c = pool.acquire((8, 8), np.complex64)
        assert c is b  # same-dtype buffer reused, not the complex128 one

    def test_plans_do_not_cross_contaminate(self):
        coords = radial_trajectory(16, 32)
        p64 = NufftPlan((32, 32), coords, fft_backend="numpy")
        p32 = NufftPlan(
            (32, 32), coords, fft_backend="numpy", precision="single"
        )
        vals = np.ones(coords.shape[0], dtype=complex)
        for _ in range(2):  # warm both plans, interleaved
            a64 = p64.adjoint(vals)
            a32 = p32.adjoint(vals)
        assert a64.dtype == np.complex128
        assert a32.dtype == np.complex64
        keys64 = {key[1] for key in p64.buffer_pool._free}
        keys32 = {key[1] for key in p32.buffer_pool._free}
        assert keys64 <= {np.dtype(np.complex128).str}
        assert keys32 <= {np.dtype(np.complex64).str}

    def test_compiled_plan_csr_rebuilds_per_dtype(self):
        coords = radial_trajectory(16, 32)
        p32 = NufftPlan(
            (32, 32), coords, gridder="slice_and_dice_compiled",
            precision="single",
            fft_backend="numpy",
        )
        vals = np.ones(coords.shape[0], dtype=np.complex64)
        out = p32.adjoint(vals)
        assert out.dtype == np.complex64


class TestBatchedDtype:
    """Batched entry points preserve the working dtype."""

    @pytest.mark.parametrize("engine", ["slice_and_dice", "sparse_matrix"])
    def test_batched_roundtrip(self, engine):
        coords = radial_trajectory(16, 32)
        double, single = _plans((32, 32), coords, engine)
        rng = np.random.default_rng(4)
        m = coords.shape[0]
        vals = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        a64 = double.adjoint_batch(vals)
        a32 = single.adjoint_batch(vals)
        assert a32.dtype == np.complex64
        assert a32.shape == a64.shape
        assert _nrmsd(a32, a64) < 1e-4
        f32 = single.forward_batch(a32)
        assert f32.dtype == np.complex64
        assert _nrmsd(f32, double.forward_batch(a64)) < 1e-4


# ----------------------------------------------------------------------
class TestBufferPoolOwnership:
    """release() rejects foreign arrays and double releases."""

    def test_foreign_release_raises(self):
        pool = GridBufferPool()
        with pytest.raises(ValueError, match="not currently on loan"):
            pool.release(np.zeros((4, 4), dtype=np.complex128))

    def test_double_release_raises(self):
        pool = GridBufferPool()
        buf = pool.acquire((4, 4))
        pool.release(buf)
        with pytest.raises(ValueError, match="not currently on loan"):
            pool.release(buf)
        assert pool.outstanding == 0

    def test_release_from_other_pool_raises(self):
        a, b = GridBufferPool(), GridBufferPool()
        buf = a.acquire((4, 4))
        with pytest.raises(ValueError, match="not currently on loan"):
            b.release(buf)
        a.release(buf)  # the owning pool still accepts it


class TestCheckCoordsFastPath:
    """In-bounds coordinates pass through without a copy, per axis."""

    def test_rectangular_grid_identity(self):
        lut = KernelLUT(beatty_kernel(6, 2.0), 64)
        setup = GriddingSetup((16, 64), lut)
        rng = np.random.default_rng(0)
        # valid on the rectangular grid but would fail a scalar
        # min/max bound check against the smaller axis
        coords = np.column_stack(
            [rng.uniform(0, 16, 50), rng.uniform(32, 64, 50)]
        )
        out = setup.check_coords(coords)
        assert out is coords

    def test_out_of_bounds_takes_wrap_path(self):
        lut = KernelLUT(beatty_kernel(6, 2.0), 64)
        setup = GriddingSetup((16, 64), lut)
        bad = np.array([[8.0, 70.0]])  # beyond axis-1 extent
        out = setup.check_coords(bad)
        assert out is not bad  # slow path: torus wrap into a fresh array
        assert np.allclose(out, [[8.0, 6.0]])


class TestSetupDtypeValidation:
    """GriddingSetup dtype plumbing and out= validation."""

    def test_rejects_non_complex_dtype(self):
        lut = KernelLUT(beatty_kernel(6, 2.0), 64)
        with pytest.raises(ValueError, match="dtype"):
            GriddingSetup((16, 16), lut, dtype=np.float32)

    def test_real_dtype_property(self):
        lut = KernelLUT(beatty_kernel(6, 2.0), 64)
        assert GriddingSetup((16, 16), lut).real_dtype == np.float64
        assert (
            GriddingSetup((16, 16), lut, dtype=np.complex64).real_dtype
            == np.float32
        )

    def test_out_dtype_mismatch_message(self):
        lut = KernelLUT(beatty_kernel(6, 2.0), 64)
        setup = GriddingSetup((16, 16), lut, dtype=np.complex64)
        gridder = make_gridder("naive", setup)
        coords = np.full((4, 2), 8.0)
        vals = np.ones(4, dtype=np.complex64)
        wrong = np.zeros((16, 16), dtype=np.complex128)
        with pytest.raises(ValueError, match="complex64"):
            gridder.grid(coords, vals, out=wrong)
