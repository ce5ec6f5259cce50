"""Unit tests for the NuFFT plan (construction, shapes, timings)."""

import numpy as np
import pytest

from repro.nufft import NufftPlan
from repro.kernels import GaussianKernel
from repro.trajectories import (
    radial_trajectory,
    random_trajectory,
    spiral_trajectory,
)


@pytest.fixture
def coords():
    return random_trajectory(100, 2, rng=0)


class TestConstruction:
    def test_grid_shape_sigma2(self, coords):
        plan = NufftPlan((32, 32), coords)
        assert plan.grid_shape == (64, 64)

    def test_grid_shape_sigma_1_5_rounds_even(self, coords):
        plan = NufftPlan((32, 32), coords, oversampling=1.5, width=8, gridder="naive")
        assert plan.grid_shape == (48, 48)

    def test_rejects_small_image(self, coords):
        with pytest.raises(ValueError, match="image dims"):
            NufftPlan((1, 1), coords)

    def test_rejects_sigma_leq_1(self, coords):
        with pytest.raises(ValueError, match="oversampling"):
            NufftPlan((32, 32), coords, oversampling=1.0)

    def test_rejects_coord_rank_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            NufftPlan((32, 32), np.zeros((5, 3)))

    def test_custom_kernel(self, coords):
        plan = NufftPlan((32, 32), coords, kernel=GaussianKernel(width=6))
        assert isinstance(plan.kernel, GaussianKernel)

    def test_gridder_instance_passthrough(self, coords):
        from repro.gridding import GriddingSetup, NaiveGridder
        from repro.kernels import KernelLUT, beatty_kernel

        setup = GriddingSetup((64, 64), KernelLUT(beatty_kernel(6, 2.0), 512))
        g = NaiveGridder(setup)
        plan = NufftPlan((32, 32), coords, gridder=g)
        assert plan.gridder is g

    def test_grid_coords_in_range(self, coords):
        plan = NufftPlan((32, 32), coords)
        assert plan.grid_coords.min() >= 0
        assert plan.grid_coords.max() < 64

    def test_n_samples(self, coords):
        assert NufftPlan((32, 32), coords).n_samples == 100


class TestCanonicalGridCoords:
    """``omega mod 1`` rounds a tiny negative omega to exactly 1.0, so
    ``(omega mod 1) * G`` lands on ``G``.  The plan wraps those samples
    once, at construction, to the value the gridder's torus wrap gives
    them, instead of the gridder re-wrapping (and reporting) them on
    every call."""

    @pytest.mark.parametrize(
        "image,make_coords,n_at_g,gridder",
        [
            ((64, 64), lambda: radial_trajectory(64, 128), 64, "slice_and_dice"),
            ((64, 64), lambda: spiral_trajectory(64, 128), 69, "slice_and_dice"),
            ((64, 64), lambda: radial_trajectory(64, 128), 64,
             "slice_and_dice_compiled"),
            ((256, 256), lambda: radial_trajectory(402, 512), 256,
             "slice_and_dice_compiled"),
        ],
        ids=["radial64", "spiral64", "radial64-compiled", "radial256-compiled"],
    )
    def test_repo_trajectories_stay_below_g(self, image, make_coords, n_at_g, gridder):
        coords = make_coords()
        plan = NufftPlan(image, coords, gridder=gridder)
        g = np.asarray(plan.grid_shape, dtype=np.float64)
        unwrapped = np.mod(coords, 1.0) * g
        assert np.count_nonzero((unwrapped >= g).any(axis=1)) == n_at_g
        assert (plan.grid_coords >= 0).all() and (plan.grid_coords < g).all()
        assert plan.grid_coords.tobytes() == np.mod(unwrapped, g).tobytes()

        # reference: the same plan handed the unwrapped coordinates, so
        # the gridder applies np.mod(unwrapped, G) on every call
        ref = NufftPlan(image, coords, gridder=gridder)
        ref.grid_coords = unwrapped
        rng = np.random.default_rng(3)
        values = rng.standard_normal(len(coords)) + 1j * rng.standard_normal(len(coords))
        img = rng.standard_normal(image) + 1j * rng.standard_normal(image)

        assert np.array_equal(plan.adjoint(values), ref.adjoint(values))
        assert plan.timings.quality.wrapped == 0
        assert ref.timings.quality.wrapped == n_at_g
        assert np.array_equal(plan.forward(img), ref.forward(img))
        assert plan.timings.quality.wrapped == 0

    def test_grid_coords_read_only(self, coords):
        plan = NufftPlan((32, 32), coords)
        with pytest.raises(ValueError):
            plan.grid_coords[0, 0] = 1.0
        with pytest.raises(ValueError):
            plan.grid_coords += 1.0


class TestShapesAndValidation:
    def test_adjoint_output_shape(self, coords):
        plan = NufftPlan((32, 32), coords)
        assert plan.adjoint(np.ones(100, dtype=complex)).shape == (32, 32)

    def test_forward_output_shape(self, coords):
        plan = NufftPlan((32, 32), coords)
        assert plan.forward(np.ones((32, 32), dtype=complex)).shape == (100,)

    def test_adjoint_value_count_mismatch(self, coords):
        plan = NufftPlan((32, 32), coords)
        with pytest.raises(ValueError, match="values"):
            plan.adjoint(np.ones(50, dtype=complex))

    def test_forward_image_shape_mismatch(self, coords):
        plan = NufftPlan((32, 32), coords)
        with pytest.raises(ValueError, match="image shape"):
            plan.forward(np.ones((16, 16), dtype=complex))

    def test_rectangular_image(self):
        coords = random_trajectory(64, 2, rng=1)
        plan = NufftPlan((16, 32), coords, width=4)
        img = plan.adjoint(np.ones(64, dtype=complex))
        assert img.shape == (16, 32)
        assert plan.forward(img).shape == (64,)


class TestTimings:
    def test_timings_populated_adjoint(self, coords):
        plan = NufftPlan((32, 32), coords)
        plan.adjoint(np.ones(100, dtype=complex))
        t = plan.timings
        assert t.gridding > 0 and t.fft > 0 and t.apodization > 0
        assert t.copy_seconds >= 0
        # the four stages partition the call: shares must sum to 1
        assert t.total == pytest.approx(
            t.gridding + t.fft + t.apodization + t.copy_seconds
        )
        assert t.fft_backend in ("numpy", "scipy", "pyfftw")
        assert t.fft_workers >= 1
        assert t.peak_bytes > 0

    def test_timings_populated_forward(self, coords):
        plan = NufftPlan((32, 32), coords)
        plan.forward(np.ones((32, 32), dtype=complex))
        assert plan.timings.total > 0

    def test_gridding_share_in_unit_interval(self, coords):
        plan = NufftPlan((32, 32), coords)
        plan.adjoint(np.ones(100, dtype=complex))
        assert 0.0 < plan.timings.gridding_share() < 1.0

    def test_zero_timings_share(self):
        from repro.nufft import NufftTimings

        assert NufftTimings().gridding_share() == 0.0


class TestGridderBackends:
    @pytest.mark.parametrize("name", ["naive", "binning", "slice_and_dice"])
    def test_backends_give_same_image(self, coords, name):
        ref = NufftPlan((32, 32), coords, gridder="naive")
        plan = NufftPlan((32, 32), coords, gridder=name)
        v = np.exp(2j * np.pi * np.arange(100) / 7)
        np.testing.assert_allclose(plan.adjoint(v), ref.adjoint(v), rtol=1e-9, atol=1e-12)


class TestPrecision:
    @pytest.mark.parametrize("lane", ["single"])
    def test_single_precision_error_floor(self, coords, lane):
        """The single lane must land near the float32 epsilon floor,
        far above double but far below the kernel approximation."""
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        double = NufftPlan((32, 32), coords, table_oversampling=2**14,
                           gridder="naive")
        single = NufftPlan((32, 32), coords, table_oversampling=2**14,
                           gridder="naive", precision=lane)
        a = double.adjoint(vals)
        b = single.adjoint(vals)
        err = np.linalg.norm(a - b) / np.linalg.norm(a)
        assert 1e-8 < err < 1e-5

    def test_single_precision_forward_runs(self, coords):
        plan = NufftPlan((32, 32), coords, precision="single")
        out = plan.forward(np.ones((32, 32), dtype=complex))
        assert out.shape == (100,)
        assert out.dtype == np.complex64

    def test_single_lane_is_true_complex64(self, coords):
        """precision='single' computes in complex64 end to end: the
        gridder setup, the buffer pool keys, and the outputs all carry
        the working dtype — no complex128 full-grid arrays."""
        plan = NufftPlan((32, 32), coords, precision="single")
        assert plan.cdtype == np.complex64
        assert plan.gridder.setup.dtype == np.dtype(np.complex64)
        vals = np.ones(100, dtype=np.complex64)
        img = plan.adjoint(vals)
        assert img.dtype == np.complex64
        # every pooled grid buffer is complex64
        pool_dtypes = {key[1] for key in plan.buffer_pool._free}
        assert pool_dtypes <= {np.dtype(np.complex64).str}
        # warm call: the only full-grid transient is the FFT output,
        # at complex64 width (half of a complex128 grid)
        plan.adjoint(vals)
        grid_nbytes = int(np.prod(plan.grid_shape)) * 8
        assert plan.timings.peak_bytes == grid_nbytes
        assert plan.timings.precision == "single"


    def test_gridder_instance_dtype_mismatch_rejected(self, coords):
        from repro.gridding import GriddingSetup, make_gridder
        from repro.kernels import KernelLUT, beatty_kernel

        plan = NufftPlan((32, 32), coords, precision="single")
        lut = KernelLUT(beatty_kernel(6, 2.0), 512)
        setup = GriddingSetup(plan.grid_shape, lut)  # complex128 setup
        gridder = make_gridder("naive", setup)
        with pytest.raises(ValueError, match="dtype"):
            NufftPlan((32, 32), coords, gridder=gridder, precision="single")

    @pytest.mark.parametrize(
        "grid_shape,width,table_oversampling,kernel,match",
        [
            ((32, 32), 6, 512, None, r"grid \(32, 32\) vs \(64, 64\)"),
            ((64, 64), 4, 512, None, "W=4, L=512 vs W=6"),
            ((64, 64), 6, 256, None, "L=256 vs W=6, L=512"),
            ((64, 64), 6, 512, "es", "table values differ"),
        ],
        ids=["grid-shape", "lut-width", "lut-oversampling", "lut-table"],
    )
    def test_gridder_instance_setup_mismatch_rejected(
        self, coords, grid_shape, width, table_oversampling, kernel, match
    ):
        # the plan de-apodizes with its own LUT on its own grid, so an
        # instance built for another window or grid would silently (or,
        # for the grid, only at the first transform) return a wrong image
        from repro.gridding import GriddingSetup, make_gridder
        from repro.kernels import KernelLUT, beatty_kernel, make_kernel

        window = (
            beatty_kernel(width, 2.0) if kernel is None
            else make_kernel(kernel, width, sigma=2.0)
        )
        setup = GriddingSetup(grid_shape, KernelLUT(window, table_oversampling))
        gridder = make_gridder("naive", setup)
        with pytest.raises(ValueError, match=match):
            NufftPlan((32, 32), coords, gridder=gridder)

    def test_rejects_unknown_precision(self, coords):
        for precision in ("half", "simulate-single"):
            with pytest.raises(ValueError, match="precision"):
                NufftPlan((32, 32), coords, precision=precision)
