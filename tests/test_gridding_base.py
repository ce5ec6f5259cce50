"""Unit tests for the shared gridding infrastructure."""

import numpy as np
import pytest

from repro.gridding import GriddingSetup, GriddingStats, window_contributions
from repro.gridding.base import offset_combinations, scatter_add_complex
from repro.kernels import KernelLUT, beatty_kernel


class TestGriddingSetup:
    def test_properties(self, small_setup):
        assert small_setup.ndim == 2
        assert small_setup.width == 6
        assert small_setup.n_grid_points == 1024

    def test_rejects_tiny_grid(self):
        lut = KernelLUT(beatty_kernel(6, 2.0), 32)
        with pytest.raises(ValueError, match="smaller than window"):
            GriddingSetup((4, 4), lut)

    def test_rejects_zero_dim(self):
        lut = KernelLUT(beatty_kernel(2, 2.0), 32)
        with pytest.raises(ValueError, match=">= 1"):
            GriddingSetup((0, 8), lut)

    def test_check_coords_wraps(self, small_setup):
        out = small_setup.check_coords(np.asarray([[33.0, -1.0]]))
        np.testing.assert_allclose(out, [[1.0, 31.0]])

    def test_check_coords_shape_error(self, small_setup):
        with pytest.raises(ValueError, match="shape"):
            small_setup.check_coords(np.zeros((3, 3)))


class TestWindowContributions:
    def test_shapes(self, small_setup):
        coords = np.asarray([[10.2, 20.7], [3.0, 3.0]])
        idx, wgt = window_contributions(small_setup, coords)
        assert idx.shape == (2, 36)
        assert wgt.shape == (2, 36)

    def test_indices_in_range(self, small_setup, rng):
        coords = rng.uniform(0, 32, (50, 2))
        idx, _ = window_contributions(small_setup, coords)
        assert idx.min() >= 0 and idx.max() < 1024

    def test_weights_nonnegative(self, small_setup, rng):
        coords = rng.uniform(0, 32, (50, 2))
        _, wgt = window_contributions(small_setup, coords)
        assert np.all(wgt >= 0)

    def test_weight_is_separable_product(self, small_setup):
        """2-D weight equals the product of the 1-D lookups."""
        lut = small_setup.lut
        coords = np.asarray([[10.3, 20.8]])
        idx, wgt = window_contributions(small_setup, coords)
        total = wgt.sum()
        onedim = lambda x: lut.table[
            lut.index_of((x + 3.0) - np.floor(x + 3.0) + np.arange(6))
        ].sum()
        assert total == pytest.approx(onedim(10.3) * onedim(20.8), rel=1e-12)

    def test_on_grid_sample_peak_weight(self, small_setup):
        """A sample exactly on a grid point gives that point weight 1."""
        coords = np.asarray([[16.0, 16.0]])
        idx, wgt = window_contributions(small_setup, coords)
        peak = idx[0][np.argmax(wgt[0])]
        assert peak == 16 * 32 + 16
        assert wgt[0].max() == pytest.approx(1.0)

    def test_wrapping_at_edges(self, small_setup):
        """A sample at the grid origin touches points on all four
        corners of the array (the torus of Fig. 2)."""
        coords = np.asarray([[0.0, 0.0]])
        idx, wgt = window_contributions(small_setup, coords)
        rows = idx[0] // 32
        cols = idx[0] % 32
        assert {0, 1, 2, 3, 29, 30, 31} >= set(np.unique(rows).tolist())
        assert rows.max() >= 29 and rows.min() == 0
        assert cols.max() >= 29 and cols.min() == 0

    def test_window_point_count_exact(self, tiny_setup):
        coords = np.asarray([[7.5, 3.2]])
        idx, _ = window_contributions(tiny_setup, coords)
        assert idx.shape[1] == 16  # W=4 squared

    def test_1d_setup(self):
        lut = KernelLUT(beatty_kernel(4, 2.0), 32)
        setup = GriddingSetup((16,), lut)
        idx, wgt = window_contributions(setup, np.asarray([[8.5]]))
        assert idx.shape == (1, 4)
        # affected points: floor(8.5+2)=10, offsets back: 10,9,8,7
        assert set(idx[0].tolist()) == {7, 8, 9, 10}


class TestScatterAdd:
    def test_matches_add_at(self, rng):
        grid = np.zeros(50, dtype=np.complex128)
        ref = np.zeros(50, dtype=np.complex128)
        idx = rng.integers(0, 50, (20, 4))
        vals = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        scatter_add_complex(grid, idx, vals)
        np.add.at(ref, idx.ravel(), vals.ravel())
        np.testing.assert_allclose(grid, ref, rtol=1e-12)


class TestStats:
    def test_as_dict_roundtrip(self):
        s = GriddingStats(boundary_checks=5, interpolations=3)
        d = s.as_dict()
        assert d["boundary_checks"] == 5
        assert d["interpolations"] == 3
        assert set(d) == {
            "boundary_checks",
            "interpolations",
            "samples_processed",
            "presort_operations",
            "grid_accesses",
            "lut_lookups",
            "simd_active_lanes",
            "simd_lane_slots",
            "cache_hits",
            "cache_misses",
            "table_build_seconds",
            "table_bytes",
            "plan_compile_seconds",
            "plan_nnz",
            "kernel",
            "exec_lane",
            "quality",
            "degradations",
            "chunks",
            "chunk_bytes",
            "peak_bytes",
        }


class TestOffsetCombinations:
    def test_count(self):
        assert len(offset_combinations(6, 2)) == 36
        assert len(offset_combinations(4, 3)) == 64

    def test_contents(self):
        combos = offset_combinations(2, 2)
        assert combos == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestInterp:
    def test_constant_grid_interpolates_to_kernel_sum(self, small_setup, rng):
        """Interpolating a constant grid returns (sum of window
        weights) x constant for every sample."""
        from repro.gridding import NaiveGridder

        g = NaiveGridder(small_setup)
        grid = np.full((32, 32), 2.0, dtype=np.complex128)
        coords = rng.uniform(0, 32, (20, 2))
        vals = g.interp(grid, coords)
        _, wgt = window_contributions(small_setup, coords)
        np.testing.assert_allclose(vals, 2.0 * wgt.sum(axis=1), rtol=1e-12)

    def test_interp_empty(self, small_setup):
        from repro.gridding import NaiveGridder

        g = NaiveGridder(small_setup)
        out = g.interp(np.zeros((32, 32), dtype=complex), np.zeros((0, 2)))
        assert out.shape == (0,)

    def test_interp_grid_shape_mismatch(self, small_setup):
        from repro.gridding import NaiveGridder

        g = NaiveGridder(small_setup)
        with pytest.raises(ValueError, match="grid shape"):
            g.interp(np.zeros((16, 16), dtype=complex), np.zeros((1, 2)))
