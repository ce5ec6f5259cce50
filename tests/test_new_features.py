"""Tests for the extension features: SnD interp scheduling, batch NuFFT,
Z-binning, energy breakdown, CLI, and d-dimensional gridding."""

import itertools

import numpy as np
import pytest

from repro.core import SliceAndDiceGridder
from repro.gridding import GriddingSetup, NaiveGridder, available_gridders
from repro.jigsaw import (
    EnergyBreakdown,
    JigsawConfig,
    JigsawSimulator,
    energy_breakdown,
    jigsaw_energy,
    z_bin_samples,
)
from repro.kernels import KernelLUT, beatty_kernel
from repro.nufft import NufftPlan
from repro.trajectories import random_trajectory
from tests.conftest import random_samples


class TestSliceAndDiceInterp:
    def test_matches_base_gather(self, small_setup, rng):
        coords, _ = random_samples(rng, 120, small_setup.grid_shape)
        grid = rng.standard_normal(small_setup.grid_shape) + 1j * rng.standard_normal(
            small_setup.grid_shape
        )
        ref = NaiveGridder(small_setup).interp(grid, coords)
        out = SliceAndDiceGridder(small_setup).interp(grid, coords)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_stats_use_column_checks(self, small_setup, rng):
        coords, _ = random_samples(rng, 70, small_setup.grid_shape)
        g = SliceAndDiceGridder(small_setup)
        g.interp(np.ones(small_setup.grid_shape, dtype=complex), coords)
        assert g.stats.boundary_checks == 70 * 64
        assert g.stats.interpolations == 70 * 36
        assert g.stats.presort_operations == 0

    def test_adjoint_pair_exact(self, small_setup, rng):
        coords, vals = random_samples(rng, 60, small_setup.grid_shape)
        g = SliceAndDiceGridder(small_setup)
        x = rng.standard_normal(small_setup.grid_shape) + 1j * rng.standard_normal(
            small_setup.grid_shape
        )
        lhs = np.vdot(x, g.grid(coords, vals))
        rhs = np.vdot(g.interp(x, coords), vals)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_empty(self, small_setup):
        g = SliceAndDiceGridder(small_setup)
        out = g.interp(np.zeros(small_setup.grid_shape, dtype=complex), np.zeros((0, 2)))
        assert out.shape == (0,)

    def test_shape_validation(self, small_setup):
        g = SliceAndDiceGridder(small_setup)
        with pytest.raises(ValueError, match="grid shape"):
            g.interp(np.zeros((8, 8), dtype=complex), np.zeros((1, 2)))


class TestDimensionality:
    """Slice-and-Dice is dimension-generic: 1-D and 3-D must work."""

    def test_1d_matches_naive(self, rng):
        setup = GriddingSetup((64,), KernelLUT(beatty_kernel(4, 2.0), 32))
        coords = rng.uniform(0, 64, (100, 1))
        vals = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        ref = NaiveGridder(setup).grid(coords, vals)
        out = SliceAndDiceGridder(setup, tile_size=8).grid(coords, vals)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_3d_matches_naive(self, rng):
        setup = GriddingSetup((16, 16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))
        coords = rng.uniform(0, 16, (150, 3))
        vals = rng.standard_normal(150) + 1j * rng.standard_normal(150)
        ref = NaiveGridder(setup).grid(coords, vals)
        out = SliceAndDiceGridder(setup, tile_size=4).grid(coords, vals)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_3d_binning_matches_naive(self, rng):
        from repro.gridding import BinningGridder

        setup = GriddingSetup((16, 16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))
        coords = rng.uniform(0, 16, (150, 3))
        vals = rng.standard_normal(150) + 1j * rng.standard_normal(150)
        ref = NaiveGridder(setup).grid(coords, vals)
        out = BinningGridder(setup, tile_size=8).grid(coords, vals)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_3d_nufft_vs_nudft(self, rng):
        from repro.nudft import nudft_adjoint

        coords = random_trajectory(200, 3, rng=5)
        vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        plan = NufftPlan((8, 8, 8), coords, width=4, table_oversampling=1024,
                         gridder="naive")
        fast = plan.adjoint(vals)
        exact = nudft_adjoint(vals, coords, (8, 8, 8))
        err = np.linalg.norm(fast - exact) / np.linalg.norm(exact)
        assert err < 5e-3


def batch_cell_plans():
    """One plan per engine x precision lane x rank, keyed by its cell."""
    for engine, precision, (shape, m) in itertools.product(
        available_gridders(),
        ("double", "single"),
        (((16, 16), 80), ((8, 8, 8), 60)),
    ):
        coords = random_trajectory(m, len(shape), rng=0)
        plan = NufftPlan(shape, coords, width=4, gridder=engine, precision=precision)
        yield (engine, precision, shape), plan


class TestBatchNufft:
    """Every batch row equals the single call on it, bit for bit."""

    @pytest.fixture
    def plan(self):
        return NufftPlan((16, 16), random_trajectory(80, 2, rng=0), width=4)

    def test_forward_batch_matches_loop(self, rng):
        for cell, plan in batch_cell_plans():
            shape = (3,) + plan.image_shape
            imgs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            batch = plan.forward_batch(imgs)
            for b in range(3):
                assert np.array_equal(batch[b], plan.forward(imgs[b])), (cell, b)

    def test_adjoint_batch_matches_loop(self, rng):
        for cell, plan in batch_cell_plans():
            shape = (3, plan.n_samples)
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            batch = plan.adjoint_batch(vals)
            for b in range(3):
                assert np.array_equal(batch[b], plan.adjoint(vals[b])), (cell, b)

    def test_batch_timings_accumulate(self, plan, rng):
        """Batch timings cover the whole batched pass (loose wall-clock
        bound: scheduling noise must not flake this).  The warm-up call
        populates the gridder's table cache so the single/batch
        comparison is cached-vs-cached, not build-vs-cached."""
        vals = rng.standard_normal((4, 80)) + 1j * rng.standard_normal((4, 80))
        plan.adjoint(vals[0])  # warm the select-table cache
        plan.adjoint(vals[0])
        single_time = plan.timings.total
        plan.adjoint_batch(vals)
        batch_time = plan.timings.total
        assert batch_time > single_time
        assert batch_time > 0

    def test_shape_validation(self, plan):
        with pytest.raises(ValueError, match="images"):
            plan.forward_batch(np.zeros((16, 16), dtype=complex))
        with pytest.raises(ValueError, match="values"):
            plan.adjoint_batch(np.zeros(80, dtype=complex))


class TestZBinning:
    @pytest.fixture
    def cfg(self):
        return JigsawConfig(
            grid_dim=16, grid_dim_z=8, window_width=4, window_width_z=4,
            table_oversampling=16, variant="3d_slice",
        )

    def test_every_sample_in_wz_slices(self, cfg, rng):
        coords = rng.uniform(0, 8, (100, 3)) * np.asarray([2, 2, 1.0])
        zb = z_bin_samples(coords, cfg)
        assert zb.n_slices == 8
        assert zb.entries == 100 * 4  # Wz slices each
        counts = np.zeros(100, dtype=int)
        for sl in zb.slice_samples:
            counts[sl] += 1
        assert np.all(counts == 4)

    def test_membership_matches_simulator_select(self, cfg, rng):
        """The host's binning must agree with the select unit's z check
        (up to the 1/L coordinate quantization, avoided here by using
        coordinates already on the 1/L grid)."""
        ell = cfg.table_oversampling
        coords = np.column_stack(
            [
                rng.uniform(0, 16, 60),
                rng.uniform(0, 16, 60),
                rng.integers(0, 8 * ell, 60) / ell,
            ]
        )
        zb = z_bin_samples(coords, cfg)
        wz = cfg.window_width_z
        for iz in range(8):
            members = set(zb.slice_samples[iz].tolist())
            for j in range(60):
                fwd = (coords[j, 2] + wz / 2.0 - iz) % 8
                assert (j in members) == (fwd < wz)

    def test_requires_3d_variant(self):
        with pytest.raises(ValueError, match="3d_slice"):
            z_bin_samples(np.zeros((1, 3)), JigsawConfig(table_oversampling=16))

    def test_coords_shape(self, cfg):
        with pytest.raises(ValueError, match=r"\(M, 3\)"):
            z_bin_samples(np.zeros((4, 2)), cfg)

    def test_sort_ops_positive(self, cfg, rng):
        coords = rng.uniform(0, 8, (50, 3))
        assert z_bin_samples(coords, cfg).sort_operations > 0


class TestEnergyBreakdown:
    def test_reconciles_with_power_times_time(self):
        """At full activity the breakdown must reproduce the
        power-times-time energy within the pipeline-drain rounding."""
        cfg = JigsawConfig(grid_dim=1024, window_width=6, table_oversampling=32)
        m = 100_000
        accesses = 2 * m * 36  # read+write per passing MAC
        bd = energy_breakdown(m, accesses, cfg)
        assert bd.total == pytest.approx(jigsaw_energy(m, cfg), rel=0.01)

    def test_from_simulator_counts(self):
        cfg = JigsawConfig(grid_dim=64, window_width=6, table_oversampling=32)
        sim = JigsawSimulator(cfg)
        rng = np.random.default_rng(0)
        m = 3000
        res = sim.grid_2d(rng.uniform(0, 64, (m, 2)), np.ones(m, dtype=complex))
        bd = energy_breakdown(
            m, res.accumulator_reads + res.accumulator_writes, cfg
        )
        assert bd.total > 0
        assert bd.sram_dynamic > 0
        # small grid: leakage scales down with SRAM capacity
        big = energy_breakdown(m, res.accumulator_reads + res.accumulator_writes,
                               JigsawConfig(grid_dim=1024, window_width=6,
                                            table_oversampling=32))
        assert big.sram_leakage > bd.sram_leakage

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            energy_breakdown(-1, 0, JigsawConfig())


class TestCli:
    @pytest.mark.parametrize("cmd", ["datasets", "fig6", "fig7", "fig8", "table2", "realtime"])
    def test_commands_run(self, cmd, capsys):
        from repro.bench.cli import main

        assert main([cmd]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 3

    def test_all(self, capsys):
        from repro.bench.cli import main

        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out and "Table II" in out

    def test_list(self, capsys):
        from repro.bench.cli import main

        assert main(["list"]) == 0
        assert "fig6" in capsys.readouterr().out


class TestSimdDivergence:
    """§II.C's divergence critique, measured: binning idles most lanes
    (~W^2/B^2), Slice-and-Dice keeps W^2/T^2 busy."""

    def test_binning_efficiency_is_window_over_tile(self, small_setup, rng):
        from repro.gridding import BinningGridder

        coords, vals = random_samples(rng, 200, small_setup.grid_shape)
        g = BinningGridder(small_setup, tile_size=16)
        g.grid(coords, vals)
        # active = M*W^2, slots = processed * B^2
        expected = (200 * 36) / (g.stats.samples_processed * 256)
        assert g.stats.simd_efficiency == pytest.approx(expected)
        assert g.stats.simd_efficiency < 0.2

    def test_snd_efficiency_is_window_over_columns(self, small_setup, rng):
        coords, vals = random_samples(rng, 200, small_setup.grid_shape)
        g = SliceAndDiceGridder(small_setup, tile_size=8)
        g.grid(coords, vals)
        assert g.stats.simd_efficiency == pytest.approx(36 / 64)

    def test_snd_beats_binning(self, small_setup, rng):
        from repro.gridding import BinningGridder

        coords, vals = random_samples(rng, 200, small_setup.grid_shape)
        snd = SliceAndDiceGridder(small_setup, tile_size=8)
        snd.grid(coords, vals)
        binn = BinningGridder(small_setup, tile_size=16)
        binn.grid(coords, vals)
        assert snd.stats.simd_efficiency > 3 * binn.stats.simd_efficiency

    def test_serial_gridder_reports_not_applicable(self, small_setup, rng):
        coords, vals = random_samples(rng, 50, small_setup.grid_shape)
        g = NaiveGridder(small_setup)
        g.grid(coords, vals)
        assert g.stats.simd_efficiency == 0.0
