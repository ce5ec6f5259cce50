"""Batched multi-RHS gridding: bit-identity, caching, lane accounting.

The contract under test (ISSUE 1 tentpole):

- ``grid``/``interp`` are a batch of one, and ``grid_batch``/
  ``interp_batch`` are *bit-identical* (``array_equal``, not
  ``allclose``) to stacking K independent single calls, for 2D and 3D
  problems at complex128 and complex64, on every registered engine
  (both Slice-and-Dice schedules) and the compiled engine's chunk mode;
- the per-axis select tables are bound to one trajectory by exact
  content (equal coords -> hit; a new array or an in-place edit of any
  sample -> miss) and the events are visible in ``GriddingStats``;
- batch stats charge select work once and value work K times;
- the blocked engine's SIMD lane slots come from actual per-block work.
"""

import numpy as np
import pytest

from repro.core import SliceAndDiceGridder
from repro.gridding import (
    GriddingSetup,
    NaiveGridder,
    SparseMatrixGridder,
    available_gridders,
    make_gridder,
)
from repro.kernels import KernelLUT, beatty_kernel
from repro.nufft import NufftPlan
from repro.trajectories import random_trajectory


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


#: engine cells of the bit-identity tests: id -> (registry name, options)
ENGINES = {
    "columns": ("slice_and_dice", {"engine": "columns"}),
    "blocked": ("slice_and_dice", {"engine": "blocked"}),
    **{name: (name, {}) for name in available_gridders() if name != "slice_and_dice"},
    "chunk77": ("slice_and_dice_compiled", {"chunk_samples": 77}),
}


def make_setup(ndim: int, dtype=np.complex128) -> GriddingSetup:
    g = 32 if ndim == 2 else 16
    return GriddingSetup(
        (g,) * ndim, KernelLUT(beatty_kernel(4, 2.0), 64), dtype=dtype
    )


def make_problem(setup, rng, m=400, k=4):
    g = np.asarray(setup.grid_shape, dtype=np.float64)
    coords = rng.uniform(0, 1, (m, setup.ndim)) * g
    values = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    grids = rng.standard_normal((k,) + setup.grid_shape) + 1j * rng.standard_normal(
        (k,) + setup.grid_shape
    )
    return coords, values, grids


class TestBitIdentity:
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_grid_batch_matches_singles(self, ndim, engine, rng):
        """Each cell runs at complex128 and complex64."""
        name, options = ENGINES[engine]
        for dtype in (np.complex128, np.complex64):
            setup = make_setup(ndim, dtype)
            coords, values, _ = make_problem(setup, rng)
            gridder = make_gridder(name, setup, **options)
            singles = np.stack([gridder.grid(coords, v) for v in values])
            for v, single in zip(values, singles):
                assert np.array_equal(single, gridder.grid_batch(coords, v[None])[0])
            assert np.array_equal(gridder.grid_batch(coords, values), singles)

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interp_batch_matches_singles(self, ndim, engine, rng):
        """Each cell runs at complex128 and complex64."""
        name, options = ENGINES[engine]
        for dtype in (np.complex128, np.complex64):
            setup = make_setup(ndim, dtype)
            coords, _, grids = make_problem(setup, rng)
            gridder = make_gridder(name, setup, **options)
            singles = np.stack([gridder.interp(g, coords) for g in grids])
            for g, single in zip(grids, singles):
                assert np.array_equal(single, gridder.interp_batch(g[None], coords)[0])
            assert np.array_equal(gridder.interp_batch(grids, coords), singles)

    def test_base_class_fallback_is_exact(self, rng):
        """The default loop fallback is K single calls by construction."""
        setup = make_setup(2)
        coords, values, grids = make_problem(setup, rng)
        gridder = NaiveGridder(setup)
        assert np.array_equal(
            gridder.grid_batch(coords, values),
            np.stack([gridder.grid(coords, v) for v in values]),
        )
        assert np.array_equal(
            gridder.interp_batch(grids, coords),
            np.stack([gridder.interp(g, coords) for g in grids]),
        )

    def test_sparse_matrix_batch(self, rng):
        """Sparse mat-mat batching matches per-vector mat-vecs closely."""
        setup = make_setup(2)
        coords, values, grids = make_problem(setup, rng)
        gridder = SparseMatrixGridder(setup)
        singles = np.stack([gridder.grid(coords, v) for v in values])
        np.testing.assert_allclose(
            gridder.grid_batch(coords, values), singles, rtol=1e-12, atol=1e-14
        )
        singles_i = np.stack([gridder.interp(g, coords) for g in grids])
        np.testing.assert_allclose(
            gridder.interp_batch(grids, coords), singles_i, rtol=1e-12, atol=1e-14
        )

    def test_single_vector_promotion(self, rng):
        setup = make_setup(2)
        coords, values, grids = make_problem(setup, rng, k=1)
        gridder = SliceAndDiceGridder(setup)
        assert gridder.grid_batch(coords, values[0]).shape == (1,) + setup.grid_shape
        assert gridder.interp_batch(grids[0], coords).shape == (1, coords.shape[0])

    def test_batch_shape_validation(self, rng):
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        gridder = SliceAndDiceGridder(setup)
        with pytest.raises(ValueError, match="values_stack"):
            gridder.grid_batch(coords, values[:, :-1])
        with pytest.raises(ValueError, match="grid_stack"):
            gridder.interp_batch(np.zeros((2, 8, 8), dtype=complex), coords)


class TestTableCache:
    @pytest.mark.parametrize("engine", ["columns", "blocked"])
    def test_same_coords_hits(self, engine, rng):
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        gridder = SliceAndDiceGridder(setup, engine=engine)
        gridder.grid(coords, values[0])
        assert gridder.stats.cache_misses == 1
        assert gridder.stats.cache_hits == 0
        assert gridder.stats.table_build_seconds > 0.0
        gridder.grid(coords, values[1])
        assert gridder.stats.cache_hits == 1
        assert gridder.stats.cache_misses == 0
        assert gridder.stats.table_build_seconds == 0.0

    def test_same_content_different_object_hits(self, rng):
        """The binding is content-based: a copy of the trajectory (or
        the fresh array ``check_coords`` makes per call) still hits."""
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        gridder = SliceAndDiceGridder(setup)
        gridder.grid(coords, values[0])
        gridder.grid(coords.copy(), values[1])
        assert gridder.stats.cache_hits == 1

    def test_interp_shares_cache_with_grid(self, rng):
        setup = make_setup(2)
        coords, values, grids = make_problem(setup, rng)
        gridder = SliceAndDiceGridder(setup)
        gridder.grid(coords, values[0])
        gridder.interp(grids[0], coords)
        assert gridder.stats.cache_hits == 1

    def test_mutated_coords_miss(self, rng):
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        gridder = SliceAndDiceGridder(setup)
        gridder.grid(coords, values[0])
        mutated = coords.copy()
        mutated[0, 0] = (mutated[0, 0] + 1.0) % setup.grid_shape[0]
        gridder.grid(mutated, values[0])
        assert gridder.stats.cache_misses == 1
        assert gridder.stats.cache_hits == 0

    #: every engine with a trajectory binding; chunk mode with the
    #: trajectory in one chunk, the only case where it can reuse
    BOUND = {
        "columns": ("slice_and_dice", {"engine": "columns"}),
        "blocked": ("slice_and_dice", {"engine": "blocked"}),
        "compiled": ("slice_and_dice_compiled", {}),
        "chunked": ("slice_and_dice_compiled", {"chunk_samples": 4000}),
        "sparse": ("sparse_matrix", {}),
    }

    @pytest.mark.parametrize("edit", ["new_array", "in_place"])
    @pytest.mark.parametrize("engine", BOUND)
    def test_moved_interior_sample_rebinds(self, engine, edit, rng):
        """One moved interior sample (row 5, which no sampled key would
        read) must rebuild: the grid is the fresh gridder's, not the
        first trajectory's."""
        name, options = self.BOUND[engine]
        setup = GriddingSetup((64, 64), KernelLUT(beatty_kernel(6, 2.0), 64))
        coords = rng.uniform(0, 64, (4000, 2))
        values = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        gridder = make_gridder(name, setup, **options)
        first = gridder.grid(coords, values)
        if edit == "new_array":
            coords = coords.copy()
        coords[5] = (coords[5] + 0.5) % 64
        got = gridder.grid(coords, values)
        assert gridder.stats.cache_misses == 1
        assert not np.array_equal(got, first)
        fresh = make_gridder(name, setup, **options)
        assert np.array_equal(got, fresh.grid(coords, values))

    def test_cached_results_identical(self, rng):
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        warm = SliceAndDiceGridder(setup)
        warm.grid(coords, values[0])  # bind
        assert np.array_equal(
            warm.grid(coords, values[1]),
            SliceAndDiceGridder(setup).grid(coords, values[1]),
        )


class TestBatchStats:
    def test_select_work_charged_once(self, rng):
        """Batched stats: boundary checks / LUT reads are per select
        pass, MACs and grid accesses scale with K."""
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        k = values.shape[0]
        m = coords.shape[0]
        gridder = SliceAndDiceGridder(setup)
        gridder.grid(coords, values[0])
        single = gridder.stats
        gridder.grid_batch(coords, values)
        batch = gridder.stats
        assert batch.boundary_checks == m * gridder.layout.n_columns == single.boundary_checks
        assert batch.interpolations == k * single.interpolations
        assert batch.grid_accesses == k * single.grid_accesses
        assert batch.lut_lookups == single.lut_lookups
        assert batch.samples_processed == m

    def test_fallback_stats_sum(self, rng):
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        gridder = NaiveGridder(setup)
        gridder.grid(coords, values[0])
        single = gridder.stats
        gridder.grid_batch(coords, values)
        assert gridder.stats.boundary_checks == values.shape[0] * single.boundary_checks


class TestBlockedLaneSlots:
    def test_slots_from_per_block_work(self, rng):
        """Lane slots equal the sum over non-empty blocks of
        slice-length x columns — derived from each block's actual scan,
        not the whole-stream formula applied once."""
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng, m=101)  # uneven split
        n_blocks = 7
        gridder = SliceAndDiceGridder(setup, engine="blocked", n_blocks=n_blocks)
        gridder.grid(coords, values[0])
        bounds = np.linspace(0, coords.shape[0], n_blocks + 1).astype(np.int64)
        expected = sum(
            int(bounds[b + 1] - bounds[b]) * gridder.layout.n_columns
            for b in range(n_blocks)
            if bounds[b + 1] > bounds[b]
        )
        assert gridder.stats.simd_lane_slots == expected

    def test_columns_engine_unchanged(self, rng):
        setup = make_setup(2)
        coords, values, _ = make_problem(setup, rng)
        gridder = SliceAndDiceGridder(setup, engine="columns")
        gridder.grid(coords, values[0])
        assert gridder.stats.simd_lane_slots == coords.shape[0] * gridder.layout.n_columns


class TestPlanBatchRouting:
    @pytest.fixture
    def plan(self):
        return NufftPlan((16, 16), random_trajectory(80, 2, rng=0), width=4)

    def test_adjoint_accepts_stack(self, plan, rng):
        vals = rng.standard_normal((3, 80)) + 1j * rng.standard_normal((3, 80))
        stacked = plan.adjoint(vals)
        assert stacked.shape == (3, 16, 16)
        for b in range(3):
            np.testing.assert_allclose(stacked[b], plan.adjoint(vals[b]), rtol=1e-12)

    def test_forward_accepts_stack(self, plan, rng):
        imgs = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
        stacked = plan.forward(imgs)
        assert stacked.shape == (3, 80)
        for b in range(3):
            np.testing.assert_allclose(stacked[b], plan.forward(imgs[b]), rtol=1e-12)

    def test_plan_cache_amortized_across_calls(self, plan, rng):
        vals = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        plan.adjoint(vals)
        plan.adjoint(vals)  # fixed trajectory -> table cache hit
        assert plan.gridder.stats.cache_hits == 1
        assert plan.gridder.stats.table_build_seconds == 0.0
