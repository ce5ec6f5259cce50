"""Batched multi-RHS gridding: binding, stats, lane accounting.

The contract:

- ``grid``/``interp`` are a batch of one, and ``grid_batch``/
  ``interp_batch`` are *bit-identical* (``array_equal``) to stacking K
  independent single calls on every engine variant — the ``batch``
  cells of ``tests/test_engine_matrix.py``, which the
  ``TestBitIdentity`` ids name;
- the per-axis select tables are bound to one trajectory by exact
  content (equal coords -> hit; a new array or an in-place edit of any
  sample -> miss, and the result is a fresh gridder's: the matrix's
  ``stale`` cells) and the events are visible in ``GriddingStats``;
- batch stats charge select work once and value work K times;
- the blocked engine's SIMD lane slots come from actual per-block work.
"""

import numpy as np
import pytest

from repro.core import SliceAndDiceGridder
from repro.gridding import NaiveGridder, available_gridders
from repro.nufft import NufftPlan
from repro.trajectories import random_trajectory
from tests.conftest import gridding_problem
from tests.test_engine_matrix import DTYPES, assert_cells


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


#: old engine ids -> matrix variants
ENGINES = {
    "columns": "slice_and_dice",
    "blocked": "slice_and_dice+blocked",
    **{name: name for name in available_gridders() if name != "slice_and_dice"},
    "chunk77": "slice_and_dice_compiled+chunk77",
}
GEOMETRY = {2: "w4", 3: "3d"}


class TestBitIdentity:
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_grid_batch_matches_singles(self, ndim, engine):
        """Each cell runs at complex128 and complex64."""
        assert_cells([ENGINES[engine]], DTYPES, geometries=[GEOMETRY[ndim]], checks=["batch"],
                     cells="grid K=3")

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interp_batch_matches_singles(self, ndim, engine):
        """Each cell runs at complex128 and complex64."""
        assert_cells([ENGINES[engine]], DTYPES, geometries=[GEOMETRY[ndim]], checks=["batch"],
                     cells="interp K=3")

    def test_base_class_fallback_is_exact(self):
        """The default loop fallback is K single calls by construction."""
        assert_cells(["naive"], DTYPES, checks=["batch"])

    def test_sparse_matrix_batch(self):
        assert_cells(["sparse_matrix"], DTYPES, checks=["batch"])

    def test_single_vector_promotion(self):
        setup, coords, values, grids = gridding_problem("w4")
        gridder = SliceAndDiceGridder(setup)
        assert gridder.grid_batch(coords, values[0]).shape == (1,) + setup.grid_shape
        assert gridder.interp_batch(grids[0], coords).shape == (1, coords.shape[0])

    def test_batch_shape_validation(self):
        setup, coords, values, _ = gridding_problem("w4")
        gridder = SliceAndDiceGridder(setup)
        with pytest.raises(ValueError, match="values_stack"):
            gridder.grid_batch(coords, values[:, :-1])
        with pytest.raises(ValueError, match="grid_stack"):
            gridder.interp_batch(np.zeros((2, 8, 8), dtype=complex), coords)


class TestTableCache:
    @pytest.mark.parametrize("engine", ["columns", "blocked"])
    def test_same_coords_hits(self, engine):
        setup, coords, values, _ = gridding_problem("w4")
        gridder = SliceAndDiceGridder(setup, engine=engine)
        gridder.grid(coords, values[0])
        assert gridder.stats.cache_misses == 1
        assert gridder.stats.cache_hits == 0
        assert gridder.stats.table_build_seconds > 0.0
        gridder.grid(coords, values[1])
        assert gridder.stats.cache_hits == 1
        assert gridder.stats.cache_misses == 0
        assert gridder.stats.table_build_seconds == 0.0

    def test_same_content_different_object_hits(self):
        """The binding is content-based: a copy of the trajectory (or
        the fresh array ``check_coords`` makes per call) still hits."""
        setup, coords, values, _ = gridding_problem("w4")
        gridder = SliceAndDiceGridder(setup)
        gridder.grid(coords, values[0])
        gridder.grid(coords.copy(), values[1])
        assert gridder.stats.cache_hits == 1

    def test_interp_shares_cache_with_grid(self):
        setup, coords, values, grids = gridding_problem("w4")
        gridder = SliceAndDiceGridder(setup)
        gridder.grid(coords, values[0])
        gridder.interp(grids[0], coords)
        assert gridder.stats.cache_hits == 1

    def test_mutated_coords_miss(self):
        setup, coords, values, _ = gridding_problem("w4")
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
        "columns": "slice_and_dice",
        "blocked": "slice_and_dice+blocked",
        "compiled": "slice_and_dice_compiled",
        "chunked": "slice_and_dice_compiled+chunk5000",
        "sparse": "sparse_matrix",
    }

    @pytest.mark.parametrize("edit", ["new_array", "in_place"])
    @pytest.mark.parametrize("engine", BOUND)
    def test_moved_interior_sample_rebinds(self, engine, edit):
        """One moved interior sample must rebuild: the result is the
        fresh gridder's, not the first trajectory's (both directions)."""
        assert_cells([self.BOUND[engine]], DTYPES, checks=["stale"],
                     cells=edit.replace("_", " "))

    def test_cached_results_identical(self):
        setup, coords, values, _ = gridding_problem("w4")
        warm = SliceAndDiceGridder(setup)
        warm.grid(coords, values[0])  # bind
        assert np.array_equal(
            warm.grid(coords, values[1]),
            SliceAndDiceGridder(setup).grid(coords, values[1]),
        )


class TestBatchStats:
    def test_select_work_charged_once(self):
        """Batched stats: boundary checks / LUT reads are per select
        pass, MACs and grid accesses scale with K."""
        setup, coords, values, _ = gridding_problem("w4")
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

    def test_fallback_stats_sum(self):
        setup, coords, values, _ = gridding_problem("w4")
        gridder = NaiveGridder(setup)
        gridder.grid(coords, values[0])
        single = gridder.stats
        gridder.grid_batch(coords, values)
        assert gridder.stats.boundary_checks == values.shape[0] * single.boundary_checks


class TestBlockedLaneSlots:
    def test_slots_from_per_block_work(self):
        """Lane slots equal the sum over non-empty blocks of
        slice-length x columns — derived from each block's actual scan,
        not the whole-stream formula applied once."""
        setup, coords, values, _ = gridding_problem("w4")
        coords, values = coords[:101], values[:, :101]  # uneven split
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

    def test_columns_engine_unchanged(self):
        setup, coords, values, _ = gridding_problem("w4")
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
