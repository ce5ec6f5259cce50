"""Cross-gridder equivalence and the serial engine's linear-map properties.

The engines' agreement is asserted once, by ``tests/test_engine_matrix.py``:
each engine stands in the relation its claims-table row states to the
serial ``slice_and_dice`` engine (``serial`` cells; the baselines within
``rtol=1e-10``), on uniform, clustered (``"square"``) and tile-edge /
torus-edge (``"edge"``) samples.  Each id below asserts the cells its
name states.  The properties of the serial engine as a linear map stay
here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gridding import GriddingSetup, make_gridder, window_contributions
from repro.kernels import KernelLUT, beatty_kernel
from tests.test_engine_matrix import DTYPES, KERNELS, assert_cells

GRIDDERS = ["naive", "output_parallel", "binning", "slice_and_dice"]

#: the 16x16, W = 4, L = 32 problem of the property tests
SETUP = GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))


@pytest.mark.parametrize("name", GRIDDERS[1:])
class TestPairwise:
    def test_matches_naive_random(self, name):
        assert_cells([name, "naive"], geometries=["1d", "rect", "w4", "w2", "3d"],
                     checks=["serial"])

    def test_matches_naive_clustered(self, name):
        assert_cells([name, "naive"], geometries=["square"], checks=["serial"])

    def test_matches_naive_on_tile_edges(self, name):
        assert_cells([name, "naive"], geometries=["edge"], checks=["serial"])


class TestPropertyBased:
    def test_all_gridders_agree(self):
        assert_cells(GRIDDERS, DTYPES, KERNELS, checks=["serial"])

    def test_adjointness_of_grid_and_interp(self):
        assert_cells(GRIDDERS, DTYPES, KERNELS, checks=["adjoint"])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_gridding_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 16, (20, 2))
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        g = make_gridder("slice_and_dice", SETUP)
        lhs = g.grid(coords, a + 2j * b)
        rhs = g.grid(coords, a) + 2j * g.grid(coords, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shift=st.integers(1, 15))
    def test_translation_equivariance(self, seed, shift):
        """Shifting all samples by an integer grid offset circularly
        shifts the output grid (torus translation symmetry)."""
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 16, (20, 2))
        vals = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        g = make_gridder("slice_and_dice", SETUP)
        base = g.grid(coords, vals)
        moved = g.grid(coords + shift, vals)
        np.testing.assert_allclose(
            moved, np.roll(base, (shift, shift), axis=(0, 1)), rtol=1e-9, atol=1e-10
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_total_mass_conserved(self, seed):
        """sum(grid) == sum_j v_j * (separable weight sums) — no sample
        leaks mass off the torus."""
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 16, (25, 2))
        vals = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        _, wgt = window_contributions(SETUP, coords)
        expect = np.sum(vals * wgt.sum(axis=1))
        out = make_gridder("slice_and_dice", SETUP).grid(coords, vals)
        assert out.sum() == pytest.approx(expect, rel=1e-9)
