"""Cross-gridder equivalence — the central correctness invariant.

DESIGN.md: all four gridders (and the JIGSAW functional simulator up to
fixed-point quantization) must produce identical grids for identical
inputs.  Property-based tests drive this across random problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gridding import GriddingSetup, available_gridders, make_gridder
from repro.kernels import KernelLUT, beatty_kernel
from tests.conftest import random_samples

GRIDDERS = [
    "naive",
    "output_parallel",
    "binning",
    "slice_and_dice",
]


def build_setup(g: int, w: int, lut_l: int = 64) -> GriddingSetup:
    return GriddingSetup((g, g), KernelLUT(beatty_kernel(w, 2.0), lut_l))


@pytest.mark.parametrize("name", GRIDDERS[1:])
class TestPairwise:
    def test_matches_naive_random(self, name, rng):
        setup = build_setup(32, 6)
        coords, vals = random_samples(rng, 300, (32, 32))
        ref = make_gridder("naive", setup).grid(coords, vals)
        out = make_gridder(name, setup).grid(coords, vals)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_matches_naive_clustered(self, name, rng):
        """Clustered samples (rosette-like center hot spot) stress
        duplicate/bin handling."""
        setup = build_setup(32, 6)
        coords = 16 + rng.standard_normal((200, 2)) * 1.5
        vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        ref = make_gridder("naive", setup).grid(coords, vals)
        out = make_gridder(name, setup).grid(coords, vals)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_matches_naive_on_tile_edges(self, name):
        """Samples exactly on tile boundaries are the classic off-by-one
        trap for binning and decomposition arithmetic."""
        setup = build_setup(32, 6)
        edges = np.asarray(
            [[8.0, 8.0], [16.0, 0.0], [0.0, 24.0], [31.999, 31.999], [8.0, 15.5]]
        )
        vals = np.ones(len(edges), dtype=complex)
        ref = make_gridder("naive", setup).grid(edges, vals)
        out = make_gridder(name, setup).grid(edges, vals)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 60),
        w=st.sampled_from([2, 4, 6, 8]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_all_gridders_agree(self, m, w, seed):
        rng = np.random.default_rng(seed)
        setup = build_setup(16, w, lut_l=32)
        coords = rng.uniform(0, 16, (m, 2))
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        grids = {}
        for name in GRIDDERS:
            kwargs = {"tile_size": 8} if name in ("binning", "slice_and_dice") else {}
            grids[name] = make_gridder(name, setup, **kwargs).grid(coords, vals)
        ref = grids["naive"]
        for name in GRIDDERS[1:]:
            np.testing.assert_allclose(grids[name], ref, rtol=1e-9, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_gridding_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        setup = build_setup(16, 4, lut_l=32)
        coords = rng.uniform(0, 16, (20, 2))
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        g = make_gridder("slice_and_dice", setup)
        lhs = g.grid(coords, a + 2j * b)
        rhs = g.grid(coords, a) + 2j * g.grid(coords, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shift=st.integers(1, 15))
    def test_translation_equivariance(self, seed, shift):
        """Shifting all samples by an integer grid offset circularly
        shifts the output grid (torus translation symmetry)."""
        rng = np.random.default_rng(seed)
        setup = build_setup(16, 4, lut_l=32)
        coords = rng.uniform(0, 16, (20, 2))
        vals = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        g = make_gridder("slice_and_dice", setup)
        base = g.grid(coords, vals)
        moved = g.grid(coords + shift, vals)
        np.testing.assert_allclose(
            moved, np.roll(base, (shift, shift), axis=(0, 1)), rtol=1e-9, atol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_adjointness_of_grid_and_interp(self, seed):
        """<grid(v), g> == <v, interp(g)> for every gridder (they share
        interp, so checking one pair per gridder covers the matrix
        transpose identity)."""
        rng = np.random.default_rng(seed)
        setup = build_setup(16, 4, lut_l=32)
        coords = rng.uniform(0, 16, (15, 2))
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        g_img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        gr = make_gridder("naive", setup)
        lhs = np.vdot(g_img, gr.grid(coords, v))
        rhs = np.vdot(gr.interp(g_img.conj().conj(), coords), v).conjugate()
        assert abs(lhs - rhs.conjugate()) < 1e-9 * max(abs(lhs), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_total_mass_conserved(self, seed):
        """sum(grid) == sum_j v_j * (separable weight sums) — no sample
        leaks mass off the torus."""
        rng = np.random.default_rng(seed)
        setup = build_setup(16, 4, lut_l=32)
        coords = rng.uniform(0, 16, (25, 2))
        vals = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        from repro.gridding import window_contributions

        _, wgt = window_contributions(setup, coords)
        expect = np.sum(vals * wgt.sum(axis=1))
        out = make_gridder("slice_and_dice", setup).grid(coords, vals)
        assert out.sum() == pytest.approx(expect, rel=1e-9)
