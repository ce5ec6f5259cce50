"""Impatient-strategy ablation — Toeplitz vs per-iteration gridding.

Impatient [10] avoids per-iteration gridding in CG by embedding the
Gram operator as a circulant convolution (two 2N FFTs).  We measure
both CG variants: identical images, and the Toeplitz path's
per-iteration cost free of gridding — the structural reason binning's
slow gridding was survivable for iterative recon, and why JIGSAW's
fast gridding also accelerates the Toeplitz setup itself.
"""

import time

import numpy as np
import pytest

from repro.nufft import NufftPlan, ToeplitzNormalOperator
from repro.phantoms import shepp_logan_2d
from repro.recon import cg_reconstruction, rel_l2_error
from repro.trajectories import golden_angle_radial

from conftest import print_table

N = 48


@pytest.fixture(scope="module")
def problem():
    phantom = shepp_logan_2d(N).astype(complex)
    coords = golden_angle_radial(2 * N, 2 * N)
    plan = NufftPlan((N, N), coords, width=6, table_oversampling=128)
    kspace = plan.forward(phantom)
    return plan, phantom, kspace


def test_toeplitz_equals_gridding_cg(problem):
    plan, phantom, kspace = problem
    direct = cg_reconstruction(plan, kspace, n_iterations=10)
    toep = cg_reconstruction(plan, kspace, n_iterations=10, normal="toeplitz")
    err = rel_l2_error(toep.image, direct.image)
    print_table(
        "CG reconstruction: gridding-per-iteration vs Toeplitz",
        ["variant", "final residual", "image delta vs direct"],
        [
            ["gridded Gram", f"{direct.residual_norms[-1]:.2e}", "-"],
            ["Toeplitz Gram", f"{toep.residual_norms[-1]:.2e}", f"{err:.2e}"],
        ],
    )
    assert err < 0.02


def test_per_iteration_costs(problem, benchmark):
    plan, _, kspace = problem
    gram = ToeplitzNormalOperator(plan)
    x = np.ones((N, N), dtype=complex)
    benchmark.group = "gram-application"
    benchmark.pedantic(gram.apply, args=(x,), rounds=5, iterations=1)


def test_per_iteration_gridded_cost(problem, benchmark):
    plan, _, kspace = problem
    x = np.ones((N, N), dtype=complex)
    benchmark.group = "gram-application"
    benchmark.pedantic(
        lambda: plan.adjoint(plan.forward(x)), rounds=5, iterations=1
    )


def test_toeplitz_amortizes_gridding(problem):
    """Setup pays 2^d adjoint NuFFTs on the plan itself (one per lag
    block of the 2N embedding); iterations are FFT-only.  For >= a few
    iterations the Toeplitz path wins wall-clock."""
    plan, _, kspace = problem
    n_iter = 10

    t0 = time.perf_counter()
    cg_reconstruction(plan, kspace, n_iterations=n_iter)
    t_direct = time.perf_counter() - t0

    t0 = time.perf_counter()
    cg_reconstruction(plan, kspace, n_iterations=n_iter, normal="toeplitz")
    t_toep = time.perf_counter() - t0

    print_table(
        f"CG wall-clock, {n_iter} iterations",
        ["variant", "seconds"],
        [["gridded", f"{t_direct:.3f}"], ["toeplitz", f"{t_toep:.3f}"]],
    )
    # allow generous slack: both are fast at this size, but toeplitz
    # must not be dramatically slower
    assert t_toep < 2.0 * t_direct


def test_toeplitz_beats_compiled_csr_cg_at_scale():
    """The headline fast-path gate: on a 256^2 radial problem the
    Toeplitz normal operator makes a 10-iteration CG solve at least 2x
    faster than per-iteration gridding on the compiled-CSR engine —
    the repo's fastest gridder — while reconstructing the same image
    to the plans' approximation accuracy."""
    from repro.trajectories import radial_trajectory

    n = 256
    coords = radial_trajectory(402, 512)
    plan = NufftPlan(
        (n, n),
        coords,
        gridder="slice_and_dice_compiled",
    )
    m = coords.shape[0]
    kspace = np.exp(2j * np.pi * np.arange(m) / 11)
    w = np.ones(m)
    # warm the compiled scatter plan + buffer pool in both directions
    plan.adjoint(kspace)
    plan.forward(np.zeros((n, n), dtype=complex))

    def best_of(fn, repeats=2):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_grid, r_grid = best_of(
        lambda: cg_reconstruction(plan, kspace, w, n_iterations=10, tolerance=1e-30)
    )
    t_toep, r_toep = best_of(
        lambda: cg_reconstruction(
            plan, kspace, w, n_iterations=10, tolerance=1e-30, normal="toeplitz"
        )
    )
    speedup = t_grid / t_toep
    scale = np.max(np.abs(r_grid.image))
    delta = np.max(np.abs(r_grid.image - r_toep.image)) / scale
    print_table(
        "10-iteration CG at 256^2 radial (M=205824)",
        ["variant", "seconds", "speedup", "image delta"],
        [
            ["compiled-CSR gridding", f"{t_grid:.3f}", "1.00x", "-"],
            ["toeplitz", f"{t_toep:.3f}", f"{speedup:.2f}x", f"{delta:.2e}"],
        ],
    )
    # same reconstruction (up to the two operators' shared NuFFT
    # approximation error, table-limited at default settings)
    assert delta < 2e-3
    assert speedup >= 2.0
