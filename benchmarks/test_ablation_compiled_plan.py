"""Ablation — the trajectory-compiled scatter plan (plan-hit speedup).

The compiled engine runs the table-driven select once per trajectory
and keeps its ``M * W^d`` sample-major entries as a plan, which doubles
as a CSR matrix.  Every later call is one SciPy sparse mat-vec per RHS
(``backend="csr"``, the default without numba, at both precisions).
The payoff case is any workload that applies one trajectory
repeatedly — every CG iteration and SENSE coil pass after the first.

Bars:

- warm (plan-hit) csr gridding must be >= 5x the serial engine at
  M = 65536, 256^2 grid, W = 4 (SciPy's C loop fuses the gather,
  multiply and scatter into one pass);
- a 10-iteration CG reconstruction (default lane) must be >= 2x
  end-to-end;
- the csr lane is bit-identical (``np.array_equal``) to the serial
  engine at complex128, on the full problem.
"""

import time

import numpy as np

from repro.core import CompiledSliceAndDiceGridder, SliceAndDiceGridder
from repro.gridding import GriddingSetup
from repro.kernels import KernelLUT, beatty_kernel
from repro.trajectories import random_trajectory

from conftest import print_table

G = 256
M = 65536
W = 4


def _problem():
    setup = GriddingSetup((G, G), KernelLUT(beatty_kernel(W, 2.0), 64))
    coords = np.mod(random_trajectory(M, 2, rng=0), 1.0) * G
    rng = np.random.default_rng(7)
    values = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return setup, coords, values


def _time(fn, repeats: int = 5) -> float:
    """Best-of-N wall clock with one untimed warm-up (allocator, caches)."""
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_plan_hit_gridding_speedup():
    """Warm compiled gridding vs warm serial gridding (>= 5x)."""
    setup, coords, values = _problem()
    ser = SliceAndDiceGridder(setup)
    csr = CompiledSliceAndDiceGridder(setup, backend="csr")

    # equivalence first (on the full problem, not a toy)
    ref = ser.grid(coords, values)
    assert np.array_equal(csr.grid(coords, values), ref)

    fresh = CompiledSliceAndDiceGridder(setup, backend="csr")
    t0 = time.perf_counter()
    fresh.grid(coords, values)  # cold: compile
    cold = time.perf_counter() - t0
    # warm paths: serial hits its table cache, compiled hits its plan
    serial_warm = _time(lambda: ser.grid(coords, values))
    csr_warm = _time(lambda: csr.grid(coords, values))
    assert csr.stats.cache_hits == 1 and csr.stats.boundary_checks == 0
    interp_serial = _time(lambda: ser.interp(ref, coords))
    interp_csr = _time(lambda: csr.interp(ref, coords))

    speedup = serial_warm / csr_warm
    print_table(
        f"Compiled scatter plan — M={M}, grid {G}^2, W={W} (plan_nnz={csr.stats.plan_nnz})",
        ["path", "seconds", "vs serial warm"],
        [
            ["serial grid (warm tables)", f"{serial_warm:.4f}", "1.0x"],
            ["csr grid (cold, incl. compile)", f"{cold:.4f}",
             f"{serial_warm / cold:.1f}x"],
            ["csr grid (plan hit)", f"{csr_warm:.4f}", f"{speedup:.1f}x"],
            ["serial interp (warm)", f"{interp_serial:.4f}", "-"],
            ["csr interp (plan hit)", f"{interp_csr:.4f}",
             f"{interp_serial / interp_csr:.1f}x"],
        ],
    )
    assert speedup >= 5.0, (
        f"plan-hit csr gridding only {speedup:.1f}x vs serial warm "
        f"({csr_warm:.4f}s vs {serial_warm:.4f}s)"
    )


def test_cg_end_to_end_speedup():
    """10-iteration CG reconstruction, compiled vs serial (>= 2x)."""
    from repro.nufft import NufftPlan
    from repro.recon import cg_reconstruction
    from repro.trajectories import radial_trajectory

    n = G // 2  # image side; oversampling 2.0 -> the G^2 gridding grid
    coords = radial_trajectory(M // n, n)
    rng = np.random.default_rng(3)
    kspace = rng.standard_normal(coords.shape[0]) + 1j * rng.standard_normal(
        coords.shape[0]
    )

    def run(gridder: str):
        plan = NufftPlan((n, n), coords, width=W, gridder=gridder)
        t0 = time.perf_counter()
        # tolerance tiny-but-positive: never converges early, so both
        # engines run all 10 iterations
        result = cg_reconstruction(plan, kspace, n_iterations=10, tolerance=1e-30)
        return time.perf_counter() - t0, result.image

    serial_s, serial_img = run("slice_and_dice")
    compiled_s, compiled_img = run("slice_and_dice_compiled")
    assert np.array_equal(compiled_img, serial_img)  # same iterates, same bits

    speedup = serial_s / compiled_s
    print_table(
        f"CG x10 end-to-end — {n}^2 image, M={coords.shape[0]}, W={W}",
        ["engine", "seconds", "speedup"],
        [
            ["slice_and_dice", f"{serial_s:.3f}", "1.0x"],
            ["slice_and_dice_compiled", f"{compiled_s:.3f}", f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 2.0, (
        f"CG end-to-end only {speedup:.1f}x ({compiled_s:.3f}s vs {serial_s:.3f}s)"
    )
