"""Ablation — the trajectory-compiled scatter plan (plan-hit speedup).

The compiled engine runs the table-driven select once per trajectory
and keeps its ``M * W^d`` sample-major entries as a plan, which doubles
as a CSR matrix.  Every later call is one SciPy sparse mat-vec per RHS
(the complex128 default, ``backend="csr"``) or a gather plus
``bincount`` accumulates (``backend="bincount"``, the complex64
default).  The payoff case is any workload that applies one trajectory
repeatedly — every CG iteration and SENSE coil pass after the first.

Bars:

- warm (plan-hit) gridding must be >= 5x the serial engine at
  M = 65536, 256^2 grid, W = 4 (the CSR lane's fused
  gather-multiply-scatter loop is the one meant to clear this; the
  pure-numpy bincount lane has a >= 2x floor — numpy cannot fuse the
  gather, multiply, and scatter into one pass, so it pays ~3x the
  memory traffic of SciPy's C loop);
- a 10-iteration CG reconstruction (default lane) must be >= 2x
  end-to-end;
- both lanes are bit-identical (``np.array_equal``) to the serial
  engine at complex128.
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
    com = CompiledSliceAndDiceGridder(setup, backend="bincount")

    # equivalence first (on the full problem, not a toy)
    ref = ser.grid(coords, values)
    assert np.array_equal(com.grid(coords, values), ref)
    csr = CompiledSliceAndDiceGridder(setup, backend="csr")
    assert np.array_equal(csr.grid(coords, values), ref)

    t0 = time.perf_counter()
    CompiledSliceAndDiceGridder(setup).grid(coords, values)  # cold: compile
    cold = time.perf_counter() - t0
    # warm paths: serial hits its table cache, compiled hits its plan
    serial_warm = _time(lambda: ser.grid(coords, values))
    compiled_warm = _time(lambda: com.grid(coords, values))
    assert com.stats.cache_hits == 1 and com.stats.boundary_checks == 0
    csr_warm = _time(lambda: csr.grid(coords, values))
    interp_serial = _time(lambda: ser.interp(ref, coords))
    interp_compiled = _time(lambda: com.interp(ref, coords))

    bincount_speedup = serial_warm / compiled_warm
    csr_speedup = serial_warm / csr_warm
    speedup = max(bincount_speedup, csr_speedup)
    print_table(
        f"Compiled scatter plan — M={M}, grid {G}^2, W={W} (plan_nnz={com.stats.plan_nnz})",
        ["path", "seconds", "vs serial warm"],
        [
            ["serial grid (warm tables)", f"{serial_warm:.4f}", "1.0x"],
            ["compiled grid (cold, incl. compile)", f"{cold:.4f}",
             f"{serial_warm / cold:.1f}x"],
            ["bincount grid (plan hit)", f"{compiled_warm:.4f}",
             f"{bincount_speedup:.1f}x"],
            ["csr grid (plan hit)", f"{csr_warm:.4f}", f"{csr_speedup:.1f}x"],
            ["serial interp (warm)", f"{interp_serial:.4f}", "-"],
            ["bincount interp (plan hit)", f"{interp_compiled:.4f}",
             f"{interp_serial / interp_compiled:.1f}x"],
        ],
    )
    assert speedup >= 5.0, (
        f"plan-hit gridding only {speedup:.1f}x vs serial warm "
        f"(compiled {compiled_warm:.4f}s / csr {csr_warm:.4f}s "
        f"vs {serial_warm:.4f}s)"
    )
    assert bincount_speedup >= 2.0, (
        f"bincount backend only {bincount_speedup:.1f}x vs serial warm "
        f"({compiled_warm:.4f}s vs {serial_warm:.4f}s)"
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
