"""Ablation — batched multi-RHS gridding and the select-table binding.

The paper's end-to-end workloads (Fig. 7, §VI) grid many value vectors
over one fixed trajectory: one per coil per CG iteration.  Two
amortizations target that shape:

- ``grid_batch`` runs the per-column select gather once and repeats
  only the per-RHS ``bincount`` accumulate, vs the K-loop baseline
  which redoes the select work K times;
- the gridder's trajectory binding skips the ``M*T*d`` select-table
  build on every repeat call (every CG iteration after the first).

This benchmark measures both effects and prints the observed stats so
the benefit is measured, not asserted.  A cold call runs on a fresh
gridder, which has no tables bound.  Acceptance: batched K=8 must be
>= 2x the K-loop baseline of one fresh gridder per call.
"""

import time

import numpy as np

from repro.core import SliceAndDiceGridder
from repro.gridding import GriddingSetup
from repro.kernels import KernelLUT, beatty_kernel
from repro.trajectories import random_trajectory

from conftest import print_table

G = 128
M = 4000
K = 8  # coils


def _problem(engine: str):
    setup = GriddingSetup((G, G), KernelLUT(beatty_kernel(6, 2.0), 32))
    coords = np.mod(random_trajectory(M, 2, rng=0), 1.0) * G
    rng = np.random.default_rng(7)
    values = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    def new_gridder():
        return SliceAndDiceGridder(setup, tile_size=8, engine=engine)

    return new_gridder, coords, values


def _time(fn, repeats: int = 5) -> float:
    """Best-of-N wall clock with one untimed warm-up (allocator, caches)."""
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_multi_rhs_speedup():
    """Batched K=8 gridding vs the cold K-loop baseline (>= 2x)."""
    rows = []
    ratios = {}
    for engine in ("columns", "blocked"):
        new_gridder, coords, values = _problem(engine)

        def loop_baseline():
            for k in range(K):
                # a fresh gridder per call pays the table build per call
                new_gridder().grid(coords, values[k])

        def batched():
            new_gridder().grid_batch(coords, values)  # one build for the batch

        t_loop = _time(loop_baseline)
        t_batch = _time(batched)
        ratios[engine] = t_loop / t_batch
        rows.append(
            [engine, K, f"{t_loop * 1e3:.1f}", f"{t_batch * 1e3:.1f}",
             f"{t_loop / t_batch:.2f}x"]
        )
    print_table(
        f"Batched multi-RHS gridding, K={K} coils, M={M}, {G}x{G}",
        ["engine", "K", "K-loop (ms)", "batched (ms)", "speedup"],
        rows,
    )
    # the select gather dominates the per-RHS bincount, so batching all
    # K coils through one gather must at least halve the wall clock
    assert ratios["columns"] >= 2.0, f"batched speedup {ratios['columns']:.2f}x < 2x"


def test_table_cache_hit_speedup():
    """Repeat calls on a fixed trajectory skip the table build."""
    new_gridder, coords, values = _problem("columns")
    gridder = None

    def cold():
        nonlocal gridder
        gridder = new_gridder()
        gridder.grid(coords, values[0])

    t_cold = _time(cold)
    build = gridder.stats.table_build_seconds
    assert gridder.stats.cache_misses == 1

    # the last cold call bound the tables
    t_warm = _time(lambda: gridder.grid(coords, values[0]))
    assert gridder.stats.cache_hits == 1
    assert gridder.stats.table_build_seconds == 0.0

    print_table(
        f"Table cache, fixed trajectory, M={M}, {G}x{G}",
        ["call", "time (ms)", "table build (ms)", "cache"],
        [
            ["cold", f"{t_cold * 1e3:.1f}", f"{build * 1e3:.1f}", "miss"],
            ["warm", f"{t_warm * 1e3:.1f}", "0.0", "hit"],
        ],
    )
    assert t_warm < t_cold


def test_cg_iteration_amortization():
    """A simulated CG loop (many grids, one trajectory) amortizes one
    table build across all iterations; total build time is that of a
    single cold call."""
    new_gridder, coords, values = _problem("columns")
    gridder = new_gridder()
    n_iter = 6
    total_build = 0.0
    hits = 0
    for it in range(n_iter):
        gridder.grid_batch(coords, values)
        total_build += gridder.stats.table_build_seconds
        hits += gridder.stats.cache_hits
    assert hits == n_iter - 1
    fresh = new_gridder()
    fresh.grid(coords, values[0])
    one_build = fresh.stats.table_build_seconds
    print_table(
        f"CG-style loop, {n_iter} batched iterations",
        ["iterations", "cache hits", "total build (ms)", "single build (ms)"],
        [[n_iter, hits, f"{total_build * 1e3:.1f}", f"{one_build * 1e3:.1f}"]],
    )
    # all but the first iteration reuse the tables
    assert total_build < 3.0 * one_build
