"""Ablation — streamed chunked gridding: the memory bound.

Gridding a large trajectory in fixed-size chunks (the compiled engine's
``chunk_samples=`` mode) keeps the transient high water near
``O(chunk + grid)`` instead of the one-shot engines' ``O(M * W^d)``
plan residency, while staying bit-identical to the one-shot compiled
engine at any chunk size.  The table is *recorded*
(printed) on every machine.  The process-level bound is perfbench's
``stream_adjoint`` workload (2^20 samples in 16 chunks), whose
``peak_rss_mb`` CI caps at 700 MB.
"""

import numpy as np

from repro.gridding import GriddingSetup
from repro.gridding.registry import make_gridder
from repro.kernels import KernelLUT, beatty_kernel
from repro.trajectories import random_trajectory

from conftest import print_table

G = 256
M = 2_000_000
CHUNKS = (16_384, 65_536, 262_144)


def _problem():
    setup = GriddingSetup((G, G), KernelLUT(beatty_kernel(6, 2.0), 32))
    coords = np.mod(random_trajectory(M, 2, rng=0), 1.0) * G
    rng = np.random.default_rng(7)
    values = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return setup, coords, values


def test_streaming_memory_bound():
    """Peak transient bytes shrink with the chunk size and sit far
    below the one-shot compiled plan's residency, at identical bits."""
    setup, coords, values = _problem()
    one_shot = make_gridder("slice_and_dice_compiled", setup)
    ref = one_shot.grid(coords, values)
    one_shot_peak = one_shot.stats.peak_bytes

    rows = [
        [
            "one-shot compiled",
            "-",
            "1",
            f"{one_shot_peak / 1e6:.1f}",
            "1.00x",
        ]
    ]
    peaks = {}
    for chunk in CHUNKS:
        g = make_gridder("slice_and_dice_compiled", setup, chunk_samples=chunk)
        out = g.grid(coords, values)
        # the memory saving must be of the same bits (the in-place
        # accumulate continues the one-shot partial-sum chains)
        assert np.array_equal(out, ref)
        peaks[chunk] = g.stats.peak_bytes
        rows.append(
            [
                "chunked compiled",
                str(chunk),
                str(g.stats.chunks),
                f"{peaks[chunk] / 1e6:.1f}",
                f"{one_shot_peak / peaks[chunk]:.2f}x",
            ]
        )
    print_table(
        f"Streamed gridding memory high water, {G}x{G}, M={M}",
        ["engine", "chunk", "chunks", "peak (MB)", "reduction"],
        rows,
    )
    # monotone: smaller chunks -> lower high water, and every streamed
    # configuration undercuts the one-shot plan residency
    assert peaks[CHUNKS[0]] <= peaks[CHUNKS[-1]]
    assert peaks[CHUNKS[-1]] < one_shot_peak

