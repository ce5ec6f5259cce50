"""Use the JIGSAW simulator as a NuFFT gridding backend.

:class:`JigsawGridder` wraps the bit-accurate functional simulator in
the standard :class:`~repro.gridding.base.Gridder` interface, so the
full hardware-in-the-loop NuFFT is one line:

    lut = KernelLUT(beatty_kernel(6, 2.0), 32)
    plan = NufftPlan((N, N), coords, width=6, table_oversampling=32,
                     gridder=JigsawGridder.for_problem(2 * N, lut))

mirroring the paper's system integration (§IV): the host streams
samples to the accelerator, reads the gridded target back, and runs
the FFT + apodization itself.  The adapter records the accelerator-side
cycle count and energy of the most recent pass.

The forward (interpolation) direction has no hardware unit in JIGSAW —
the paper evaluates the adjoint NuFFT — so ``interp`` falls back to
the software gather (double precision), which is what a host-side
regridding would do.
"""

from __future__ import annotations

import numpy as np

from ..gridding.base import Gridder, GriddingStats, GriddingSetup
from ..kernels import KernelLUT
from .config import JigsawConfig
from .simulator import GriddingResult, JigsawSimulator
from .synthesis import jigsaw_energy

__all__ = ["JigsawGridder"]


class JigsawGridder(Gridder):
    """Gridder backed by the JIGSAW 2-D functional simulator.

    Parameters
    ----------
    setup:
        Problem description; the grid must be square with dimensions in
        Table I's range, and the LUT's width/oversampling must be
        hardware-legal (``W <= 8``, ``L`` a power of two ``<= 64``).
    config:
        Optional explicit :class:`JigsawConfig`; derived from ``setup``
        when omitted.
    """

    name = "jigsaw"

    def __init__(self, setup: GriddingSetup, config: JigsawConfig | None = None):
        super().__init__(setup)
        if setup.ndim != 2 or setup.grid_shape[0] != setup.grid_shape[1]:
            raise ValueError(
                f"JIGSAW 2D needs a square 2-D grid, got {setup.grid_shape}"
            )
        if config is None:
            config = JigsawConfig(
                grid_dim=setup.grid_shape[0],
                window_width=setup.width,
                table_oversampling=setup.lut.oversampling,
            )
        else:
            if config.grid_dim != setup.grid_shape[0]:
                raise ValueError(
                    f"config grid_dim {config.grid_dim} != setup grid "
                    f"{setup.grid_shape[0]}"
                )
            if config.window_width != setup.width:
                raise ValueError(
                    f"config window {config.window_width} != setup width {setup.width}"
                )
        self.config = config
        self.simulator = JigsawSimulator(config, kernel=setup.lut.kernel)
        #: full result (cycles, SRAM counts, ...) of the latest pass
        self.last_result: GriddingResult | None = None

    @classmethod
    def for_problem(
        cls, grid_dim: int, kernel_lut: KernelLUT
    ) -> "JigsawGridder":
        """Convenience constructor from a grid size and kernel table."""
        return cls(GriddingSetup((grid_dim, grid_dim), kernel_lut))

    # ------------------------------------------------------------------
    def _grid_impl(self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray) -> None:
        result = self.simulator.grid_2d(coords, values)
        self.last_result = result
        grid += result.grid
        m = coords.shape[0]
        self.stats = GriddingStats(
            boundary_checks=result.boundary_checks,
            interpolations=result.interpolations,
            samples_processed=m,
            presort_operations=0,
            grid_accesses=result.accumulator_reads + result.accumulator_writes,
            lut_lookups=result.weight_sram_reads,
        )

    # ------------------------------------------------------------------
    @property
    def last_cycles(self) -> int:
        """Accelerator cycles of the most recent gridding pass."""
        if self.last_result is None:
            raise RuntimeError("no gridding pass has run yet")
        return self.last_result.cycles

    @property
    def last_energy_joules(self) -> float:
        """Gridding energy of the most recent pass (synthesis model)."""
        if self.last_result is None:
            raise RuntimeError("no gridding pass has run yet")
        m = self.last_result.cycles - self.config.pipeline_depth
        return jigsaw_energy(m, self.config)
