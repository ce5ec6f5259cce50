"""repro — reproduction of *Jigsaw: A Slice-and-Dice Approach to
Non-uniform FFT Acceleration for MRI Image Reconstruction* (West,
Fessler, Wenisch — IPDPS 2021).

Quick start::

    import numpy as np
    from repro import NufftPlan, golden_angle_radial, shepp_logan_2d

    coords = golden_angle_radial(n_spokes=128, n_readout=256)
    plan = NufftPlan((128, 128), coords, gridder="slice_and_dice")
    kspace = plan.forward(shepp_logan_2d(128).astype(complex))
    image = plan.adjoint(kspace)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — Slice-and-Dice gridding (the paper's contribution)
- :mod:`repro.gridding` — baseline gridders (naive / output-parallel /
  binning) with instrumentation
- :mod:`repro.nufft`, :mod:`repro.nudft` — the NuFFT pipeline and its
  exact reference
- :mod:`repro.kernels`, :mod:`repro.trajectories`, :mod:`repro.phantoms`
  — interpolation windows, sampling patterns, test images
- :mod:`repro.jigsaw` — the bit-/cycle-accurate ASIC model
- :mod:`repro.fixedpoint` — Q-format arithmetic substrate
- :mod:`repro.perfmodel` — calibrated testbed performance models
- :mod:`repro.recon` — adjoint & CG reconstruction
- :mod:`repro.errors`, :mod:`repro.robustness` — typed failure
  taxonomy, input-quality gates, and the deterministic fault-injection
  harness (see docs/robustness.md)
- :mod:`repro.bench` — datasets and paper reference numbers
- :mod:`repro.service` — reconstruction-as-a-service: async job API,
  warm-cache worker pool, stdlib HTTP front end (see docs/service.md;
  imported lazily — ``from repro.service import ReconServer``)
"""

from .core import SliceAndDiceGridder, DiceLayout
from .errors import (
    ReproError,
    CoordinateError,
    DataQualityError,
    EngineFailure,
    BackendFailure,
    SolverBreakdown,
    ServiceOverloaded,
    DegradationEvent,
)
from .robustness import DataQualityReport, inject_faults
from .gridding import (
    Gridder,
    GriddingSetup,
    GriddingStats,
    NaiveGridder,
    OutputParallelGridder,
    BinningGridder,
    available_gridders,
    make_gridder,
)
from .kernels import (
    KernelLUT,
    KaiserBesselKernel,
    GaussianKernel,
    make_kernel,
    beatty_beta,
    beatty_kernel,
)
from .nudft import nudft_forward, nudft_adjoint, NudftOperator
from .nufft import (
    NufftPlan,
    ToeplitzNormalOperator,
    available_fft_backends,
    get_fft_backend,
)
from .jigsaw import JigsawConfig, JigsawSimulator
from .trajectories import (
    radial_trajectory,
    golden_angle_radial,
    spiral_trajectory,
    random_trajectory,
    cartesian_trajectory,
)
from .phantoms import shepp_logan_2d, liver_like_phantom
from .recon import adjoint_reconstruction, cg_reconstruction, nrmsd, nrmsd_percent
from .selfcheck import run_self_check

__version__ = "1.0.0"

__all__ = [
    "SliceAndDiceGridder",
    "DiceLayout",
    "ReproError",
    "CoordinateError",
    "DataQualityError",
    "EngineFailure",
    "BackendFailure",
    "SolverBreakdown",
    "ServiceOverloaded",
    "DegradationEvent",
    "DataQualityReport",
    "inject_faults",
    "Gridder",
    "GriddingSetup",
    "GriddingStats",
    "NaiveGridder",
    "OutputParallelGridder",
    "BinningGridder",
    "available_gridders",
    "make_gridder",
    "KernelLUT",
    "KaiserBesselKernel",
    "GaussianKernel",
    "make_kernel",
    "beatty_beta",
    "beatty_kernel",
    "nudft_forward",
    "nudft_adjoint",
    "NudftOperator",
    "NufftPlan",
    "ToeplitzNormalOperator",
    "available_fft_backends",
    "get_fft_backend",
    "JigsawConfig",
    "JigsawSimulator",
    "radial_trajectory",
    "golden_angle_radial",
    "spiral_trajectory",
    "random_trajectory",
    "cartesian_trajectory",
    "shepp_logan_2d",
    "liver_like_phantom",
    "adjoint_reconstruction",
    "cg_reconstruction",
    "nrmsd",
    "nrmsd_percent",
    "run_self_check",
    "__version__",
]
