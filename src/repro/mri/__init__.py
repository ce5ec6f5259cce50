"""Multi-coil MRI acquisition and reconstruction substrate.

The paper's title domain is *MRI image reconstruction*; modern scanners
acquire with arrays of receive coils, and the "model-based image
reconstruction" the paper cites ([5]) solves a multi-coil inverse
problem whose inner loop is NuFFT pairs — one per coil per iteration.
This package supplies that workload:

- :mod:`~repro.mri.coils` — synthetic complex coil-sensitivity maps
  (smooth, localized, SOS-normalized) standing in for calibration data;
- :class:`~repro.mri.SenseOperator` — the multi-coil encoding operator
  ``y_c = NuFFT(S_c * x)`` with its exact adjoint;
- :func:`~repro.mri.sense_reconstruction` — CG-SENSE (Pruessmann-style
  iterative reconstruction on the normal equations), run by the same CG
  loop as :func:`repro.recon.cg_reconstruction` and returning its
  :class:`~repro.recon.CgResult`;
- :class:`~repro.mri.Acquisition` — a small container bundling
  trajectory, k-space data, and metadata with ``.npz`` round-tripping.
"""

from .coils import birdcage_maps, sos_normalize
from .sense import SenseOperator, sense_reconstruction, coil_combine_adjoint
from .acquisition import Acquisition
from .realtime import RealtimeScenario, frame_rate_fps, keeps_up

__all__ = [
    "birdcage_maps",
    "sos_normalize",
    "SenseOperator",
    "sense_reconstruction",
    "coil_combine_adjoint",
    "Acquisition",
    "RealtimeScenario",
    "frame_rate_fps",
    "keeps_up",
]
