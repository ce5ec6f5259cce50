"""The Non-uniform FFT: gridding + FFT + apodization (§II.B).

:class:`NufftPlan` assembles the three NuFFT steps over any registered
gridding backend:

- adjoint (type-1): **gridding** -> oversampled FFT -> crop ->
  **de-apodization**  (non-uniform samples -> image),
- forward (type-2): **de-apodization** -> zero-pad -> FFT ->
  **interpolation** (image -> non-uniform samples),

with per-step timing so benchmarks can reproduce the paper's headline
"gridding is >= 99.6 % of NuFFT time" measurement and the Fig. 7
end-to-end comparisons.

:mod:`~repro.nufft.toeplitz` implements the Toeplitz-embedding
evaluation of the normal operator ``A^H W A`` used by the Impatient
baseline [10] for iterative reconstruction, and
:mod:`~repro.nufft.fft_backend` the pluggable FFT backends (numpy /
multithreaded scipy / optional pyfftw) the plans route their
oversampled-grid transforms through.
"""

from .fft_backend import (
    FallbackFftBackend,
    FftBackend,
    GridBufferPool,
    available_fft_backends,
    fft_backend_available,
    get_fft_backend,
    register_fft_backend,
)
from .plan import NufftPlan, NufftTimings
from .toeplitz import ToeplitzNormalOperator
from .minmax import MinMaxNufftPlan

__all__ = [
    "NufftPlan",
    "NufftTimings",
    "ToeplitzNormalOperator",
    "MinMaxNufftPlan",
    "FallbackFftBackend",
    "FftBackend",
    "GridBufferPool",
    "available_fft_backends",
    "fft_backend_available",
    "get_fft_backend",
    "register_fft_backend",
]
