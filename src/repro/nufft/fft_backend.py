"""Pluggable multithreaded FFT backends for the NuFFT host stage.

The paper's own Amdahl analysis (§VII, Fig. 7) is the motivation: once
gridding is accelerated, the *host FFT* dominates end-to-end NuFFT
time — on JIGSAW the FFT becomes ~75 % of the transform.  This module
makes that stage swappable:

``numpy``
    :func:`numpy.fft.fftn` — always available, single-threaded, and
    the bit-compatibility reference for every equivalence test.
``scipy``
    :func:`scipy.fft.fftn` with ``workers=N`` (pocketfft's thread
    pool).  Auto-selected when SciPy is importable; measurably faster
    than ``numpy.fft`` even single-threaded and scales with cores.
``pyfftw``
    FFTW via ``pyfftw.interfaces`` with the interface plan cache
    enabled, ``threads=N``.  Optional — only registered as available
    when the package is importable.

Backends are constructed through a registry so downstream code
(:class:`repro.nufft.NufftPlan`, the Toeplitz normal operator,
benchmarks) selects by name::

    >>> from repro.nufft.fft_backend import get_fft_backend
    >>> get_fft_backend("numpy").name
    'numpy'

Set ``REPRO_FFT_DISABLE`` (comma-separated backend names) to make
backends report unavailable — the CI minimal leg uses this to exercise
the ``auto`` -> ``numpy`` fallback without uninstalling SciPy.

:class:`GridBufferPool` (re-exported from
:mod:`repro.gridding.buffers`) provides the preallocated padded-grid
buffers the plans and engines recycle between transforms.
"""

from __future__ import annotations

import abc
import os
from typing import Callable

import numpy as np

from ..errors import BackendFailure, DegradationEvent
from ..gridding.buffers import GridBufferPool, usable_cpus
from ..robustness.faults import fault_point

__all__ = [
    "FftBackend",
    "NumpyFftBackend",
    "ScipyFftBackend",
    "PyfftwFftBackend",
    "FallbackFftBackend",
    "FFT_DEMOTION_ORDER",
    "GridBufferPool",
    "fft_demotion_chain",
    "register_fft_backend",
    "available_fft_backends",
    "fft_backend_available",
    "get_fft_backend",
]


def _disabled_backends() -> set[str]:
    """Backend names disabled via the ``REPRO_FFT_DISABLE`` env var."""
    raw = os.environ.get("REPRO_FFT_DISABLE", "")
    return {name.strip() for name in raw.split(",") if name.strip()}


def _default_workers(workers: int | None) -> int:
    if workers is None:
        return usable_cpus()
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"fft workers must be >= 1, got {workers}")
    return workers


class FftBackend(abc.ABC):
    """One FFT implementation: n-dimensional C2C transforms over axes.

    ``norm`` follows the NumPy convention (``"backward"`` default,
    ``"forward"``, ``"ortho"``); the plans use ``ifftn(...,
    norm="forward")`` for the unnormalized inverse so the adjoint
    NuFFT needs no separate full-grid scaling pass.
    """

    #: registry identifier
    name: str = "abstract"
    #: worker threads the backend was configured with (1 = serial)
    workers: int = 1

    @abc.abstractmethod
    def fftn(self, a: np.ndarray, axes=None, norm: str = "backward") -> np.ndarray:
        """Forward n-dimensional DFT of ``a`` over ``axes``."""

    @abc.abstractmethod
    def ifftn(self, a: np.ndarray, axes=None, norm: str = "backward") -> np.ndarray:
        """Inverse n-dimensional DFT of ``a`` over ``axes``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} workers={self.workers}>"


class NumpyFftBackend(FftBackend):
    """:mod:`numpy.fft` — the single-threaded bit-compatibility reference.

    ``numpy.fft`` always computes and returns complex128; unlike the
    scipy/pyfftw backends (which transform complex64 natively), a
    complex64 input is cast back on return so every backend honors the
    caller's working dtype.  complex128 behaviour is bit-identical to
    calling ``numpy.fft`` directly.
    """

    name = "numpy"

    def __init__(self, workers: int | None = None):
        # np.fft has no threading knob; record 1 regardless of request
        self.workers = 1

    @staticmethod
    def _match_dtype(a, result):
        if getattr(a, "dtype", None) == np.complex64:
            return result.astype(np.complex64)
        return result

    def fftn(self, a, axes=None, norm="backward"):
        return self._match_dtype(a, np.fft.fftn(a, axes=axes, norm=norm))

    def ifftn(self, a, axes=None, norm="backward"):
        return self._match_dtype(a, np.fft.ifftn(a, axes=axes, norm=norm))


class ScipyFftBackend(FftBackend):
    """:mod:`scipy.fft` with ``workers=N`` (pocketfft thread pool)."""

    name = "scipy"

    def __init__(self, workers: int | None = None):
        # scipy is a required dependency (pyproject: scipy>=1.10); the
        # import stays lazy so REPRO_FFT_DISABLE=scipy can mask this
        # backend without touching the compiled engine's scipy.sparse
        import scipy.fft as _sfft  # noqa: PLC0415 - lazy, not optional

        self._fft = _sfft
        self.workers = _default_workers(workers)

    def fftn(self, a, axes=None, norm="backward"):
        return self._fft.fftn(a, axes=axes, norm=norm, workers=self.workers)

    def ifftn(self, a, axes=None, norm="backward"):
        return self._fft.ifftn(a, axes=axes, norm=norm, workers=self.workers)


class PyfftwFftBackend(FftBackend):
    """FFTW via ``pyfftw.interfaces`` with the interface plan cache.

    The first transform of a given (shape, axes) plans (FFTW wisdom);
    the enabled interface cache reuses the plan for every later call —
    the right trade for the NuFFT workload, where one plan's grid shape
    is transformed thousands of times.
    """

    name = "pyfftw"

    def __init__(self, workers: int | None = None):
        import pyfftw  # noqa: PLC0415 - optional dependency

        pyfftw.interfaces.cache.enable()
        # keep cached plans alive well past the default 0.1 s so CG
        # iterations a few ms apart never replan
        pyfftw.interfaces.cache.set_keepalive_time(60.0)
        self._fft = pyfftw.interfaces.numpy_fft
        self.workers = _default_workers(workers)

    def fftn(self, a, axes=None, norm="backward"):
        return self._fft.fftn(a, axes=axes, norm=norm, threads=self.workers)

    def ifftn(self, a, axes=None, norm="backward"):
        return self._fft.ifftn(a, axes=axes, norm=norm, threads=self.workers)


#: the one FFT demotion order, strictly downward: a failing backend
#: (:class:`FallbackFftBackend`) steps to the next entry; ``numpy``,
#: always available, is the floor
FFT_DEMOTION_ORDER = ("pyfftw", "scipy", "numpy")


def fft_demotion_chain(name: str) -> tuple[str, ...]:
    """``name`` followed by the backends it demotes to, in order.

    A backend outside :data:`FFT_DEMOTION_ORDER` (a custom registered
    one) demotes straight to the ``numpy`` floor.

    Examples
    --------
    >>> fft_demotion_chain("scipy"), fft_demotion_chain("numpy")
    (('scipy', 'numpy'), ('numpy',))
    """
    if name in FFT_DEMOTION_ORDER:
        return FFT_DEMOTION_ORDER[FFT_DEMOTION_ORDER.index(name):]
    return (name, "numpy")


class FallbackFftBackend(FftBackend):
    """Supervised chain of concrete backends with sticky degradation.

    Wraps a primary backend plus its :func:`fft_demotion_chain`: the
    backends below it in :data:`FFT_DEMOTION_ORDER`, ending at
    ``numpy``, the always-available reference.  A runtime exception
    from the active backend — FFTW wisdom corruption, a thread-pool
    crash, an injected fault — permanently demotes to the next backend
    in the chain, records a :class:`~repro.errors.DegradationEvent` in
    :attr:`events`, and **retries the same transform** so the caller
    never sees the failure.  Exhausting the chain raises
    :class:`~repro.errors.BackendFailure`.

    Degradation is *sticky* by design: a backend that has thrown once
    is assumed broken for the rest of the plan's life (replanning every
    call would turn one flaky library into a per-iteration retry tax).

    :attr:`name` and :attr:`workers` mirror the currently-active
    backend, so timing reports keep showing the backend that actually
    ran the transform.
    """

    def __init__(
        self,
        primary: str | FftBackend = "auto",
        workers: int | None = None,
    ):
        first = get_fft_backend(primary, workers=workers)
        if isinstance(first, FallbackFftBackend):
            raise ValueError("FallbackFftBackend cannot wrap another fallback chain")
        self._workers_arg = workers
        self._chain = fft_demotion_chain(first.name)
        self._pos = 0
        self._active = first
        #: DegradationEvent records, one per demotion, oldest first
        self.events: list[DegradationEvent] = []

    # -- mirror the active backend -------------------------------------
    @property
    def name(self) -> str:  # type: ignore[override]
        return self._active.name

    @property
    def workers(self) -> int:  # type: ignore[override]
        return self._active.workers

    @property
    def active(self) -> FftBackend:
        """The backend currently serving transforms."""
        return self._active

    @property
    def chain(self) -> tuple[str, ...]:
        """The configured demotion order (position 0 = primary)."""
        return self._chain

    # -- supervision ---------------------------------------------------
    def _demote(self, exc: BaseException) -> None:
        failed = self._active.name
        while True:
            self._pos += 1
            if self._pos >= len(self._chain):
                raise BackendFailure(
                    f"every FFT backend in the fallback chain {self._chain} "
                    f"failed; last error from {failed!r}: {exc}"
                ) from exc
            candidate = self._chain[self._pos]
            try:
                self._active = get_fft_backend(
                    candidate, workers=self._workers_arg
                )
            except ValueError:
                continue  # unregistered/unavailable link: keep walking
            self.events.append(
                DegradationEvent("fft", failed, candidate, repr(exc))
            )
            return

    def _call(self, op: str, a, axes, norm):
        while True:
            try:
                fault_point(f"fft:{self._active.name}")
                return getattr(self._active, op)(a, axes=axes, norm=norm)
            except Exception as exc:  # noqa: BLE001 - supervision point
                self._demote(exc)

    def fftn(self, a, axes=None, norm="backward"):
        return self._call("fftn", a, axes, norm)

    def ifftn(self, a, axes=None, norm="backward"):
        return self._call("ifftn", a, axes, norm)


def _probe_numpy() -> bool:
    return True


def _probe_scipy() -> bool:
    try:
        import scipy.fft  # noqa: F401, PLC0415
    except ImportError:  # pragma: no cover - scipy present in CI main legs
        return False
    return True


def _probe_pyfftw() -> bool:
    try:
        import pyfftw  # noqa: F401, PLC0415
    except ImportError:
        return False
    return True


#: name -> (constructor, availability probe); insertion order is the
#: ``auto`` preference order (fastest first, ``numpy`` last)
_REGISTRY: dict[str, tuple[Callable[..., FftBackend], Callable[[], bool]]] = {}


def register_fft_backend(
    name: str,
    factory: Callable[..., FftBackend],
    probe: Callable[[], bool] | None = None,
) -> None:
    """Register (or replace) an FFT backend under ``name``.

    Parameters
    ----------
    name:
        Registry key (also what ``NufftPlan(fft_backend=...)`` takes).
    factory:
        ``factory(workers=N) -> FftBackend``.
    probe:
        Zero-argument availability check; defaults to always-available.
    """
    _REGISTRY[name] = (factory, probe or (lambda: True))


register_fft_backend("scipy", ScipyFftBackend, _probe_scipy)
register_fft_backend("pyfftw", PyfftwFftBackend, _probe_pyfftw)
register_fft_backend("numpy", NumpyFftBackend, _probe_numpy)


def fft_backend_available(name: str) -> bool:
    """Whether ``name`` is registered, importable, and not disabled."""
    if name not in _REGISTRY or name in _disabled_backends():
        return False
    return _REGISTRY[name][1]()


def available_fft_backends() -> tuple[str, ...]:
    """Names of currently usable backends, ``auto`` preference order."""
    return tuple(name for name in _REGISTRY if fft_backend_available(name))


def get_fft_backend(
    name: str | FftBackend = "auto", workers: int | None = None
) -> FftBackend:
    """Resolve a backend name (or pass an instance through).

    ``"auto"`` picks the fastest available backend: ``scipy`` when
    importable (multithreaded pocketfft), else ``numpy``.  ``pyfftw``
    is never auto-selected — its first-call planning cost is only worth
    it when the caller opts in for a long-lived plan.

    Raises
    ------
    ValueError
        For an unknown name, or a known backend that is currently
        unavailable (not importable, or disabled via
        ``REPRO_FFT_DISABLE``).
    """
    if isinstance(name, FftBackend):
        return name
    if name == "auto":
        resolved = "scipy" if fft_backend_available("scipy") else "numpy"
        return get_fft_backend(resolved, workers=workers)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown fft backend {name!r}; registered: {tuple(_REGISTRY)}"
        )
    if not fft_backend_available(name):
        raise ValueError(
            f"fft backend {name!r} is not available on this host "
            "(missing package or disabled via REPRO_FFT_DISABLE)"
        )
    factory = _REGISTRY[name][0]
    return factory(workers=workers)
