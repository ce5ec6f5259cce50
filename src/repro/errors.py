"""Shared exception taxonomy and degradation-event record.

Four PRs of performance work built a deep stack (compiled scatter
plans, pluggable FFT backends, Toeplitz CG) whose failures all
surfaced as bare ``ValueError``/``RuntimeError`` — or, for non-finite
scanner data, not at all.  This module gives every layer a
common failure vocabulary so callers can catch by *failure class*:

- :class:`ReproError` — root of everything this package raises on
  purpose.
- :class:`CoordinateError` — non-finite / malformed trajectory
  coordinates (a ``ValueError``: the input itself is unusable).
- :class:`DataQualityError` — non-finite k-space samples, weights, or
  images (also a ``ValueError``).
- :class:`EngineFailure` — an engine could not produce a usable
  result and has no rung left to step down to (a ``RuntimeError``).
- :class:`BackendFailure` — every FFT backend in the fallback chain
  failed (a ``RuntimeError``).
- :class:`SolverBreakdown` — an iterative solver lost numerical health
  beyond repair (NaN/Inf state after its one permitted restart).
- :class:`ServiceOverloaded` — the reconstruction service refused a
  submission because its bounded queue is full (a ``RuntimeError``;
  carries ``retry_after`` and maps to HTTP 429).
- :class:`JobCancelled` — a cooperative cancel token was observed
  mid-computation (a ``RuntimeError``; the work stopped cleanly at a
  chunk/iteration boundary).
- :class:`DeadlineExceeded` — the specialised cancellation raised when
  the cause is an expired :class:`repro.robustness.Deadline`; it
  subclasses :class:`JobCancelled` so ``except JobCancelled`` handles
  both.

Each concrete class also subclasses the built-in exception the code
historically raised in that situation, so ``except ValueError`` /
``except RuntimeError`` call sites keep working unchanged.

Recovery that *succeeds* is recorded, not raised:
:class:`DegradationEvent` is the uniform record the supervised chains
(pyfftw → scipy → numpy FFTs, Toeplitz → gridding normal
operator, a stale checkpoint ignored) append to their stats/timings/
results whenever they step down a rung.

Examples
--------
>>> from repro.errors import ReproError, CoordinateError
>>> try:
...     raise CoordinateError("NaN coordinate at sample 3")
... except ReproError as exc:
...     kind = type(exc).__name__
>>> kind
'CoordinateError'
>>> issubclass(CoordinateError, ValueError)   # legacy call sites keep working
True
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReproError",
    "CoordinateError",
    "DataQualityError",
    "EngineFailure",
    "BackendFailure",
    "SolverBreakdown",
    "ServiceOverloaded",
    "JobCancelled",
    "DeadlineExceeded",
    "DegradationEvent",
]


class ReproError(Exception):
    """Root of every error this package raises deliberately."""


class CoordinateError(ReproError, ValueError):
    """Trajectory coordinates are unusable (non-finite under
    ``policy="raise"``, or structurally malformed beyond shape checks)."""


class DataQualityError(ReproError, ValueError):
    """Sample values, weights, or images contain non-finite entries
    under ``policy="raise"``."""


class EngineFailure(ReproError, RuntimeError):
    """An engine could not produce a usable result and has no rung
    left to degrade to (e.g. a Toeplitz PSF with a non-finite
    spectrum)."""


class BackendFailure(ReproError, RuntimeError):
    """Every FFT backend in the fallback chain raised; there is no
    rung left to degrade to."""


class SolverBreakdown(ReproError, RuntimeError):
    """An iterative solver's state went non-finite (or degenerate)
    beyond what its single permitted restart could repair."""


class ServiceOverloaded(ReproError, RuntimeError):
    """The reconstruction service's bounded job queue is full.

    Backpressure, not failure: the submission was *refused at the
    door* (no job id was issued, nothing was enqueued), so retrying
    after ``retry_after`` seconds is always safe.  The HTTP front end
    maps this to ``429 Too Many Requests`` with a ``Retry-After``
    header; accepted jobs are never dropped.

    Attributes
    ----------
    retry_after:
        Suggested wait in whole seconds before resubmitting, derived
        from the current queue depth and the service's smoothed
        per-job seconds.
    """

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class JobCancelled(ReproError, RuntimeError):
    """A cooperative :class:`repro.robustness.CancelToken` was observed
    set between chunks / solver iterations.

    Raised *by the worker thread itself* at the next cancellation
    check, so the computation always stops at a clean boundary — no
    half-written grid escapes.  The job that was running lands in the
    terminal state ``cancelled``.
    """


class DeadlineExceeded(JobCancelled):
    """Cancellation whose cause is an expired
    :class:`repro.robustness.Deadline` (``JobSpec.deadline_seconds``).

    Subclasses :class:`JobCancelled`, so generic cancellation handling
    (``except JobCancelled``) covers both; catch this first when the
    distinction matters (the job lands in ``deadline_exceeded``, not
    ``cancelled``).
    """


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded step down a supervised degradation chain.

    Attributes
    ----------
    component:
        Which chain degraded: ``"checkpoint"`` (a stale snapshot
        ignored), ``"fft"`` (backend registry), ``"normal"`` (Toeplitz
        vs gridding normal operator), ``"cg"`` (solver restart),
        ``"service"`` (a wedged worker replaced).
    from_stage / to_stage:
        The rung stepped off and the rung landed on (e.g.
        ``"scipy"`` -> ``"numpy"``).
    reason:
        Human-readable cause — the repr of the triggering exception or
        a short diagnostic.

    Examples
    --------
    >>> ev = DegradationEvent("fft", "scipy", "numpy", "InjectedFault()")
    >>> ev.component, ev.to_stage
    ('fft', 'numpy')
    """

    component: str
    from_stage: str
    to_stage: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.component}: {self.from_stage} -> {self.to_stage}"
            f" ({self.reason})"
        )
