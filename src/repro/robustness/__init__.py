"""Fault tolerance: input-quality gates and deterministic fault injection.

Production MRI reconstruction traffic is not clean: scanner glitches
produce NaN/Inf k-space samples, gradient-trajectory files carry
non-finite coordinates, and runtime components (worker processes, FFT
libraries) fail mid-solve.  This package supplies the two halves of the
failure story the performance stack needed:

- :mod:`repro.robustness.validate` — the policy-driven input-quality
  gate (``policy="raise" | "drop" | "zero"``) and the
  :class:`DataQualityReport` every gated call surfaces through
  ``GriddingStats.quality`` / ``NufftTimings.quality``;
- :mod:`repro.robustness.faults` — a seeded, deterministic
  fault-injection harness (:func:`inject_faults`) that drives the
  chaos test suite: injected worker crashes/hangs, FFT backend
  exceptions, and corrupted sample streams must each end in a recorded
  degradation or a typed :class:`repro.errors.ReproError` — never a
  silently corrupted result;
- :mod:`repro.robustness.deadline` — :class:`Deadline` and the
  cooperative :class:`CancelToken` the engines check between chunks /
  iterations (doubling as the service worker heartbeat);
- :mod:`repro.robustness.checkpoint` — chunked-accumulation
  snapshots (:class:`StreamCheckpoint`) with in-memory
  (:class:`CheckpointStore`) and file-backed
  (:class:`FileCheckpointStore`) stores, exact-resume by the
  in-place-accumulation argument.

The exception taxonomy itself lives in :mod:`repro.errors` (a leaf
module, importable from anywhere in the stack).
"""

from .validate import (
    DataQualityReport,
    apply_quality_policy,
    count_nonfinite_rows,
    validate_policy,
)
from .faults import (
    InjectedFault,
    InjectedWorkerCrash,
    inject_faults,
    active_injector,
)
from .deadline import CancelToken, Deadline
from .checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    FileCheckpointStore,
    StreamCheckpoint,
)

__all__ = [
    "DataQualityReport",
    "apply_quality_policy",
    "count_nonfinite_rows",
    "validate_policy",
    "InjectedFault",
    "InjectedWorkerCrash",
    "inject_faults",
    "active_injector",
    "CancelToken",
    "Deadline",
    "CheckpointConfig",
    "CheckpointStore",
    "FileCheckpointStore",
    "StreamCheckpoint",
]
