"""Job model of the reconstruction service.

A *job* is one reconstruction request: a trajectory, its k-space
samples, and the plan/solver options to run them under.  Jobs move
through a small state machine::

    submit() ──▶ queued ──▶ running ──▶ done
         │          │   ◀──    │
         ▼          │ requeue  ├──▶ failed
     (rejected:     │          ├──▶ cancelled
      no id issued, │          └──▶ deadline_exceeded
      ServiceOverloaded)
                    └─────▶ cancelled | deadline_exceeded

``rejected`` is not a stored state: an over-capacity submission is
refused *before* a job id exists (HTTP 429), so every id the service
ever hands out resolves to a job that terminates in ``done``,
``failed``, ``cancelled``, or ``deadline_exceeded`` — accepted jobs
are never dropped.  The ``running ──▶ queued`` back edge is the
watchdog's :meth:`Job.requeue`: a job whose worker wedged or died is
handed a *fresh* :class:`~repro.robustness.CancelToken` (preserving
the original absolute deadline) and re-enqueued on the replacement
worker, while the abandoned attempt's terminal marks are fenced off
by an attempt counter.

Terminal transitions are **idempotent and attempt-guarded**: every
``mark_*`` is a no-op once the job is terminal, and a mark carrying a
stale attempt number (a zombie thread finishing after its job was
requeued) is discarded.  ``on_terminal`` fires exactly once.

The trajectory **fingerprint** computed here is the affinity-routing
key and the trajectory part of the worker's plan key: jobs whose
coordinate arrays fingerprint identically are routed to the same
worker, whose cached plan is therefore already warm for them.  It is a
SHA-256 digest of the full contents (shape, dtype and every byte),
computed once per job at submit, so a cached plan is only ever served
to the exact trajectory it was built from.  Inside the plan, each
gridder binds its one trajectory, and the plan binds its one Toeplitz
operator to the weights it folds in, by an exact match
(:class:`repro.gridding.base.ExactBinding`).
"""

from __future__ import annotations

import base64
import copy
import hashlib
import threading
import time
import uuid
from dataclasses import dataclass, field

import numpy as np

from ..core.compiled import choose_chunk_samples
from ..gridding.base import GriddingSetup
from ..gridding.registry import available_gridders, default_gridder, make_gridder
from ..kernels import KernelLUT, beatty_kernel
from ..nufft.fft_backend import available_fft_backends, fft_backend_available
from ..nufft.plan import PRECISIONS, plan_grid_shape
from ..robustness.deadline import CancelToken, Deadline

__all__ = [
    "JobSpec",
    "Job",
    "JobState",
    "trajectory_fingerprint",
    "encode_array",
    "decode_array",
]


class JobState:
    """String states of the job lifecycle (JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEADLINE_EXCEEDED = "deadline_exceeded"

    #: states a job can no longer leave
    TERMINAL = (DONE, FAILED, CANCELLED, DEADLINE_EXCEEDED)


def trajectory_fingerprint(coords: np.ndarray) -> str:
    """Hex affinity and plan key for an ``(M, d)`` coordinate array:
    the SHA-256 of the coordinates as float64 — shape, dtype and every
    byte, so two trajectories share a fingerprint only when equal.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.zeros((4, 2))
    >>> b = a.copy(); b[1, 0] = 0.5
    >>> trajectory_fingerprint(a) == trajectory_fingerprint(a.copy())
    True
    >>> trajectory_fingerprint(a) == trajectory_fingerprint(b)
    False
    """
    array = np.ascontiguousarray(np.atleast_2d(np.asarray(coords, dtype=np.float64)))
    h = hashlib.sha256(f"{array.shape}{array.dtype.str}".encode())
    h.update(array.data)
    return h.hexdigest()


# ----------------------------------------------------------------------
# wire codec: numpy arrays <-> JSON-safe dicts
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> dict:
    """JSON-safe envelope for an array: shape + dtype + base64 payload."""
    array = np.ascontiguousarray(array)
    return {
        "shape": list(array.shape),
        "dtype": array.dtype.name,
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(obj, dtype=None) -> np.ndarray:
    """Inverse of :func:`encode_array`, with two lenient spellings.

    Accepts the base64 envelope, a plain (nested) list of numbers, or
    — for complex payloads — ``{"real": [...], "imag": [...]}``.  The
    lenient forms exist so a curl-wielding human can submit a job
    without writing a base64 encoder.
    """
    if isinstance(obj, dict) and "data" in obj:
        array = np.frombuffer(
            base64.b64decode(obj["data"]), dtype=np.dtype(obj["dtype"])
        ).reshape(obj["shape"])
    elif isinstance(obj, dict) and "real" in obj:
        array = np.asarray(obj["real"], dtype=np.float64) + 1j * np.asarray(
            obj.get("imag", 0.0), dtype=np.float64
        )
    else:
        array = np.asarray(obj)
    if dtype is not None:
        array = np.asarray(array, dtype=dtype)
    return array


# ----------------------------------------------------------------------
# job spec + record
# ----------------------------------------------------------------------
@dataclass
class JobSpec:
    """Everything needed to run one reconstruction.

    ``method`` selects the pipeline: ``"cg"`` (iterative solve via
    :func:`repro.recon.cg_reconstruction`) or ``"adjoint"`` (one
    density-weighted adjoint NuFFT).  The plan-shaped options mirror
    :class:`repro.nufft.NufftPlan` and participate in the worker's
    plan-cache key; the solver-shaped options are per-call and do not.
    """

    image_shape: tuple
    coords: np.ndarray
    samples: np.ndarray
    weights: np.ndarray | None = None
    method: str = "cg"
    # ---- plan-shaped options (part of the warm-cache key) ----
    gridder: str = field(default_factory=default_gridder)
    gridder_options: dict = field(default_factory=dict)
    precision: str = "double"
    fft_backend: str = "auto"
    quality_policy: str = "raise"
    #: per-job gridding memory budget (bytes).  When set, the job's
    #: engine runs in chunk mode, with the chunk sized by
    #: :func:`repro.gridding.choose_chunk_samples` — plan-shaped
    #: because a chunked engine keeps no one-shot plan.  Only the
    #: compiled engines have a chunk mode.
    max_bytes: int | None = None
    # ---- solver-shaped options (per call) ----
    n_iterations: int = 10
    tolerance: float = 1e-6
    regularization: float = 0.0
    normal: str = "toeplitz"
    #: wall-clock budget counted from *submission* (queue wait counts
    #: against the SLA).  Exceeding it raises
    #: :class:`repro.errors.DeadlineExceeded` at the next cooperative
    #: check; the job terminates in ``deadline_exceeded``.  Per-call —
    #: deliberately NOT part of :meth:`plan_key` (would fragment the
    #: warm-plan cache).
    deadline_seconds: float | None = None
    #: client-chosen dedup key: resubmitting the same key returns the
    #: original job id instead of running the work twice (safe retries
    #: after an ambiguous network failure).  Per-call, not cached.
    idempotency_key: str | None = None

    _METHODS = ("cg", "adjoint")

    def __post_init__(self):
        self.image_shape = tuple(int(n) for n in self.image_shape)
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float64))
        self.samples = np.asarray(self.samples)
        if self.method not in self._METHODS:
            raise ValueError(
                f"method must be one of {self._METHODS}, got {self.method!r}"
            )
        if self.gridder not in available_gridders():
            raise ValueError(
                f"unknown gridder {self.gridder!r}; available: "
                f"{available_gridders()}"
            )
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.fft_backend != "auto" and not (
            isinstance(self.fft_backend, str)
            and fft_backend_available(self.fft_backend)
        ):
            raise ValueError(
                f"fft_backend {self.fft_backend!r} is unknown or unavailable; "
                f"available: {('auto',) + available_fft_backends()}"
            )
        if not isinstance(self.gridder_options, dict):
            raise ValueError("gridder_options must be a JSON object")
        if self.coords.shape[1] != len(self.image_shape):
            raise ValueError(
                f"coords dimension {self.coords.shape[1]} != image rank "
                f"{len(self.image_shape)}"
            )
        if self.samples.shape[-1] != self.coords.shape[0]:
            raise ValueError(
                f"{self.samples.shape[-1]} samples for "
                f"{self.coords.shape[0]} trajectory points"
            )
        if self.deadline_seconds is not None:
            self.deadline_seconds = float(self.deadline_seconds)
            if not self.deadline_seconds > 0:
                raise ValueError(
                    f"deadline_seconds must be > 0, got {self.deadline_seconds}"
                )
        if self.idempotency_key is not None:
            self.idempotency_key = str(self.idempotency_key)
            if not self.idempotency_key:
                raise ValueError("idempotency_key must be a non-empty string")
        self._check_gridder()

    @property
    def dtype(self) -> np.dtype:
        """Working complex dtype of the job's plan."""
        single = self.precision == "single"
        return np.dtype(np.complex64 if single else np.complex128)

    def plan_gridder_options(self) -> dict:
        """The gridder options the job's plan is built with: the
        client's, plus under a ``max_bytes`` budget the chunk size for
        the plan's grid (2x oversampled, padded to the tile size) and
        default window (W=6), which puts the engine in chunk mode."""
        options = dict(self.gridder_options)
        if self.max_bytes is not None and "chunk_samples" not in options:
            options["chunk_samples"] = choose_chunk_samples(
                self.coords.shape[0],
                plan_grid_shape(self.image_shape, 2.0, self.gridder, options),
                6,
                dtype=self.dtype,
                max_bytes=self.max_bytes,
            )
        return options

    def _check_gridder(self) -> None:
        """Build the job's engine once, on the plan's grid, so that an
        option its constructor rejects fails the submit (HTTP 400)
        instead of the plan build, where it would fail an accepted
        job.  Constructors allocate no grid- or trajectory-sized state,
        so the probe is cheap."""
        try:
            options = self.plan_gridder_options()
            setup = GriddingSetup(
                plan_grid_shape(self.image_shape, 2.0, self.gridder, options),
                KernelLUT(beatty_kernel(6, 2.0), 8),
                dtype=self.dtype,
            )
            make_gridder(self.gridder, setup, **options)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"gridder {self.gridder!r} rejects gridder_options "
                f"{self.gridder_options!r}: {exc}"
            ) from None

    @property
    def fingerprint(self) -> str:
        """Trajectory affinity key (memoized — coords are not mutated)."""
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            fp = self._fingerprint = trajectory_fingerprint(self.coords)
        return fp

    def plan_key(self) -> tuple:
        """Hashable key of the warm plan this spec needs."""
        return (
            self.fingerprint,
            self.image_shape,
            self.gridder,
            tuple(sorted((k, repr(v)) for k, v in self.gridder_options.items())),
            self.precision,
            self.fft_backend,
            self.quality_policy,
            self.max_bytes,
        )

    def without_inputs(self) -> "JobSpec":
        """A copy with every option and the fingerprint, but not the
        ``(M,)``-sized coordinate, sample and weight arrays: what a
        finished job's status still reads."""
        fingerprint = self.fingerprint
        spec = copy.copy(self)
        spec.coords = spec.samples = spec.weights = None
        spec._fingerprint = fingerprint
        return spec

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Build a spec from a decoded JSON request body."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        for required in ("image_shape", "coords", "samples"):
            if required not in payload:
                raise ValueError(f"missing required field {required!r}")
        options = dict(payload.get("options") or {})
        unknown = set(options) - {
            "gridder", "gridder_options", "precision", "fft_backend",
            "quality_policy", "max_bytes", "n_iterations", "tolerance",
            "regularization", "normal", "deadline_seconds",
            "idempotency_key",
        }
        if unknown:
            raise ValueError(f"unknown option(s): {sorted(unknown)}")
        if options.get("max_bytes") is not None:
            options["max_bytes"] = int(options["max_bytes"])
        if options.get("deadline_seconds") is not None:
            options["deadline_seconds"] = float(options["deadline_seconds"])
        weights = payload.get("weights")
        return cls(
            image_shape=tuple(payload["image_shape"]),
            coords=decode_array(payload["coords"], dtype=np.float64),
            samples=decode_array(payload["samples"], dtype=np.complex128),
            weights=None if weights is None
            else decode_array(weights, dtype=np.float64),
            method=payload.get("method", "cg"),
            **options,
        )


@dataclass
class JobResult:
    """What a finished job produced (all fields JSON-encodable)."""

    image: np.ndarray
    n_iterations: int = 0
    converged: bool = True
    residual: float | None = None
    restarts: int = 0
    breakdown: str | None = None
    degradations: tuple = ()
    quality: dict | None = None
    plan_cache: str = "miss"
    toeplitz_cache: str | None = None
    seconds: float = 0.0
    kernel: str = ""
    exec_lane: str = ""
    #: streamed gridding chunks consumed (0 on the one-shot engines)
    chunks: int = 0
    #: gridding-side transient high water of the final pass (bytes)
    peak_bytes: int = 0
    #: checkpoint cursor this run resumed from (``{"chunk_cursor": N,
    #: "sample_cursor": M}``), or None for an uninterrupted run
    resumed_from: dict | None = None

    def as_dict(self) -> dict:
        return {
            "image": encode_array(self.image),
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "residual": self.residual,
            "restarts": self.restarts,
            "breakdown": self.breakdown,
            "degradations": [
                {
                    "component": d.component,
                    "from_stage": d.from_stage,
                    "to_stage": d.to_stage,
                    "reason": d.reason,
                }
                for d in self.degradations
            ],
            "quality": self.quality,
            "plan_cache": self.plan_cache,
            "toeplitz_cache": self.toeplitz_cache,
            "seconds": round(self.seconds, 6),
            "kernel": self.kernel,
            "exec_lane": self.exec_lane,
            "chunks": self.chunks,
            "peak_bytes": self.peak_bytes,
            "resumed_from": self.resumed_from,
        }


class Job:
    """One accepted reconstruction request and its lifecycle record.

    Thread contract: state transitions are serialized by an internal
    lock and are idempotent — the first terminal mark wins, later ones
    are no-ops.  :meth:`mark_running` hands the executing worker an
    *attempt* number; terminal marks carrying a stale attempt (a
    zombie thread finishing after the watchdog requeued its job) are
    discarded.  Readers get a consistent JSON view via :meth:`as_dict`
    and can block on :meth:`wait` (an internal
    :class:`threading.Event` set on entry to a terminal state).
    ``on_terminal`` fires exactly once, outside the job lock.
    """

    def __init__(self, spec: JobSpec):
        self.id = uuid.uuid4().hex[:12]
        self.spec = spec
        self.state = JobState.QUEUED
        self.worker: str | None = None
        self.error: str | None = None
        self.result: JobResult | None = None
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        #: execution-attempt fence: bumped by mark_running and requeue;
        #: a terminal mark with a mismatched attempt is from an
        #: abandoned thread and is ignored
        self.attempt = 0
        #: watchdog requeues so far (bounded by the service's
        #: max_requeues before force-fail)
        self.requeues = 0
        #: absolute deadline fixed at submission (never reset by a
        #: requeue — queue wait and retries all count against the SLA)
        self.deadline: Deadline | None = (
            None
            if spec.deadline_seconds is None
            else Deadline.after(spec.deadline_seconds)
        )
        #: cooperative token the engines check between chunks /
        #: iterations; replaced wholesale by :meth:`requeue` so a new
        #: attempt is not poisoned by the cancel that freed the old one
        self.cancel_token = CancelToken(deadline=self.deadline)
        #: optional hook the owning service installs to observe the
        #: transition into a terminal state (pending-count bookkeeping)
        self.on_terminal = None

    # ------------------------------------------------------------------
    # state transitions (idempotent, attempt-guarded)
    # ------------------------------------------------------------------
    def mark_running(self, worker: str) -> int | None:
        """Claim the job for execution; returns the attempt number.

        Returns None when the job is already terminal (cancelled or
        deadline-swept while queued) — the worker must then skip it.
        """
        with self._lock:
            if self.state in JobState.TERMINAL:
                return None
            self.attempt += 1
            self.state = JobState.RUNNING
            self.worker = worker
            if self.started is None:
                self.started = time.time()
            return self.attempt

    def _may_finish(self, attempt: int | None) -> bool:
        """Lock held: may this caller record the terminal state?"""
        if self.state in JobState.TERMINAL:
            return False
        return attempt is None or attempt == self.attempt

    def _fire_terminal(self) -> None:
        # a terminal job never runs again: keep its status, not its
        # inputs, so the service's retention window bounds its memory
        self.spec = self.spec.without_inputs()
        hook, self.on_terminal = self.on_terminal, None
        if hook is not None:
            hook(self)

    def mark_done(self, result: JobResult, attempt: int | None = None) -> bool:
        with self._lock:
            if not self._may_finish(attempt):
                return False
            self.result = result
            self.state = JobState.DONE
            self.finished = time.time()
            self._done.set()
        self._fire_terminal()
        return True

    def mark_failed(
        self, error: BaseException | str, attempt: int | None = None
    ) -> bool:
        return self._mark_error(JobState.FAILED, error, attempt)

    def mark_cancelled(
        self, error: BaseException | str, attempt: int | None = None
    ) -> bool:
        return self._mark_error(JobState.CANCELLED, error, attempt)

    def mark_deadline_exceeded(
        self, error: BaseException | str, attempt: int | None = None
    ) -> bool:
        return self._mark_error(JobState.DEADLINE_EXCEEDED, error, attempt)

    def _mark_error(
        self, state: str, error: BaseException | str, attempt: int | None
    ) -> bool:
        with self._lock:
            if not self._may_finish(attempt):
                return False
            if isinstance(error, BaseException):
                self.error = f"{type(error).__name__}: {error}"
            else:
                self.error = str(error)
            self.state = state
            self.finished = time.time()
            self._done.set()
        self._fire_terminal()
        return True

    def requeue(self) -> bool:
        """Watchdog path: put a running job back in ``queued`` with a
        fresh cancel token.

        The original absolute :attr:`deadline` is preserved (a retry
        does not extend the SLA), but the token object is new — the
        watchdog cancels the *old* token to free a hung thread, and
        that cancel must not leak into the replacement attempt.
        Bumping :attr:`attempt` fences off any terminal mark the
        abandoned thread may still deliver.  No-op on terminal jobs.
        """
        with self._lock:
            if self.state in JobState.TERMINAL:
                return False
            self.attempt += 1
            self.requeues += 1
            self.state = JobState.QUEUED
            self.worker = None
            self.cancel_token = CancelToken(deadline=self.deadline)
            return True

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    @property
    def seconds(self) -> float | None:
        """Wall seconds from start to finish (None until finished)."""
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def as_dict(self, include_result: bool = True) -> dict:
        out = {
            "job": self.id,
            "state": self.state,
            "method": self.spec.method,
            "fingerprint": self.spec.fingerprint,
            "worker": self.worker,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "seconds": self.seconds,
            "error": self.error,
            "attempt": self.attempt,
            "requeues": self.requeues,
            "deadline_seconds": self.spec.deadline_seconds,
        }
        if include_result and self.result is not None:
            out["result"] = self.result.as_dict()
        return out
