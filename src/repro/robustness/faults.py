"""Deterministic, seeded fault-injection harness for the chaos suite.

:func:`inject_faults` is a context manager that arms a module-global
injector; instrumented production code calls the cheap hooks below
(``fault_point``, ``heartbeat_fault_point``, ``corrupt_stream``), each
of which is a no-op single ``is None`` check when no injector is
active.  Faults available:

- **FFT backend exceptions** — ``fft_errors={"scipy": 2}`` makes the
  next two transforms executed by the scipy backend raise
  :class:`InjectedFault`, exercising the runtime fallback chain.
- **Toeplitz PSF failure** — ``toeplitz_psf_errors=N`` fails the next
  N PSF builds, exercising the toeplitz→gridding normal-operator
  fallback in CG.
- **corrupted sample streams** — ``corrupt_coords=N`` /
  ``corrupt_values=N`` poison that many entries (seeded positions)
  with NaN on entry to the gridding public API, exercising the
  quality-gate policies end to end.
- **service worker crashes / hangs** — ``worker_crash=N`` /
  ``worker_hang=N`` crash (:class:`InjectedWorkerCrash`) or hang (a
  ``hang_seconds`` sleep) a service worker thread N times, fired at
  the worker's heartbeat site (:func:`heartbeat_fault_point`) and
  optionally delayed ``worker_fault_delay`` heartbeats so a kill lands
  deterministically *mid-stream* — after checkpoints exist, before the
  run completes.  A hang sleeps at the fault point
  **before** the heartbeat timestamp is touched, so the watchdog
  observes exactly the staleness a real wedge produces.

Everything fired is appended to ``injector.log`` as
``(site, detail)`` tuples so tests can assert exactly which faults
triggered.  The injected exceptions deliberately subclass plain
``RuntimeError`` — *not* :class:`repro.errors.ReproError` — because
they simulate third-party/component failures that the stack must
translate into its own taxonomy.

Examples
--------
>>> from repro.robustness import inject_faults, active_injector
>>> from repro.robustness.faults import fault_point
>>> with inject_faults(seed=7, fft_errors={"numpy": 1}) as inj:
...     fault_point("fft:numpy")
Traceback (most recent call last):
    ...
repro.robustness.faults.InjectedFault: injected fault at fft:numpy
>>> active_injector() is None
True
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

__all__ = [
    "InjectedFault",
    "InjectedWorkerCrash",
    "FaultInjector",
    "inject_faults",
    "active_injector",
    "fault_point",
    "heartbeat_fault_point",
    "corrupt_stream",
]


class InjectedFault(RuntimeError):
    """A deliberately injected component failure (simulates a
    third-party library raising at runtime)."""


class InjectedWorkerCrash(InjectedFault):
    """A deliberately injected service worker-thread crash."""


class FaultInjector:
    """Mutable fault budget armed by :func:`inject_faults`.

    Counters decrement as faults fire; a zero counter means that fault
    class is exhausted and the hook becomes a no-op.  ``log`` records
    every fired fault as ``(site, detail)``.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        worker_crash: int = 0,
        worker_hang: int = 0,
        hang_seconds: float = 30.0,
        fft_errors: dict[str, int] | None = None,
        toeplitz_psf_errors: int = 0,
        corrupt_coords: int = 0,
        corrupt_values: int = 0,
        worker_fault_delay: int = 0,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.worker_crash = int(worker_crash)
        self.worker_hang = int(worker_hang)
        self.hang_seconds = float(hang_seconds)
        self.fft_errors = dict(fft_errors or {})
        self.toeplitz_psf_errors = int(toeplitz_psf_errors)
        self.corrupt_coords = int(corrupt_coords)
        self.corrupt_values = int(corrupt_values)
        self.worker_fault_delay = int(worker_fault_delay)
        self.log: list[tuple[str, str]] = []
        # directive armed for the next service-worker heartbeat
        self.service_directive: str | None = None

    # -- generic named fault points (fft:<name>, toeplitz:psf, ...) ----

    def check_point(self, site: str) -> None:
        if site.startswith("fft:"):
            name = site[4:]
            budget = self.fft_errors.get(name, 0)
            if budget > 0:
                self.fft_errors[name] = budget - 1
                self.log.append((site, "raise"))
                raise InjectedFault(f"injected fault at {site}")
        elif site == "toeplitz:psf":
            if self.toeplitz_psf_errors > 0:
                self.toeplitz_psf_errors -= 1
                self.log.append((site, "raise"))
                raise InjectedFault(f"injected fault at {site}")

    def service_fault(self, worker_name: str) -> None:
        """Stage-and-fire for the service worker heartbeat site.

        Stages at most one directive from the crash/hang budgets (crash
        takes precedence), then counts down ``worker_fault_delay``
        heartbeats before firing — which is what lets a test kill a
        worker deterministically *mid-stream*, after N chunks have
        already been accumulated and checkpointed.
        """
        if self.service_directive is None:
            if self.worker_crash > 0:
                self.worker_crash -= 1
                self.service_directive = "crash"
                self.log.append(("service", f"stage crash {worker_name}"))
            elif self.worker_hang > 0:
                self.worker_hang -= 1
                self.service_directive = "hang"
                self.log.append(("service", f"stage hang {worker_name}"))
            else:
                return
        if self.worker_fault_delay > 0:
            self.worker_fault_delay -= 1
            return
        directive, self.service_directive = self.service_directive, None
        self.log.append(("service", f"fire {directive} {worker_name}"))
        if directive == "crash":
            raise InjectedWorkerCrash(
                f"injected crash in service worker {worker_name}"
            )
        time.sleep(self.hang_seconds)

    # -- stream corruption ---------------------------------------------

    def corrupt(
        self, coords: np.ndarray, values_stack: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        n = coords.shape[0]
        if n == 0:
            return coords, values_stack
        if self.corrupt_coords > 0:
            k = min(self.corrupt_coords, n)
            self.corrupt_coords -= k
            idx = self.rng.choice(n, size=k, replace=False)
            coords = coords.copy()
            coords[idx, 0] = np.nan
            self.log.append(("corrupt", f"coords n={k}"))
        if self.corrupt_values > 0 and values_stack is not None:
            k = min(self.corrupt_values, n)
            self.corrupt_values -= k
            idx = self.rng.choice(n, size=k, replace=False)
            values_stack = values_stack.copy()
            values_stack[:, idx] = np.nan + 0j
            self.log.append(("corrupt", f"values n={k}"))
        return coords, values_stack


_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The currently armed injector, or ``None`` outside
    :func:`inject_faults`."""
    return _ACTIVE


@contextmanager
def inject_faults(**kwargs):
    """Arm a seeded :class:`FaultInjector` for the dynamic extent of the
    ``with`` block and yield it.  See the module docstring for the
    accepted fault budgets.  Nested use is rejected to keep runs
    deterministic.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("inject_faults does not nest")
    injector = FaultInjector(**kwargs)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


# -- production-side hooks (each a no-op unless an injector is armed) --


def fault_point(site: str) -> None:
    """Raise :class:`InjectedFault` if the armed injector has budget
    for ``site`` (e.g. ``"fft:scipy"``, ``"toeplitz:psf"``)."""
    if _ACTIVE is not None:
        _ACTIVE.check_point(site)


def heartbeat_fault_point(worker_name: str) -> None:
    """Called by the service worker's heartbeat, *before* the timestamp
    is touched; stages and (after ``worker_fault_delay`` heartbeats)
    fires a crash/hang while the armed injector has budget for one."""
    if _ACTIVE is not None:
        _ACTIVE.service_fault(worker_name)


def corrupt_stream(
    coords: np.ndarray, values_stack: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Called at the gridding public API boundary; returns possibly
    NaN-poisoned *copies* when corruption budget remains, the original
    arrays otherwise."""
    if _ACTIVE is None:
        return coords, values_stack
    return _ACTIVE.corrupt(coords, values_stack)
