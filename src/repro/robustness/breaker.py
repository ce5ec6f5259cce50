"""Circuit breakers for the supervised degradation chains.

The degradation ladders (numba → NumPy gridding lane, pyfftw → scipy
→ numpy FFT backends, Toeplitz → gridding normal operator) discover
failure *per call*: every job pays the probe cost
of a rung that has been broken for an hour.  A circuit breaker makes
the discovery stick — after ``failure_threshold`` consecutive
failures on a rung, the breaker **opens** and callers skip straight
to the next rung; after ``cooldown_seconds`` it goes **half-open**
and lets exactly one probe through, closing again on success.

States::

      closed ──(threshold consecutive failures)──▶ open
        ▲                                           │
        │ success                      cooldown elapses
        │                                           ▼
        └────────────── probe ok ────────── half-open
                                                    │
                                            probe fails
                                                    ▼
                                                  open (fresh cooldown)

:class:`CircuitBreaker` is one rung's breaker;
:class:`BreakerBoard` is the keyed registry the service holds — one
breaker per ``(component, stage)`` string key, e.g. ``"fft:scipy"`` —
with a merged :meth:`~BreakerBoard.snapshot` for ``/stats``.

Examples
--------
>>> from repro.robustness import CircuitBreaker
>>> br = CircuitBreaker(failure_threshold=2, cooldown_seconds=60.0)
>>> br.allow(), br.state
(True, 'closed')
>>> br.record_failure(); br.record_failure()
>>> br.state, br.allow()
('open', False)
>>> br.force_half_open()     # what cooldown expiry does, sans waiting
>>> br.state
'half-open'
>>> br.allow(), br.allow()   # exactly one probe is let through
(True, False)
>>> br.state                 # open again for the probe window
'open'
>>> br.record_success()
>>> br.state
'closed'
"""

from __future__ import annotations

import threading
import time

__all__ = ["CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Thread-safe three-state breaker for one degradation-chain rung."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._total_failures = 0
        self._total_opens = 0

    # -- state ----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """Lock held.  Open → half-open once the cooldown has elapsed."""
        if self._state == OPEN:
            if time.monotonic() - self._opened_at >= self.cooldown_seconds:
                self._state = HALF_OPEN

    def force_half_open(self) -> None:
        """Skip the remaining cooldown (tests / operator override)."""
        with self._lock:
            if self._state == OPEN:
                self._state = HALF_OPEN

    # -- the three verbs ------------------------------------------------

    def allow(self) -> bool:
        """May a caller attempt this rung right now?

        ``closed`` → yes.  ``open`` → no (skip to the next rung).
        ``half-open`` → yes for exactly one probe; concurrent callers
        during the probe window are refused so a broken rung cannot be
        hammered by a convoy.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                # one probe: re-open the window optimistically; the
                # probe's success/failure decides the next state.
                self._state = OPEN
                self._opened_at = time.monotonic()
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._total_failures += 1
            self._consecutive_failures += 1
            if (
                self._state != CLOSED
                or self._consecutive_failures >= self.failure_threshold
            ):
                if self._state == CLOSED:
                    self._total_opens += 1
                self._state = OPEN
                self._opened_at = time.monotonic()

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "total_failures": self._total_failures,
                "total_opens": self._total_opens,
            }


class BreakerBoard:
    """Keyed registry of breakers, created lazily per rung.

    Keys are free-form strings; the service uses one
    ``"fft:<backend>"`` key per FFT backend.  ``snapshot()`` merges
    every breaker for ``/stats``; ``open_keys()`` lists the rungs
    currently tripped.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
    ) -> None:
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, key: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.failure_threshold, self.cooldown_seconds
                )
                self._breakers[key] = breaker
            return breaker

    def allow(self, key: str) -> bool:
        return self.get(key).allow()

    def record_success(self, key: str) -> None:
        self.get(key).record_success()

    def record_failure(self, key: str) -> None:
        self.get(key).record_failure()

    def open_keys(self) -> list[str]:
        with self._lock:
            items = list(self._breakers.items())
        return sorted(k for k, b in items if b.state != CLOSED)

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._breakers.items())
        return {key: breaker.snapshot() for key, breaker in sorted(items)}
