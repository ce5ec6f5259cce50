"""Deadlines and cooperative cancellation tokens.

Long streamed reconstructions (10^8 samples, hundreds of chunks) and
deep CG solves run for minutes inside worker threads that Python
cannot kill.  The only safe way to stop them is *cooperation*: the
engines check a :class:`CancelToken` at their natural boundaries — the
chunked gridder between chunks, CG between iterations, the NuFFT
plan on entry — and raise a typed error
(:class:`repro.errors.JobCancelled` /
:class:`repro.errors.DeadlineExceeded`) the moment the token is set.
Because the checks sit *between* units of work, cancellation never
leaves a half-written grid behind.

Two triggers share one token:

- an explicit :meth:`CancelToken.cancel` call (the service's
  ``POST /jobs/<id>/cancel`` endpoint, or the watchdog freeing a
  wedged worker), and
- an attached :class:`Deadline` (``JobSpec.deadline_seconds``), whose
  clock starts at *submission* — queue wait counts against the SLA.

The token also carries an optional ``on_check`` callback, which the
service worker uses as its **heartbeat**: every cancellation check
touches a timestamp the watchdog monitors, so "this worker checks its
token" and "this worker is provably alive" are the same statement.

Examples
--------
>>> from repro.robustness import CancelToken, Deadline
>>> from repro.errors import JobCancelled, DeadlineExceeded
>>> token = CancelToken()
>>> token.check()            # clear token: no-op
>>> token.cancel("operator request")
>>> try:
...     token.check()
... except JobCancelled as exc:
...     print(type(exc).__name__, "-", exc)
JobCancelled - operator request
>>> expired = CancelToken(deadline=Deadline.after(-1.0))  # already past
>>> try:
...     expired.check()
... except DeadlineExceeded:
...     print("deadline wins")
deadline wins
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import DeadlineExceeded, JobCancelled

__all__ = ["Deadline", "CancelToken"]


class Deadline:
    """An absolute point on the monotonic clock.

    Built with :meth:`after` (relative seconds from now) and carried by
    a :class:`CancelToken`.  Monotonic by construction: wall-clock
    adjustments (NTP, DST) cannot shrink or stretch a job's budget.
    """

    __slots__ = ("at", "seconds")

    def __init__(self, at: float, seconds: float | None = None) -> None:
        self.at = float(at)
        #: the originally requested relative budget, for reporting
        self.seconds = None if seconds is None else float(seconds)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Deadline ``seconds`` from now (monotonic)."""
        return cls(time.monotonic() + float(seconds), seconds)

    def remaining(self) -> float:
        """Seconds left, clamped at 0 so it is safe to use as a timeout."""
        return max(0.0, self.at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CancelToken:
    """Thread-safe cooperative cancellation flag with optional deadline.

    ``check()`` is the single hook the engines call; it is cheap when
    clear (one callback + one flag read + at most one clock read).
    Check order is deliberate:

    1. the ``on_check`` callback fires first (the worker heartbeat —
       even a doomed job proves its thread alive);
    2. the deadline, so a job that is both past-deadline *and*
       explicitly cancelled deterministically reports
       ``DeadlineExceeded`` (the stronger, SLA-relevant verdict);
    3. the explicit cancel flag.
    """

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        on_check: Optional[Callable[[], None]] = None,
    ) -> None:
        self.deadline = deadline
        self.on_check = on_check
        self._cancelled = threading.Event()
        self._reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        """Set the flag.  Idempotent; the first reason wins."""
        if not self._cancelled.is_set():
            self._reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def reason(self) -> str:
        return self._reason

    def check(self) -> None:
        """Raise if cancellation is due; otherwise touch the heartbeat
        and return.  Engines call this between chunks / iterations."""
        if self.on_check is not None:
            self.on_check()
        if self.deadline is not None and self.deadline.expired:
            budget = self.deadline.seconds
            detail = "" if budget is None else f" ({budget:g}s budget)"
            raise DeadlineExceeded(f"deadline exceeded{detail}")
        if self._cancelled.is_set():
            raise JobCancelled(self._reason or "cancelled")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "clear"
        return f"CancelToken({state}, deadline={self.deadline!r})"
