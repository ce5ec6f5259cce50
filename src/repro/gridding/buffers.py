"""Preallocated grid-buffer pool shared by gridders and NuFFT plans.

Once gridding is fast (the compiled scatter-plan engine of PR 3), the
host stage's allocator traffic becomes visible: every transform used to
materialize fresh full-grid arrays — the gridder's zeroed output, the
zero-padded oversampled image, the scaled spectrum.  Iterative
reconstruction repeats that dance hundreds of times per solve over
buffers of identical shape, so the fix is a free-list: keep released
buffers keyed by ``(shape, dtype)`` and hand them back on the next
:meth:`~GridBufferPool.acquire` instead of going through the allocator
(and the page-faulted first touch) again.

This module is intentionally a leaf (imports NumPy only): both
:mod:`repro.gridding.base` and :mod:`repro.nufft.fft_backend` re-export
it, and either layer may sit above the other in a given call stack.
For the same reason it holds :func:`usable_cpus`, the one CPU count
both the FFT thread count and the compiled engine's band count read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["GridBufferPool", "PoolSnapshot", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask where the OS exposes one (``taskset`` and cgroup
    cpusets narrow it), else :func:`os.cpu_count`, which counts every
    CPU of the machine.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PoolSnapshot:
    """Immutable copy of one :class:`GridBufferPool`'s counters.

    The pool's live attributes are mutable and local to whichever
    component owns the pool — a service worker, a plan, a gridder.  A
    snapshot freezes them at one instant so they can be shipped across
    thread (or, pickled, process) boundaries and **merged** into fleet
    aggregates: the service ``/stats`` endpoint reports one snapshot
    per worker plus ``PoolSnapshot.merge(...)`` over all of them,
    instead of silently showing only the parent process's pool.

    Merge semantics: every counter sums.  For ``peak_bytes`` the sum
    of per-pool peaks is an *upper bound* on simultaneous residency
    (the pools need not have peaked at the same time), which is the
    conservative number a capacity planner wants.

    Examples
    --------
    >>> pool = GridBufferPool()
    >>> buf = pool.acquire((4, 4))
    >>> pool.release(buf)
    >>> snap = pool.snapshot()
    >>> (snap.hits, snap.misses, snap.outstanding)
    (0, 1, 0)
    >>> total = PoolSnapshot.merge([snap, snap])
    >>> (total.misses, total.miss_bytes == 2 * snap.miss_bytes)
    (2, True)
    """

    hits: int = 0
    misses: int = 0
    miss_bytes: int = 0
    resident_bytes: int = 0
    peak_bytes: int = 0
    outstanding: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires served from the free list (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def merge(cls, snapshots) -> "PoolSnapshot":
        """Aggregate snapshots from many pools into one fleet total."""
        snapshots = list(snapshots)
        return cls(
            hits=sum(s.hits for s in snapshots),
            misses=sum(s.misses for s in snapshots),
            miss_bytes=sum(s.miss_bytes for s in snapshots),
            resident_bytes=sum(s.resident_bytes for s in snapshots),
            peak_bytes=sum(s.peak_bytes for s in snapshots),
            outstanding=sum(s.outstanding for s in snapshots),
        )

    def as_dict(self) -> dict:
        """JSON-ready form (plus the derived hit rate)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "miss_bytes": self.miss_bytes,
            "resident_bytes": self.resident_bytes,
            "peak_bytes": self.peak_bytes,
            "outstanding": self.outstanding,
            "hit_rate": round(self.hit_rate, 4),
        }


class GridBufferPool:
    """Free-list of complex grid buffers keyed by ``(shape, dtype)``.

    The batched entry points key naturally on the stacked shape
    ``(K,) + grid_shape``, so batch size participates in the key
    without special handling.

    Parameters
    ----------
    max_per_key:
        Buffers retained per ``(shape, dtype)`` key; further releases
        are dropped (garbage-collected) so a burst of differently-sized
        problems cannot pin unbounded memory.

    Notes
    -----
    Buffers are returned **dirty**: :meth:`acquire` with ``zero=True``
    (the default) memsets a reused buffer before handing it out, which
    is still cheaper than allocating — the allocation *and* the
    first-touch page faults are gone, and ``resident_bytes`` stays flat
    across iterations instead of churning.

    Examples
    --------
    >>> pool = GridBufferPool()
    >>> a = pool.acquire((4, 4))
    >>> pool.release(a)
    >>> b = pool.acquire((4, 4))
    >>> b is a, pool.hits, pool.misses
    (True, 1, 1)
    """

    def __init__(self, max_per_key: int = 4):
        if max_per_key < 1:
            raise ValueError(f"max_per_key must be >= 1, got {max_per_key}")
        self.max_per_key = int(max_per_key)
        self._free: dict[tuple, list[np.ndarray]] = {}
        #: ``id()`` of every buffer currently on loan — release of an
        #: array the pool never handed out (or a double release) would
        #: silently corrupt ``outstanding``/``resident_bytes``, so it
        #: raises instead
        self._live: set[int] = set()
        #: buffers handed out from the free list / freshly allocated
        self.hits: int = 0
        self.misses: int = 0
        #: cumulative bytes freshly allocated on misses — callers diff
        #: this around a transform to charge allocator traffic per call
        self.miss_bytes: int = 0
        #: bytes currently owned by the pool (free + outstanding)
        self.resident_bytes: int = 0
        #: high-water mark of ``resident_bytes``
        self.peak_bytes: int = 0
        #: buffers acquired but not yet released — must return to 0
        #: after every public call, even when the call raises (the
        #: chaos suite asserts this balance)
        self.outstanding: int = 0

    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple:
        return (tuple(int(n) for n in shape), np.dtype(dtype).str)

    def acquire(
        self,
        shape: tuple[int, ...],
        dtype=np.complex128,
        zero: bool = True,
    ) -> np.ndarray:
        """A buffer of ``shape``/``dtype`` — reused when one is free.

        Parameters
        ----------
        shape, dtype:
            Requested buffer geometry (the pool key).
        zero:
            Memset the buffer before returning it (required by
            scatter-accumulate users; gather users can skip it).
        """
        key = self._key(shape, dtype)
        free = self._free.get(key)
        self.outstanding += 1
        if free:
            buf = free.pop()
            self.hits += 1
            if zero:
                buf[...] = 0
            self._live.add(id(buf))
            return buf
        self.misses += 1
        buf = (np.zeros if zero else np.empty)(key[0], dtype=dtype)
        self.miss_bytes += buf.nbytes
        self.resident_bytes += buf.nbytes
        self.peak_bytes = max(self.peak_bytes, self.resident_bytes)
        self._live.add(id(buf))
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` to the free list (dropped when the key is full).

        Raises
        ------
        ValueError
            If ``buf`` was not acquired from this pool or was already
            released (either would silently skew the
            ``outstanding``/``resident_bytes`` accounting).
        """
        if id(buf) not in self._live:
            raise ValueError(
                "release of a buffer not currently on loan from this pool "
                "(foreign array or double release)"
            )
        self._live.discard(id(buf))
        self.outstanding -= 1
        key = self._key(buf.shape, buf.dtype)
        free = self._free.setdefault(key, [])
        if len(free) < self.max_per_key:
            free.append(buf)
        else:
            self.resident_bytes -= buf.nbytes

    def snapshot(self) -> PoolSnapshot:
        """Freeze the counters into an immutable :class:`PoolSnapshot`.

        Counters are plain attributes local to this pool object, so a
        multi-pool deployment (one pool per service worker) has no
        global view by default; snapshots are the merge-friendly unit
        the ``/stats`` plumbing aggregates.
        """
        return PoolSnapshot(
            hits=self.hits,
            misses=self.misses,
            miss_bytes=self.miss_bytes,
            resident_bytes=self.resident_bytes,
            peak_bytes=self.peak_bytes,
            outstanding=self.outstanding,
        )

    def clear(self) -> None:
        """Drop every free buffer (outstanding ones are untouched)."""
        for free in self._free.values():
            for buf in free:
                self.resident_bytes -= buf.nbytes
        self._free.clear()
