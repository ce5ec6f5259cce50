"""Policy-driven input-quality gate for coordinates and sample streams.

Non-finite inputs used to corrupt silently: ``np.mod(nan, G) = nan``
flowed through the Slice-and-Dice ``divmod`` decomposition as garbage
tile indices, and a single NaN k-space sample poisoned the whole grid
through ``bincount``.  Every gridding/NuFFT entry point now routes its
inputs through :func:`apply_quality_policy` first, under one of three
policies:

``"raise"`` (default)
    Non-finite coordinates raise :class:`~repro.errors.CoordinateError`;
    non-finite sample values raise
    :class:`~repro.errors.DataQualityError`.  Clean inputs pass through
    untouched (same array objects — zero copies, bit-identity
    trivially preserved).
``"drop"``
    Samples with any non-finite coordinate or value are removed from
    the stream before the engine runs.  (Shape-preserving callers —
    forward interpolation, the NuFFT plan — keep the slot and zero the
    corresponding output instead.)
``"zero"``
    Non-finite values are replaced with ``0``; samples with non-finite
    coordinates keep their slot but are moved to the origin with value
    ``0``, so they contribute nothing.  Array shapes are preserved.

Every gated call produces a :class:`DataQualityReport` (counts of
dropped / zeroed / wrapped samples) surfaced through
``GriddingStats.quality`` and ``NufftTimings.quality``, so degraded
data is observable, never silent.

The coordinate half of the gate is two reductions when the trajectory
is in range: :func:`coords_in_range` takes one flat ``amin``/``amax``
(plus a per-axis ``amax`` on rectangular grids).  A NaN poisons both
reductions and an Inf fails the bound, so only inputs that fail it pay
the full per-sample scan that counts wrapped and non-finite samples.
Reports are the same either way.  The values check (values change on
every call) runs on every call.

Examples
--------
>>> import numpy as np
>>> coords = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]])
>>> values = np.array([[1 + 0j, 2 + 0j, np.inf + 0j]])
>>> c, v, bad, rep = apply_quality_policy(coords, values, "drop", (8, 8))
>>> c.shape, v.shape, rep.dropped
((1, 2), (1, 1), 2)
>>> clean_c = np.array([[1.0, 2.0]])
>>> clean_v = np.array([[1 + 0j]])
>>> c2, v2, bad2, rep2 = apply_quality_policy(clean_c, clean_v, "raise", (8, 8))
>>> c2 is clean_c and v2 is clean_v and bad2 is None and rep2.clean
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CoordinateError, DataQualityError

__all__ = [
    "POLICIES",
    "DataQualityReport",
    "validate_policy",
    "count_nonfinite_rows",
    "coords_in_range",
    "apply_quality_policy",
]

#: the three supported handling policies for non-finite inputs
POLICIES = ("raise", "drop", "zero")


def validate_policy(policy: str) -> str:
    """Return ``policy`` if valid, else raise ``ValueError``."""
    if policy not in POLICIES:
        raise ValueError(f"quality policy must be one of {POLICIES}, got {policy!r}")
    return policy


@dataclass
class DataQualityReport:
    """Outcome of one input-quality gate pass.

    Attributes
    ----------
    policy:
        The policy that governed the pass.
    n_samples:
        Samples presented to the gate (before any dropping).
    nonfinite_coords:
        Samples with at least one NaN/Inf coordinate.
    nonfinite_values:
        Samples with a NaN/Inf value in at least one RHS.
    dropped:
        Samples physically removed from the stream (``policy="drop"``)
        or suppressed to zero output by shape-preserving callers.
    zeroed:
        Samples retained with their offending values replaced by zero
        (``policy="zero"``).
    wrapped:
        Finite samples outside ``[0, G)`` that the torus wrap
        canonicalized (not an error — reported for observability).

    Examples
    --------
    >>> r = DataQualityReport(policy="zero", n_samples=10, zeroed=2)
    >>> r.clean, r.as_dict()["zeroed"]
    (False, 2)
    """

    policy: str = "raise"
    n_samples: int = 0
    nonfinite_coords: int = 0
    nonfinite_values: int = 0
    dropped: int = 0
    zeroed: int = 0
    wrapped: int = 0

    @property
    def clean(self) -> bool:
        """True when no data-quality defect was found (torus-wrapped
        samples are normal gridding behavior and do not count)."""
        return (
            self.nonfinite_coords == 0
            and self.nonfinite_values == 0
            and self.dropped == 0
            and self.zeroed == 0
        )

    def as_dict(self) -> dict[str, int | str]:
        """All fields as a plain dict (stable keys)."""
        return {
            "policy": self.policy,
            "n_samples": self.n_samples,
            "nonfinite_coords": self.nonfinite_coords,
            "nonfinite_values": self.nonfinite_values,
            "dropped": self.dropped,
            "zeroed": self.zeroed,
            "wrapped": self.wrapped,
        }

    def accumulate(self, other: "DataQualityReport") -> None:
        """Sum another pass' counts into this one (batch aggregation)."""
        self.n_samples += other.n_samples
        self.nonfinite_coords += other.nonfinite_coords
        self.nonfinite_values += other.nonfinite_values
        self.dropped += other.dropped
        self.zeroed += other.zeroed
        self.wrapped += other.wrapped


def count_nonfinite_rows(array: np.ndarray) -> int:
    """Rows of a 2-D array containing at least one non-finite entry."""
    return int(np.count_nonzero(~np.isfinite(array).all(axis=1)))


def coords_in_range(coords: np.ndarray, grid_shape) -> bool:
    """True when every coordinate of ``(M, d)`` ``coords`` is finite and
    in ``[0, G)`` on its axis (vacuously true when ``coords`` is empty).

    Two-stage check.  The flat ``amin``/``amax`` is one contiguous SIMD
    reduce each; an axis-0 reduce on ``(M, d)`` is ~30x slower, so it
    only runs when the flat bound fails -- which on a square grid means
    some coordinate really is out of range, and on a rectangular grid
    catches coordinates that are valid per axis but exceed the smallest
    dim.  NaN poisons ``amin``/``amax`` and +-Inf fails the bound, so a
    ``False`` is all non-finite input can produce.

    Examples
    --------
    >>> coords_in_range(np.array([[0.0, 7.5], [-0.0, 3.0]]), (8, 8))
    True
    >>> coords_in_range(np.array([[0.0, 8.0]]), (8, 8))
    False
    >>> coords_in_range(np.array([[2.0, 12.0]]), (8, 16))
    True
    >>> coords_in_range(np.array([[np.nan, 1.0]]), (8, 8))
    False
    """
    if coords.size == 0:
        return True
    lo, hi = np.amin(coords), np.amax(coords)
    if not lo >= 0.0:
        return False
    if hi < min(grid_shape):
        return True
    return bool(
        hi < max(grid_shape)
        and np.all(np.amax(coords, axis=0) < np.asarray(grid_shape))
    )


def _count_wrapped(coords: np.ndarray, grid_shape) -> int:
    """Finite samples with any axis outside ``[0, G)`` (will be wrapped)."""
    if coords.size == 0:
        return 0
    shape = np.asarray(grid_shape, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        out_of_range = (coords < 0.0) | (coords >= shape)
    finite = np.isfinite(coords).all(axis=1)
    return int(np.count_nonzero(out_of_range.any(axis=1) & finite))


def apply_quality_policy(
    coords: np.ndarray,
    values_stack: np.ndarray | None,
    policy: str,
    grid_shape,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, DataQualityReport]:
    """Gate an ``(M, d)`` coordinate array and optional ``(K, M)`` values.

    Returns ``(coords, values_stack, bad_mask, report)``:

    - ``coords`` / ``values_stack`` — the gated stream.  Bit-identical
      (the *same objects*, no copies) when the input is clean.
    - ``bad_mask`` — boolean ``(M,)`` mask of offending samples in the
      **original** indexing, or ``None`` when clean.  Under ``"drop"``
      the returned arrays exclude these samples; shape-preserving
      callers use the mask to zero the corresponding outputs instead.
    - ``report`` — the :class:`DataQualityReport` for this pass.

    Raises
    ------
    CoordinateError
        Non-finite coordinates under ``policy="raise"``.
    DataQualityError
        Non-finite values under ``policy="raise"``.
    ValueError
        Unknown policy.
    """
    validate_policy(policy)
    report = DataQualityReport(policy=policy, n_samples=int(coords.shape[0]))
    if coords_in_range(coords, grid_shape):
        # every coordinate is finite and inside [0, G): nothing to wrap
        # or flag, so skip the per-sample scan
        coords_finite = np.ones(coords.shape[0], dtype=bool)
        n_bad_coords = 0
    else:
        report.wrapped = _count_wrapped(coords, grid_shape)
        coords_finite = np.isfinite(coords).all(axis=1)
        n_bad_coords = int(coords.shape[0] - np.count_nonzero(coords_finite))
        report.nonfinite_coords = n_bad_coords

    if values_stack is not None:
        values_finite = np.isfinite(values_stack.real).all(axis=0) & np.isfinite(
            values_stack.imag
        ).all(axis=0)
        report.nonfinite_values = int(np.count_nonzero(~values_finite))
    else:
        values_finite = None

    if n_bad_coords == 0 and report.nonfinite_values == 0:
        return coords, values_stack, None, report

    if policy == "raise":
        if n_bad_coords:
            idx = np.flatnonzero(~coords_finite)
            raise CoordinateError(
                f"{n_bad_coords} sample(s) have non-finite coordinates "
                f"(first at index {int(idx[0])}); pass policy='drop' or "
                "'zero' to degrade instead"
            )
        idx = np.flatnonzero(~values_finite)
        raise DataQualityError(
            f"{report.nonfinite_values} sample(s) have non-finite values "
            f"(first at index {int(idx[0])}); pass policy='drop' or "
            "'zero' to degrade instead"
        )

    bad = ~coords_finite
    if values_finite is not None:
        bad = bad | ~values_finite

    if policy == "drop":
        keep = ~bad
        report.dropped = int(np.count_nonzero(bad))
        coords = coords[keep]
        if values_stack is not None:
            values_stack = values_stack[:, keep]
        return coords, values_stack, bad, report

    # policy == "zero": preserve shapes; offending samples go to the
    # origin with value zero, contributing nothing to any accumulation
    report.zeroed = int(np.count_nonzero(bad))
    coords = coords.copy()
    coords[~coords_finite] = 0.0
    if values_stack is not None:
        values_stack = values_stack.copy()
        values_stack[:, bad] = 0.0
    return coords, values_stack, bad, report
