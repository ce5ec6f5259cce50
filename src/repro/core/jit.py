"""Numba lane of the compiled scatter-plan engine (``backend="numba"``).

The compiled engine (:mod:`repro.core.compiled`) runs a warm call as
one SciPy sparse mat-vec per RHS (its ``"csr"`` lane), at both
precisions.  Its ``backend="numba"`` lane
fuses each direction into a single compiled loop over the plan's
fixed-width, sample-major entries (``flat`` / ``weight`` viewed as
``(M, W^d)``):

- **adjoint** (``scatter``): ``dice[k, flat[s, j]] +=
  values[k, s] * weight[s, j]``, one complex accumulate pass;
- **forward** (``gather``): ``out[k, s] += dice[k, flat[s, j]] *
  weight[s, j]``, the transpose segment-sum.

Each has a serial variant that walks the plan in entry order and a
``parallel=True`` ``prange`` variant sharded over the plan's natural
slab structure: **rows** for the adjoint (the stable row-major
:meth:`~repro.core.compiled.CompiledPlan.row_view` — each dice row is
owned by exactly one slab of it, so row-sharded scatters never race)
and **samples** for the forward (each sample's entries are one
contiguous row of the plan).  One-shot plans of at least
:data:`PARALLEL_MIN_NNZ` entries run the parallel kernels; smaller
plans, where thread launch overhead would dominate, and chunk plans,
which are used once (no per-chunk row-major argsort), run the serial
ones.

Numerics
--------
Per dice word the entries run in ascending sample order and per sample
in ascending dice row, so the serial entry-order loops perform the
same additions on the same products in the same order as the serial
engine's ``np.bincount`` and SciPy's mat-vec loops — the serial numba
lane is **bit-identical** to the csr lane at complex128.  The parallel
variants preserve *per-accumulator* addition order (rows keep
ascending samples inside their slab; samples accumulate their
contiguous row in order), so they are bit-identical to the serial lane
as well.  At complex64 the numba kernels accumulate natively in
float32, as the csr lane does, while the serial engine's adjoint
``np.bincount`` accumulates in float64 before rounding back — the
difference is bounded by the usual ``O(sqrt(nnz/m)) * eps_f32``
segment-sum error and gated at NRMSD <= 1e-6 in the identity tests.

Degradation
-----------
numba is an **optional** dependency.  When it is not importable (or
disabled via ``REPRO_JIT_DISABLE=numba``), a ``backend="numba"`` engine
constructs fine, records a :class:`repro.errors.DegradationEvent`
(``jit`` -> ``numpy``), and runs every call on the csr lane — same
supervised-demotion contract as the FFT chain.  A runtime
kernel failure (including the chaos suite's ``jit:scatter`` /
``jit:gather`` injection sites) demotes stickily the same way and the
call is transparently re-run on NumPy.  The raw loop bodies below are
plain Python functions wrapped by ``njit`` only at first use, so this
module (and the identity tests, on small plans) work without numba
installed.
"""

from __future__ import annotations

import os

import numpy as np

from ..robustness.faults import fault_point

try:  # pragma: no cover - exercised via the CI jit job's numba leg
    import numba as _numba
    from numba import prange as _prange
except ImportError:
    _numba = None
    _prange = range

__all__ = [
    "PARALLEL_MIN_NNZ",
    "gather",
    "jit_available",
    "numba_version",
    "scatter",
    "scatter_plan_entries",
    "scatter_plan_rows",
    "gather_plan_entries",
    "gather_plan_samples",
]

#: comma-separated env list marking JIT backends unavailable without
#: uninstalling them (mirrors ``REPRO_FFT_DISABLE``); ``numba`` is the
#: only recognized token today
JIT_DISABLE_ENV = "REPRO_JIT_DISABLE"

#: plan entries at which a one-shot pass switches from the serial to
#: the ``prange``-sharded kernels (and a csr plan from one band to the
#: banded layout of :mod:`repro.core.compiled`)
PARALLEL_MIN_NNZ = 1 << 15


def jit_available() -> bool:
    """Whether the numba lanes can run: numba imports and is not
    disabled via ``REPRO_JIT_DISABLE`` (checked per call so tests can
    toggle the environment without reloading the module)."""
    if _numba is None:
        return False
    disabled = {
        tok.strip()
        for tok in os.environ.get(JIT_DISABLE_ENV, "").split(",")
        if tok.strip()
    }
    return "numba" not in disabled


def numba_version() -> str | None:
    """The imported numba's version string, or ``None`` when absent."""
    return None if _numba is None else _numba.__version__


# ----------------------------------------------------------------------
# raw loop bodies — plain Python, njit-wrapped lazily in _compiled()
# ----------------------------------------------------------------------


def scatter_plan_entries(values_stack, flat, weight, dice_flat):
    """Serial fused adjoint: accumulate the entries in entry order.

    ``flat`` / ``weight`` are the ``(M, W^d)`` sample-major entries
    (row ``s`` holds sample ``s``'s entries), so per dice word the
    additions happen in ascending-sample order — exactly
    ``np.bincount``'s per-bin order (bit-identical at complex128).
    """
    for k in range(values_stack.shape[0]):
        for s in range(flat.shape[0]):
            v = values_stack[k, s]
            for j in range(flat.shape[1]):
                dice_flat[k, flat[s, j]] += v * weight[s, j]


def scatter_plan_rows(values_stack, flat, weight, order, starts, dice_flat):
    """Row-sharded fused adjoint (``prange`` over dice rows).

    ``(order, starts)`` is the plan's stable row-major view
    (:meth:`~repro.core.compiled.CompiledPlan.row_view`): raveled entry
    indices grouped by dice row, ascending inside each row.  Every
    entry of row ``r`` lands in dice row ``r``, so concurrent rows never
    touch the same accumulator, and in-row entry order is preserved —
    numerically identical to :func:`scatter_plan_entries`.
    """
    per = flat.shape[1]
    for k in range(values_stack.shape[0]):
        for r in _prange(starts.shape[0] - 1):
            for i in range(starts[r], starts[r + 1]):
                e = order[i]
                s = e // per
                j = e - s * per
                dice_flat[k, flat[s, j]] += values_stack[k, s] * weight[s, j]


def gather_plan_entries(dice_flat, flat, weight, out):
    """Serial fused forward: each sample's entries summed in entry
    order, i.e. ascending dice row — the serial engine's row-loop order
    and ``np.bincount``'s per-bin order (``out`` must arrive zeroed —
    its slot seeds the typed accumulator)."""
    for k in range(dice_flat.shape[0]):
        for s in range(flat.shape[0]):
            acc = out[k, s]
            for j in range(flat.shape[1]):
                acc = acc + dice_flat[k, flat[s, j]] * weight[s, j]
            out[k, s] = acc


def gather_plan_samples(dice_flat, flat, weight, out):
    """Sample-sharded fused forward (``prange`` over samples).

    Each sample's entries are one contiguous row of the sample-major
    plan, so a sample's register accumulation performs the serial
    additions in the serial order — numerically identical to
    :func:`gather_plan_entries`."""
    for k in range(dice_flat.shape[0]):
        for s in _prange(flat.shape[0]):
            acc = out[k, s]
            for j in range(flat.shape[1]):
                acc = acc + dice_flat[k, flat[s, j]] * weight[s, j]
            out[k, s] = acc


_COMPILED: dict[str, object] | None = None


def _compiled() -> dict[str, object]:
    """The njit dispatchers, compiled once per process on first use.

    numba's lazy dispatch specializes each dispatcher per argument
    dtype signature, so complex64 and complex128 calls each get native
    machine loops (float32/float64 accumulators respectively) from the
    same source."""
    global _COMPILED
    if _COMPILED is None:
        njit = _numba.njit
        _COMPILED = {
            "scatter-serial": njit(cache=False)(scatter_plan_entries),
            "scatter-parallel": njit(parallel=True, cache=False)(
                scatter_plan_rows
            ),
            "gather-serial": njit(cache=False)(gather_plan_entries),
            "gather-parallel": njit(parallel=True, cache=False)(
                gather_plan_samples
            ),
        }
    return _COMPILED


# ----------------------------------------------------------------------
# plan execution
# ----------------------------------------------------------------------


def _entries(plan) -> tuple[np.ndarray, np.ndarray]:
    """A :class:`~repro.core.compiled.CompiledPlan`'s ``(M, W^d)``
    sample-major ``(flat, weight)`` views."""
    return plan.flat.reshape(plan.m, -1), plan.weight.reshape(plan.m, -1)


def scatter(plan, values_stack, dice_flat, parallel: bool) -> None:
    """Add ``plan`` applied to a ``(K, m)`` value stack into the
    ``(K, n_flat)`` raveled dice, in entry order.

    Dispatch and compile failures (and the injected ``jit:scatter``
    fault) raise before any entry is written, so the caller can re-run
    the pass on NumPy without double-counting.
    """
    fault_point("jit:scatter")
    kernels = _compiled()
    flat, weight = _entries(plan)
    if parallel:
        order, starts = plan.row_view()
        kernels["scatter-parallel"](values_stack, flat, weight, order, starts, dice_flat)
    else:
        kernels["scatter-serial"](values_stack, flat, weight, dice_flat)


def gather(plan, dice_flat, out, parallel: bool) -> None:
    """Fill ``out`` (``(K, m)``) with ``plan`` applied to the raveled
    dice stack (the injected fault site is ``jit:gather``)."""
    fault_point("jit:gather")
    kernel = _compiled()["gather-parallel" if parallel else "gather-serial"]
    out[...] = 0  # the kernels seed each sample's sum from it
    kernel(dice_flat, *_entries(plan), out)
