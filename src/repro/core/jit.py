"""Numba-JIT execution lanes for the compiled scatter-plan engine.

The compiled engine (:mod:`repro.core.compiled`) runs a warm call as
one SciPy sparse mat-vec per RHS at complex128, and as a gather plus
float64 ``bincount`` passes at complex64.  This module fuses each
direction into a single compiled loop over the plan's fixed-width,
sample-major entries (``flat`` / ``weight`` viewed as ``(M, W^d)``):

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
contiguous row of the plan).

Numerics
--------
Per dice word the entries run in ascending sample order and per sample
in ascending dice row, so the serial entry-order loops perform the
same additions on the same products in the same order as
``np.bincount`` and SciPy's mat-vec loops — the serial JIT lane is
**bit-identical** to the NumPy lanes at complex128.  The parallel
variants preserve *per-accumulator* addition order (rows keep
ascending samples inside their slab; samples accumulate their
contiguous row in order), so they are bit-identical to the serial lane
as well.  At complex64 the lanes differ by design: ``np.bincount``
up-casts float32 products and accumulates in float64 before rounding
back, while the JIT lanes accumulate natively in float32 — the
difference is bounded by the usual ``O(sqrt(nnz/m)) * eps_f32``
segment-sum error and gated at NRMSD <= 1e-6 in the identity tests.

Degradation
-----------
numba is an **optional** dependency.  When it is not importable (or
disabled via ``REPRO_JIT_DISABLE=numba``), the engine constructs fine,
records a :class:`repro.errors.DegradationEvent` (``jit`` ->
``numpy``), and runs every call on the parent's pure-NumPy path — same
supervised-demotion contract as the FFT and worker chains (PR 5).  A
runtime JIT failure (including the chaos suite's ``jit:scatter`` /
``jit:gather`` injection sites) demotes stickily the same way and the
call is transparently re-run on NumPy.  The raw loop bodies below are
plain Python functions wrapped by ``njit`` only at first use, so this
module (and the identity tests, on small plans) work without numba
installed.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import DegradationEvent
from ..gridding.base import GriddingSetup
from ..robustness.faults import fault_point
from .compiled import CompiledPlan, CompiledSliceAndDiceGridder

try:  # pragma: no cover - exercised via the CI jit job's numba leg
    import numba as _numba
    from numba import prange as _prange
except ImportError:
    _numba = None
    _prange = range

__all__ = [
    "JitSliceAndDiceGridder",
    "jit_available",
    "numba_version",
    "scatter_plan_entries",
    "scatter_plan_rows",
    "gather_plan_entries",
    "gather_plan_samples",
]

#: comma-separated env list marking JIT backends unavailable without
#: uninstalling them (mirrors ``REPRO_FFT_DISABLE``); ``numba`` is the
#: only recognized token today
JIT_DISABLE_ENV = "REPRO_JIT_DISABLE"


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
# the engine
# ----------------------------------------------------------------------


def _entries(plan: CompiledPlan) -> tuple[np.ndarray, np.ndarray]:
    """The plan's ``(M, W^d)`` sample-major ``(flat, weight)`` views."""
    return plan.flat.reshape(plan.m, -1), plan.weight.reshape(plan.m, -1)


_LANES = ("auto", "numba-parallel", "numba-serial", "numpy")


class JitSliceAndDiceGridder(CompiledSliceAndDiceGridder):
    """Compiled scatter-plan engine with numba-fused execution lanes.

    Identical plan compilation, caching, chunking, and staging to
    :class:`~repro.core.CompiledSliceAndDiceGridder`; only the per-call
    arithmetic over the plan entries is swapped for the fused loops of
    this module.  ``stats.exec_lane`` reports the lane every call
    actually ran on.

    Parameters
    ----------
    setup:
        Shared problem description (same constraints as the parent).
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).
    lane:
        ``"auto"`` (default — parallel for plans at or above
        ``parallel_threshold`` entries, serial below, where thread
        launch overhead would dominate), ``"numba-parallel"``,
        ``"numba-serial"``, or ``"numpy"`` (parent path, for A/B
        comparison).  Requests for a numba lane degrade to ``"numpy"``
        with a recorded :class:`~repro.errors.DegradationEvent` when
        numba is unavailable, and stickily on a runtime JIT failure.
        Chunk plans are used once, so chunked passes run the serial
        kernels (no per-chunk row-major argsort).
    parallel_threshold:
        Plan-entry count at which ``lane="auto"`` switches from the
        serial to the parallel kernels.
    plan_cache_size, chunk_samples:
        As in the parent.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> jit = make_gridder("slice_and_dice_jit", setup)
    >>> ref = make_gridder("slice_and_dice_compiled", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.allclose(jit.grid(coords, values),
    ...                  ref.grid(coords, values), rtol=1e-12, atol=0))
    True
    >>> jit.stats.exec_lane in ("numba-serial", "numba-parallel", "numpy")
    True
    """

    name = "slice_and_dice_jit"

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        lane: str = "auto",
        parallel_threshold: int = 1 << 15,
        plan_cache_size: int = 4,
        chunk_samples: int | None = None,
    ):
        super().__init__(
            setup, tile_size=tile_size, plan_cache_size=plan_cache_size,
            chunk_samples=chunk_samples,
        )
        if lane not in _LANES:
            raise ValueError(f"lane must be one of {_LANES}, got {lane!r}")
        self.requested_lane = lane
        self.parallel_threshold = int(parallel_threshold)
        if lane != "numpy" and not jit_available():
            reason = (
                f"numba disabled via {JIT_DISABLE_ENV}"
                if _numba is not None
                else "numba not importable"
            )
            self._record(DegradationEvent("jit", lane, "numpy", reason))
            self._lane = "numpy"
        else:
            self._lane = lane

    # -- supervised demotion -------------------------------------------
    def _demote(self, lane: str, exc: BaseException) -> None:
        """Sticky demotion to the parent's NumPy path (PR 5 contract):
        record once, never retry the failed lane on this instance."""
        self._record(DegradationEvent("jit", lane, "numpy", repr(exc)))
        self._lane = "numpy"

    def _select_lane(self, nnz: int) -> str:
        lane = self._lane
        if lane == "auto":
            big = nnz >= self.parallel_threshold
            lane = "numba-parallel" if big else "numba-serial"
        if lane == "numba-parallel" and self.chunk_samples is not None:
            return "numba-serial"
        return lane

    # -- fused plan execution ------------------------------------------
    def _apply_grid(
        self,
        plan: CompiledPlan,
        values_stack: np.ndarray,
        dice_flat: np.ndarray,
        fresh: bool,
    ) -> None:
        """The kernels add into the dice in entry order.  Dispatch and
        compile failures (and the injected fault) fire before any entry
        is written, so a demoted call re-runs on NumPy without
        double-counting."""
        lane = self._select_lane(plan.nnz)
        if lane != "numpy":
            try:
                fault_point("jit:scatter")
                kernels = _compiled()
                flat, weight = _entries(plan)
                if lane == "numba-parallel":
                    order, starts = plan.row_view()
                    kernels["scatter-parallel"](
                        values_stack, flat, weight, order, starts, dice_flat
                    )
                else:
                    kernels["scatter-serial"](values_stack, flat, weight, dice_flat)
                self._used_lane = lane
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self._demote(lane, exc)
                if fresh:
                    dice_flat[...] = 0
        self._used_lane = "numpy"
        super()._apply_grid(plan, values_stack, dice_flat, fresh)

    def _apply_interp(
        self, plan: CompiledPlan, dice_flat: np.ndarray, out: np.ndarray
    ) -> None:
        lane = self._select_lane(plan.nnz)
        if lane != "numpy":
            try:
                fault_point("jit:gather")
                kind = "parallel" if lane == "numba-parallel" else "serial"
                out[...] = 0  # the kernels seed each sample's sum from it
                _compiled()[f"gather-{kind}"](dice_flat, *_entries(plan), out)
                self._used_lane = lane
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self._demote(lane, exc)
        self._used_lane = "numpy"
        super()._apply_interp(plan, dice_flat, out)
