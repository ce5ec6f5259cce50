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
    "plan_kernels",
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


def plan_kernels(jit: bool = True) -> dict[str, object]:
    """Entry-order scatter/gather kernels for plan execution.

    With ``jit=True`` (and numba importable / not disabled) the
    returned callables are the njit dispatchers of :func:`_compiled`;
    otherwise they are the raw Python loop bodies — same arithmetic in
    the same order, just interpreted.  The streaming engine uses this
    to run its per-chunk accumulates on whichever lane is available
    without duplicating the loop bodies.
    """
    if jit and jit_available():
        return dict(_compiled())
    return {
        "scatter-serial": scatter_plan_entries,
        "gather-serial": gather_plan_entries,
    }


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

    Identical plan compilation, caching, and staging to
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
    parallel_threshold:
        Plan-entry count at which ``lane="auto"`` switches from the
        serial to the parallel kernels.
    plan_cache_size:
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
    ):
        super().__init__(
            setup, tile_size=tile_size, plan_cache_size=plan_cache_size
        )
        if lane not in _LANES:
            raise ValueError(f"lane must be one of {_LANES}, got {lane!r}")
        self.requested_lane = lane
        self.parallel_threshold = int(parallel_threshold)
        #: sticky record of every demotion this engine performed
        self.degradations: tuple[DegradationEvent, ...] = ()
        self._pending_events: list[DegradationEvent] = []
        self._used_lane = "numpy"
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
    def _record(self, event: DegradationEvent) -> None:
        self.degradations = self.degradations + (event,)
        self._pending_events.append(event)

    def _demote(self, lane: str, exc: BaseException) -> None:
        """Sticky demotion to the parent's NumPy path (PR 5 contract):
        record once, never retry the failed lane on this instance."""
        self._record(DegradationEvent("jit", lane, "numpy", repr(exc)))
        self._lane = "numpy"

    def _select_lane(self, nnz: int) -> str:
        if self._lane == "auto":
            if nnz >= self.parallel_threshold:
                return "numba-parallel"
            return "numba-serial"
        return self._lane

    # -- fused plan execution ------------------------------------------
    def _apply_grid(
        self, plan: CompiledPlan, values_stack: np.ndarray
    ) -> np.ndarray:
        lane = self._select_lane(plan.nnz)
        if lane == "numpy" or plan.nnz == 0:
            self._used_lane = "numpy"
            return super()._apply_grid(plan, values_stack)
        k_rhs = values_stack.shape[0]
        n_flat = plan.n_rows * plan.n_tiles
        dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=True)
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
        except (KeyboardInterrupt, SystemExit):
            self._release_buffer(dice_flat)
            raise
        except BaseException as exc:
            self._release_buffer(dice_flat)
            self._demote(lane, exc)
            self._used_lane = "numpy"
            return super()._apply_grid(plan, values_stack)
        self._used_lane = lane
        return dice_flat

    def _apply_interp(
        self, plan: CompiledPlan, dice_flat: np.ndarray, m: int
    ) -> np.ndarray:
        lane = self._select_lane(plan.nnz)
        if lane == "numpy" or plan.nnz == 0:
            self._used_lane = "numpy"
            return super()._apply_interp(plan, dice_flat, m)
        out = np.zeros((dice_flat.shape[0], m), dtype=self.setup.dtype)
        try:
            fault_point("jit:gather")
            kind = "parallel" if lane == "numba-parallel" else "serial"
            _compiled()[f"gather-{kind}"](dice_flat, *_entries(plan), out)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            self._demote(lane, exc)
            self._used_lane = "numpy"
            return super()._apply_interp(plan, dice_flat, m)
        self._used_lane = lane
        return out

    # -- stats stamping -------------------------------------------------
    def _stamp_lane(self) -> None:
        """Attach the executed lane and any degradation events fired
        since the last stamp to the freshly-built stats (the parent
        impls replace ``self.stats`` after plan execution)."""
        self.stats.exec_lane = self._used_lane
        if self._pending_events:
            self.stats.degradations = self.stats.degradations + tuple(
                self._pending_events
            )
            self._pending_events = []

    def _grid_impl(self, coords, values, grid) -> None:
        super()._grid_impl(coords, values, grid)
        self._stamp_lane()

    def _grid_batch_impl(self, coords, values_stack, out) -> None:
        super()._grid_batch_impl(coords, values_stack, out)
        self._stamp_lane()

    def _interp_batch_impl(self, grid_stack, coords) -> np.ndarray:
        out = super()._interp_batch_impl(grid_stack, coords)
        self._stamp_lane()
        return out
