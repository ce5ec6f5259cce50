"""Trajectory-compiled scatter plans for Slice-and-Dice gridding.

The Slice-and-Dice select pass is *coordinate-only* (§IV): which
``(sample, column)`` pairs pass the two-part boundary check, which tile
each pair lands in, and what its separable kernel weight is depend on
the trajectory alone — never on the sample values.  JIGSAW exploits
this in hardware by streaming the select units once per sample; the
software counterpart is to run the select pass **once per trajectory**
and compile its result into three flat arrays over the exact
``M * W^d`` passing checks:

- ``sample_idx`` — which sample contributes,
- ``flat_idx``   — the global dice address ``row * n_tiles + depth``,
- ``weight``     — the combined separable kernel weight.

With the plan in hand, adjoint gridding is a single fancy-index gather
plus one pair of :func:`np.bincount` calls per right-hand side into the
raveled ``(n_columns * n_tiles)`` dice, and forward interpolation is
one gather plus one segment-sum (again ``bincount``) per RHS — no
boundary-check arithmetic, no per-column Python loop, no LUT reads.
Per-call cost drops from ``O(M * T^d)`` to ``O(M * W^d)``, which is the
payoff case for iterative reconstruction: every CG iteration and every
SENSE coil pass after the first reuses the plan and does **zero select
work** (``stats.cache_hits`` / ``stats.boundary_checks == 0`` make this
observable per call).

Bit-identity
------------
The plan stores entries in **row-major order**: columns (rows of the
dice) ascending, and within each row the passing samples ascending —
exactly the order :meth:`SliceAndDiceGridder._flatten_select` emits and
the serial engine visits.  ``np.bincount`` accumulates its weights
sequentially in array order, so

- per ``(row, depth)`` dice word, adjoint contributions sum in
  ascending sample order — the serial engine's per-column ``bincount``
  order, and
- per sample, forward contributions sum in ascending row order — the
  serial engine's row-loop order,

both starting from ``0.0`` (``0.0 + x == x`` exactly).  The weights
themselves are produced by the very same ``_select_column``
expressions the serial engine evaluates.  Hence the ``bincount``
backend is **bit-identical** (``np.array_equal``) to
:class:`SliceAndDiceGridder` in both directions — asserted in
``tests/test_core_compiled.py``.

The optional ``backend="csr"`` hands the same triplets to
``scipy.sparse`` and evaluates each RHS as a CSR matvec (``A^T x`` via
the transposed CSC view for interpolation).  SciPy's fused
gather-multiply-scatter C loop roughly halves the memory traffic of
the bincount path — numpy cannot fuse those three passes — which is
why it is the fastest warm path.  It accumulates in matrix order too,
but its C routines may use different intermediate rounding, so the CSR
backend is documented as ``allclose(rtol=1e-12)`` rather than
bit-identical.

Plan cache
----------
Plans are memoized per trajectory with the same O(1)
``_coords_fingerprint`` keying and true-LRU eviction as the select
tables, and the same contract: in-place coordinate mutation requires
:meth:`invalidate_cache`.  The per-axis tables themselves are only a
*transient* input to compilation here (``table_cache_size=0`` by
default) — the plan replaces them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..gridding.base import GriddingSetup, GriddingStats
from .slice_and_dice import SliceAndDiceGridder

try:  # pragma: no cover - scipy is an install requirement, but degrade
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover
    _sparse = None

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
    "plan_stats",
]


@dataclass
class CompiledPlan:
    """A trajectory's select pass, flattened to scatter-plan arrays.

    Entries are stored in row-major order (dice rows ascending, samples
    ascending within a row) — the property both bincount directions'
    bit-identity rests on (module docstring).  ``row_starts[r] :
    row_starts[r + 1]`` is row ``r``'s contiguous slice, which is what
    the jit engine's row-sharded scatter slabs on.
    """

    sample_idx: np.ndarray  #: int64 ``(nnz,)`` contributing sample per entry
    flat_idx: np.ndarray    #: int64 ``(nnz,)`` global dice address per entry
    weight: np.ndarray      #: ``setup.real_dtype`` ``(nnz,)`` separable kernel weight
    row_starts: np.ndarray  #: int64 ``(n_rows + 1,)`` per-row slice offsets
    m: int                  #: samples in the compiled trajectory
    n_rows: int             #: dice rows (``T^d`` columns)
    n_tiles: int            #: dice depth (tiles per column)
    compile_seconds: float  #: wall-clock of the flatten pass
    table_build_seconds: float  #: wall-clock of the transient table build
    table_bytes: int        #: bytes of the transient per-axis tables
    _sample_order: np.ndarray | None = field(default=None, repr=False)
    _sample_starts: np.ndarray | None = field(default=None, repr=False)
    _csr: object | None = field(default=None, repr=False)
    _csr_dtype: object | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        """Passing checks compiled into the plan (``M * W^d`` in the
        interior; fewer only if the kernel LUT zeroes edge weights)."""
        return int(self.sample_idx.size)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the plan's flat arrays."""
        total = (
            self.sample_idx.nbytes
            + self.flat_idx.nbytes
            + self.weight.nbytes
            + self.row_starts.nbytes
        )
        if self._sample_order is not None:
            total += self._sample_order.nbytes + self._sample_starts.nbytes
        return int(total)

    def sample_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazy sample-major view: ``(order, starts)``.

        ``order`` is the **stable** argsort of ``sample_idx`` — within
        one sample, entries keep their row-ascending plan order, so a
        pass over ``order[starts[lo]:starts[hi]]`` accumulates each
        sample's contributions in exactly the serial row order.  This
        is the slab structure the jit engine's sample-sharded gather
        uses; the full-pass bincount path does not need it.
        """
        if self._sample_order is None:
            self._sample_order = np.argsort(self.sample_idx, kind="stable")
            counts = np.bincount(self.sample_idx, minlength=self.m)
            starts = np.zeros(self.m + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            self._sample_starts = starts
        return self._sample_order, self._sample_starts

    def csr(self, dtype=np.complex128):
        """Lazy ``(n_rows * n_tiles, m)`` CSR matrix of the plan.

        ``(flat_idx, sample_idx)`` pairs are unique (``W <= T`` gives at
        most one passing point per column per sample), so the COO->CSR
        conversion never merges duplicates.  The data is stored in the
        requested complex ``dtype`` (the setup's working dtype): the
        weights are real, but a complex-typed matrix lets SciPy's fused
        gather-multiply-scatter loop run directly on complex sample
        vectors instead of upcasting the matrix on every call — and a
        complex64 matrix halves the matvec traffic for a complex64
        setup.  The cache is invalidated when ``dtype`` changes (one
        plan serves one setup in practice, so this never thrashes).
        """
        dtype = np.dtype(dtype)
        if self._csr is None or self._csr_dtype != dtype:
            if _sparse is None:  # pragma: no cover - scipy always present
                raise ImportError(
                    "backend='csr' requires scipy; install scipy or use "
                    "the default backend='bincount'"
                )
            self._csr = _sparse.csr_matrix(
                (self.weight.astype(dtype),
                 (self.flat_idx, self.sample_idx)),
                shape=(self.n_rows * self.n_tiles, self.m),
            )
            self._csr_dtype = dtype
        return self._csr


def plan_stats(
    ndim: int,
    n_columns: int,
    m: int,
    n_rhs: int,
    plan: CompiledPlan,
    hit: bool,
    dice_bytes: int = 0,
) -> GriddingStats:
    """Per-call stats for a compiled-plan pass.

    A plan **miss** pays the full select pass once — ``M * T^d``
    boundary checks, ``nnz * d`` LUT reads, and ``M * T^d`` issued lane
    slots (the compile is the streaming pass) — plus the recorded
    table-build and plan-compile seconds.  A plan **hit** is the paper's
    select-unit-reuse payoff: zero boundary checks, zero LUT reads, and
    every issued lane slot does useful work (``simd_active_lanes ==
    simd_lane_slots == nnz`` — the gather has no divergence to waste
    slots on).  Value work (``interpolations`` MACs, dice accesses)
    always scales with the batch.

    ``dice_bytes`` is the caller's dice + scratch residency; the
    reported ``peak_bytes`` adds the plan itself and — on a miss — the
    transient select tables, giving the pass' true transient high
    water instead of the pooled-buffer bytes alone.
    """
    return GriddingStats(
        boundary_checks=0 if hit else m * n_columns,
        interpolations=plan.nnz * n_rhs,
        samples_processed=m,
        presort_operations=0,
        grid_accesses=plan.nnz * n_rhs,
        lut_lookups=0 if hit else plan.nnz * ndim,
        simd_active_lanes=plan.nnz,
        simd_lane_slots=plan.nnz if hit else m * n_columns,
        cache_hits=1 if hit else 0,
        cache_misses=0 if hit else 1,
        table_build_seconds=0.0 if hit else plan.table_build_seconds,
        table_bytes=0 if hit else plan.table_bytes,
        plan_compile_seconds=0.0 if hit else plan.compile_seconds,
        plan_nnz=plan.nnz,
        peak_bytes=(
            dice_bytes + plan.nbytes + (0 if hit else plan.table_bytes)
        ),
    )


class CompiledSliceAndDiceGridder(SliceAndDiceGridder):
    """Slice-and-Dice with the select pass compiled per trajectory.

    First call on a trajectory builds the per-axis tables (transient),
    flattens them into a :class:`CompiledPlan`, and caches the plan;
    every subsequent call — every further CG iteration, coil, or RHS —
    is a gather plus bincounts with **zero select work**.

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).
    backend:
        ``"bincount"`` (default; bit-identical to the serial engine) or
        ``"csr"`` (scipy CSR mat-mat; ``allclose(rtol=1e-12)``).
    plan_cache_size:
        Trajectories whose compiled plans are kept (true LRU; ``0``
        disables plan caching and recompiles every call).
    table_cache_size:
        Select-table cache of the parent class.  Defaults to ``0``
        here: the tables are only a transient compilation input, and
        keeping both them and the plan resident would double memory.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> com = make_gridder("slice_and_dice_compiled", setup)
    >>> ser = make_gridder("slice_and_dice", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.array_equal(com.grid(coords, values), ser.grid(coords, values)))
    True
    >>> com.stats.cache_misses, com.stats.plan_nnz     # compile call
    (1, 3600)
    >>> _ = com.grid(coords, values)
    >>> com.stats.cache_hits, com.stats.boundary_checks  # plan reuse
    (1, 0)
    """

    name = "slice_and_dice_compiled"

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        backend: str = "bincount",
        plan_cache_size: int = 4,
        table_cache_size: int = 0,
    ):
        super().__init__(
            setup,
            tile_size=tile_size,
            engine="columns",
            table_cache_size=table_cache_size,
        )
        if backend not in ("bincount", "csr"):
            raise ValueError(
                f"backend must be 'bincount' or 'csr', got {backend!r}"
            )
        if backend == "csr" and _sparse is None:  # pragma: no cover
            raise ImportError("backend='csr' requires scipy")
        if plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        self.backend = backend
        self.plan_cache_size = int(plan_cache_size)
        #: fingerprint -> CompiledPlan; dict order doubles as LRU order
        self._plan_cache: dict[tuple, CompiledPlan] = {}
        #: persistent ``(2, nnz)`` real gather scratch — re-allocated
        #: only when the plan size or dtype changes, never per RHS
        self._entry_scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop cached plans *and* the parent's cached select tables."""
        super().invalidate_cache()
        self._plan_cache.clear()
        self._entry_scratch = None

    def _plan_scratch(self, nnz: int) -> tuple[np.ndarray, np.ndarray]:
        """Real/imag ``(nnz,)`` gather scratch pair, reused across RHS
        *and* across calls on the same plan.

        Before this buffer existed, ``_apply_grid`` / ``_apply_interp``
        allocated two fresh ``(nnz,)`` arrays per RHS — at ``M * W^d``
        entries that churn dominated the warm adjoint's allocator
        traffic.  The pair lives in one ``(2, nnz)`` block so a plan
        swap costs a single re-allocation.
        """
        rd = self.setup.real_dtype
        sc = self._entry_scratch
        if sc is None or sc.shape[1] != nnz or sc.dtype != rd:
            sc = np.empty((2, max(nnz, 1)), dtype=rd)
            self._entry_scratch = sc
        return sc[0, :nnz], sc[1, :nnz]

    def _dice_bytes(self, plan: CompiledPlan, k_rhs: int) -> int:
        """Dice + gather-scratch residency of a ``K``-RHS pass (the
        ``dice_bytes`` input of :func:`plan_stats`)."""
        dice = k_rhs * plan.n_rows * plan.n_tiles * self.setup.dtype.itemsize
        scratch = 0 if self._entry_scratch is None else self._entry_scratch.nbytes
        return dice + scratch

    def _fetch_plan(self, coords: np.ndarray) -> tuple[CompiledPlan, bool]:
        """The trajectory's compiled plan plus whether it was a cache hit.

        Same fingerprint keying, LRU move-to-end, and in-place-mutation
        contract as the parent's table cache.
        """
        key = self._coords_fingerprint(coords) if self.plan_cache_size else None
        if key is not None:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.pop(key)
                self._plan_cache[key] = cached
                return cached, True

        tables, fetch = self._fetch_tables(coords)
        t0 = time.perf_counter()
        sample_idx, flat_idx, weight, row_starts = self._flatten_select(tables)
        compile_seconds = time.perf_counter() - t0
        plan = CompiledPlan(
            sample_idx=sample_idx,
            flat_idx=flat_idx,
            weight=weight,
            row_starts=row_starts,
            m=coords.shape[0],
            n_rows=self.layout.n_columns,
            n_tiles=self.layout.n_tiles,
            compile_seconds=compile_seconds,
            table_build_seconds=fetch.build_seconds,
            table_bytes=fetch.table_bytes,
        )
        if key is not None:
            while len(self._plan_cache) >= self.plan_cache_size:
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[key] = plan
        return plan, False

    # ------------------------------------------------------------------
    # gridding (adjoint): gather + bincount / CSR matvec
    # ------------------------------------------------------------------
    def _grid_impl(
        self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray
    ) -> None:
        plan, hit = self._fetch_plan(coords)
        dice_flat = self._apply_grid(plan, values[None, :])
        try:
            grid += self.layout.dice_to_grid(
                dice_flat[0].reshape(plan.n_rows, plan.n_tiles)
            )
        finally:
            self._release_buffer(dice_flat)
        self.stats = plan_stats(
            self.setup.ndim, self.layout.n_columns, coords.shape[0], 1, plan,
            hit, dice_bytes=self._dice_bytes(plan, 1),
        )

    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint gridding from the compiled plan.

        One plan fetch (hit after the first call per trajectory), then
        per RHS a gather and two ``bincount`` accumulates (or one CSR
        matvec with ``backend="csr"``).
        """
        k_rhs = values_stack.shape[0]
        plan, hit = self._fetch_plan(coords)
        dice_flat = self._apply_grid(plan, values_stack)
        try:
            for k in range(k_rhs):
                out[k] = self.layout.dice_to_grid(
                    dice_flat[k].reshape(plan.n_rows, plan.n_tiles)
                )
        finally:
            self._release_buffer(dice_flat)
        self.stats = plan_stats(
            self.setup.ndim, self.layout.n_columns, coords.shape[0], k_rhs,
            plan, hit, dice_bytes=self._dice_bytes(plan, k_rhs),
        )

    def _apply_grid(
        self, plan: CompiledPlan, values_stack: np.ndarray
    ) -> np.ndarray:
        """``(K, n_rows * n_tiles)`` raveled dice for a value stack.

        The dice always comes from :meth:`_acquire_buffer` (the CSR
        ``K=1`` path used to return a fresh matvec result, which the
        caller's release then pushed into the pool unacquired —
        corrupting the pool's outstanding-balance accounting) and is
        released back on any failure mid-fill.
        """
        k_rhs = values_stack.shape[0]
        n_flat = plan.n_rows * plan.n_tiles
        if self.backend == "csr":
            mat = plan.csr(self.setup.dtype)
            dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=False)
            try:
                for k in range(k_rhs):
                    dice_flat[k] = mat @ values_stack[k]
            except BaseException:
                self._release_buffer(dice_flat)
                raise
            return dice_flat
        dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=True)
        try:
            if plan.nnz:
                sample, flat, wgt = plan.sample_idx, plan.flat_idx, plan.weight
                re, im = self._plan_scratch(plan.nnz)
                for k in range(k_rhs):
                    # real/imag gathered separately into the persistent
                    # scratch pair: bincount's weight pass then runs on
                    # contiguous real data with no complex temp and no
                    # per-RHS allocation.  mode="clip" keeps take on its
                    # direct write path (mode="raise" buffers an extra
                    # (nnz,) temp); plan indices are validated at compile.
                    np.take(values_stack[k].real, sample, out=re, mode="clip")
                    np.take(values_stack[k].imag, sample, out=im, mode="clip")
                    re *= wgt
                    im *= wgt
                    dice_flat[k].real = np.bincount(flat, weights=re, minlength=n_flat)
                    dice_flat[k].imag = np.bincount(flat, weights=im, minlength=n_flat)
        except BaseException:
            self._release_buffer(dice_flat)
            raise
        return dice_flat

    # ------------------------------------------------------------------
    # interpolation (forward): gather + segment-sum / CSR matvec
    # ------------------------------------------------------------------
    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """Batched forward interpolation from the compiled plan.

        The transpose pass over the same plan: gather the raveled dice
        at ``flat_idx``, weight, and segment-sum per sample (``A^T x``
        with ``backend="csr"``).
        """
        k_rhs = grid_stack.shape[0]
        m = coords.shape[0]
        plan, hit = self._fetch_plan(coords)
        dice_flat = self._acquire_buffer(
            (k_rhs, plan.n_rows * plan.n_tiles), zero=False
        )
        try:
            for k in range(k_rhs):
                dice_flat[k] = self.layout.grid_to_dice(grid_stack[k]).reshape(-1)
            out = self._apply_interp(plan, dice_flat, m)
        finally:
            self._release_buffer(dice_flat)
        self.stats = plan_stats(
            self.setup.ndim, self.layout.n_columns, m, k_rhs, plan, hit,
            dice_bytes=self._dice_bytes(plan, k_rhs),
        )
        return out

    def _apply_interp(
        self, plan: CompiledPlan, dice_flat: np.ndarray, m: int
    ) -> np.ndarray:
        """``(K, m)`` interpolated samples from the raveled dice stack.

        The forward counterpart of :meth:`_apply_grid`, split out so
        execution-lane subclasses (the numba JIT engine) can replace
        the arithmetic while inheriting the dice staging, buffer
        lifecycle, and stats bookkeeping above.
        """
        k_rhs = dice_flat.shape[0]
        if self.backend == "csr":
            mat_t = plan.csr(self.setup.dtype).T  # CSC view, no copy
            if k_rhs == 1:
                return (mat_t @ dice_flat[0])[None]
            out = np.empty((k_rhs, m), dtype=self.setup.dtype)
            for k in range(k_rhs):
                out[k] = mat_t @ dice_flat[k]
            return out
        out = np.zeros((k_rhs, m), dtype=self.setup.dtype)
        if plan.nnz:
            sample, flat, wgt = plan.sample_idx, plan.flat_idx, plan.weight
            re, im = self._plan_scratch(plan.nnz)
            for k in range(k_rhs):
                np.take(dice_flat[k].real, flat, out=re, mode="clip")
                np.take(dice_flat[k].imag, flat, out=im, mode="clip")
                re *= wgt
                im *= wgt
                out[k].real = np.bincount(sample, weights=re, minlength=m)
                out[k].imag = np.bincount(sample, weights=im, minlength=m)
        return out

    # ------------------------------------------------------------------
    def address_trace(self, coords: np.ndarray) -> np.ndarray:
        """Dice addresses in processing order — exactly the plan's
        ``flat_idx`` (row-major), so the trace is free once compiled."""
        coords = self.setup.check_coords(coords)
        if coords.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        plan, _ = self._fetch_plan(coords)
        return plan.flat_idx.copy()
