"""Trajectory-compiled scatter plans for Slice-and-Dice gridding.

The Slice-and-Dice select pass is *coordinate-only* (§IV): which
``(sample, column)`` pairs pass the two-part boundary check, which tile
each pair lands in, and what its separable kernel weight is depend on
the trajectory alone — never on the sample values.  JIGSAW exploits
this in hardware by streaming the select units once per sample; the
software counterpart is to run the select pass **once per trajectory**
and keep its result as a plan.  Every CG iteration and every SENSE coil
pass after the first reuses the plan and does **zero select work**
(``stats.cache_hits`` / ``stats.boundary_checks == 0`` make this
observable per call).

The plan
--------
The plan is the table-driven select of
:meth:`SliceAndDiceGridder._select_entries` — the one the streaming
engine runs per chunk — over the whole trajectory: fixed-width,
**sample-major** entries, ``W^d`` per sample in ascending dice row,

- ``flat``   — the global dice address ``row * n_tiles + depth``,
- ``weight`` — the combined separable kernel weight.

With ``indptr = arange(0, nnz + 1, W^d)`` the two arrays already are a
CSR matrix ``A`` of shape ``(M, n_rows * n_tiles)``, so wrapping them
in :mod:`scipy.sparse` copies nothing.  A warm pass is one sparse
mat-vec per right-hand side, on the complex vectors viewed as
``(n, 2)`` float arrays:

- forward interpolation ``A @ dice`` (SciPy's ``csr_matvecs``),
- adjoint gridding ``A.T @ values`` (the transposed CSC view,
  ``csc_matvecs``),

one fused C loop per direction where NumPy needs a gather, a multiply
and a ``bincount`` pass.

Bit-identity
------------
Both SciPy loops start from a zeroed output and add ``y += a * x`` in
stored order: per sample (forward) over its entries in ascending dice
row, and per dice word (adjoint, which walks the samples in order) in
ascending sample.  A sample touches each dice word at most once
(``W <= T``), so these are exactly the orders the serial engine adds
in: its row loop per sample, its per-column ``bincount`` per word.
Each step is one rounded float64 product and one rounded add from
``0.0`` — the same operations ``np.bincount`` performs — provided the
loop is compiled without FMA contraction, which holds for SciPy's
x86-64 wheels.  Hence the default at complex128 is
**bit-identical** (``np.array_equal``) to :class:`SliceAndDiceGridder`
in both directions, asserted in ``tests/test_core_compiled.py``.

At complex64 SciPy's float32 loop would accumulate in float32, while
the serial engine sums each dice word in float64 before rounding once.
The complex64 default is therefore ``backend="bincount"``: float32
products, a ``bincount`` over ``flat`` for the adjoint (bit-identical
to the serial engine), and a float64 per-sample walk for the forward
(bit-identical to the streaming NumPy lane; the serial engine's
forward accumulates in complex64, so it is close, not equal).
``backend="csr"`` at complex64 is ``allclose``, not bit-exact.
``backend="bincount"`` at complex128 is bit-identical too, just slower.

Plan cache
----------
Plans are memoized per trajectory with the O(1)
``_coords_fingerprint`` keying and true-LRU eviction; in-place
coordinate mutation requires :meth:`invalidate_cache`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ..gridding.base import GriddingSetup, GriddingStats
from .slice_and_dice import SliceAndDiceGridder, gather_f64, select_bytes

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
]

#: execution lanes of the compiled engine
_BACKENDS = ("bincount", "csr")


@dataclass
class CompiledPlan:
    """A trajectory's select pass as fixed-width, sample-major entries.

    Sample ``s`` owns entries ``s * W^d … (s + 1) * W^d - 1``, in
    ascending dice row — the property every lane's bit-identity rests
    on (module docstring).
    """

    flat: np.ndarray    #: ``(nnz,)`` dice address per entry (int32 on the csr lane)
    weight: np.ndarray  #: ``setup.real_dtype`` ``(nnz,)`` separable kernel weight
    m: int              #: samples in the compiled trajectory
    n_rows: int         #: dice rows (``T^d`` columns)
    n_tiles: int        #: dice depth (tiles per column)
    compile_seconds: float  #: wall-clock of the select (and CSR wrap)
    select_bytes: int   #: modelled transient bytes of that select
    _csr: object | None = field(default=None, repr=False)
    _row_view: tuple | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        """Entries in the plan: ``M * W^d``."""
        return int(self.flat.size)

    @property
    def nbytes(self) -> int:
        """Resident bytes: the entries, plus the CSR row pointer and the
        row-major view once they exist."""
        total = self.flat.nbytes + self.weight.nbytes
        if self._csr is not None:
            total += self._csr.indptr.nbytes
        if self._row_view is not None:
            total += sum(a.nbytes for a in self._row_view)
        return int(total)

    def csr(self) -> sparse.csr_matrix:
        """Lazy ``(m, n_rows * n_tiles)`` CSR matrix over the entries.

        ``data`` and ``indices`` are the plan's own ``weight`` and
        ``flat`` arrays; only the ``(m + 1)`` row pointer is new.  Each
        row's column indices are ascending and unique (``W <= T``), so
        the matrix is in canonical form.
        """
        if self._csr is None:
            per = self.nnz // self.m if self.m else 1
            indptr = np.arange(0, self.nnz + 1, per, dtype=self.flat.dtype)
            self._csr = sparse.csr_matrix(
                (self.weight, self.flat, indptr),
                shape=(self.m, self.n_rows * self.n_tiles),
                copy=False,
            )
        return self._csr

    def row_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazy row-major view: ``(order, starts)``.

        ``order`` is the **stable** argsort of the entries by dice row —
        within one row, entries keep their ascending-sample plan order —
        and ``order[starts[r]:starts[r + 1]]`` are row ``r``'s entries.
        This is the slab structure the jit engine's row-sharded scatter
        uses (the mirror of sample-major order).
        """
        if self._row_view is None:
            rows = self.flat // self.n_tiles
            order = np.argsort(rows, kind="stable")
            starts = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.n_rows), out=starts[1:])
            self._row_view = (order, starts)
        return self._row_view


def _as_real(a: np.ndarray) -> np.ndarray:
    """A complex vector as its ``(n, 2)`` (real, imag) float view."""
    return np.ascontiguousarray(a).view(a.real.dtype).reshape(-1, 2)


def _as_complex(a: np.ndarray, dtype) -> np.ndarray:
    """Inverse of :func:`_as_real`: ``(n, 2)`` floats as ``(n,)`` complex."""
    return a.view(dtype).reshape(-1)


class CompiledSliceAndDiceGridder(SliceAndDiceGridder):
    """Slice-and-Dice with the select pass compiled per trajectory.

    The first call on a trajectory runs the table-driven select into a
    :class:`CompiledPlan` and caches it; every subsequent call — every
    further CG iteration, coil, or RHS — is one sparse mat-vec (or a
    ``bincount`` pass) per RHS with **zero select work**.

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).
    backend:
        ``"csr"`` (SciPy sparse mat-vec) or ``"bincount"`` (NumPy
        gather + ``bincount``).  Default: the fastest lane that is
        bit-identical at the setup's dtype — ``"csr"`` at complex128,
        ``"bincount"`` at complex64 (module docstring).
    plan_cache_size:
        Trajectories whose compiled plans are kept (true LRU; ``0``
        disables plan caching and recompiles every call).

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
    >>> com.backend, com.stats.cache_misses, com.stats.plan_nnz  # compile call
    ('csr', 1, 3600)
    >>> _ = com.grid(coords, values)
    >>> com.stats.cache_hits, com.stats.boundary_checks  # plan reuse
    (1, 0)
    """

    name = "slice_and_dice_compiled"

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        backend: str | None = None,
        plan_cache_size: int = 4,
    ):
        super().__init__(
            setup, tile_size=tile_size, engine="columns", table_cache_size=0
        )
        if backend is None:
            backend = "csr" if setup.dtype == np.complex128 else "bincount"
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        self.backend = backend
        self.plan_cache_size = int(plan_cache_size)
        #: fingerprint -> CompiledPlan; dict order doubles as LRU order
        self._plan_cache: dict[tuple, CompiledPlan] = {}
        #: the bincount lane's ``(nnz,)`` product scratch, reused across
        #: RHS and calls; re-allocated only when the plan size changes
        self._products: np.ndarray | None = None

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop cached plans (and the parent's select-table cache)."""
        super().invalidate_cache()
        self._plan_cache.clear()
        self._products = None

    def _fetch_plan(self, coords: np.ndarray) -> tuple[CompiledPlan, bool]:
        """The trajectory's compiled plan plus whether it was a cache hit.

        Fingerprint keying and LRU move-to-end as the parent's table
        cache; the in-place-mutation contract is the same.
        """
        key = self._coords_fingerprint(coords) if self.plan_cache_size else None
        if key is not None:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.pop(key)
                self._plan_cache[key] = cached
                return cached, True

        setup = self.setup
        m = coords.shape[0]
        nnz = m * setup.width ** setup.ndim
        n_flat = self.layout.n_columns * self.layout.n_tiles
        # bincount wants intp indices; SciPy takes int32 ones, which
        # halve the index traffic of every mat-vec
        fits = max(nnz, n_flat) < 2 ** 31
        idx_dtype = np.int32 if self.backend == "csr" and fits else np.intp
        t0 = time.perf_counter()
        flat = np.empty(nnz, dtype=idx_dtype)
        weight = np.empty(nnz, dtype=setup.real_dtype)
        if m:
            self._select_entries(coords, flat, weight)
        plan = CompiledPlan(
            flat=flat,
            weight=weight,
            m=m,
            n_rows=self.layout.n_columns,
            n_tiles=self.layout.n_tiles,
            compile_seconds=0.0,
            select_bytes=select_bytes(
                m, setup.ndim, setup.width, weight.itemsize
            ),
        )
        if self.backend == "csr":
            plan.csr()
        plan.compile_seconds = time.perf_counter() - t0
        if key is not None:
            while len(self._plan_cache) >= self.plan_cache_size:
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[key] = plan
        return plan, False

    def _products_scratch(self, nnz: int) -> np.ndarray:
        """The bincount lane's ``(nnz,)`` product scratch."""
        if self._products is None or self._products.size != nnz:
            self._products = np.empty(nnz, dtype=self.setup.real_dtype)
        return self._products

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _pass_bytes(self, plan: CompiledPlan, k_rhs: int, forward: bool) -> int:
        """Bytes a ``K``-RHS pass holds beside the plan: the dice, the
        forward's output, one RHS's mat-vec result (csr) or float64
        ``bincount`` output / per-sample sums (bincount), and the
        bincount lane's product scratch with, at float32, ``bincount``'s
        float64 copy of the products."""
        c = self.setup.dtype.itemsize
        r = self.setup.real_dtype.itemsize
        n_flat = plan.n_rows * plan.n_tiles
        total = k_rhs * n_flat * c
        if forward:
            total += k_rhs * plan.m * c
        n_out = plan.m if forward else n_flat
        if self.backend == "csr":
            return total + n_out * c
        total += n_out * 8 + plan.nnz * r
        if not forward and r == 4:
            total += plan.nnz * 8
        return total

    def _plan_stats(
        self, plan: CompiledPlan, hit: bool, k_rhs: int, forward: bool
    ) -> GriddingStats:
        """Per-call stats for a compiled-plan pass.

        A plan **miss** pays the select: ``W`` boundary checks and LUT
        reads per axis per sample, its wall time in
        ``plan_compile_seconds``, and — in ``peak_bytes`` — the larger
        of the select's high water (entries + select transients) and the
        pass' (plan + :meth:`_pass_bytes`).  A plan **hit** is the
        paper's select-unit-reuse payoff: zero boundary checks and LUT
        reads.  Every issued lane slot does useful work either way
        (``simd_active_lanes == simd_lane_slots == nnz``); value work
        (``interpolations`` MACs, dice accesses) scales with the batch.
        ``table_bytes`` are the engine's resident ``(G, W)`` axis
        tables, built once at construction.
        """
        checks = 0 if hit else plan.m * self.setup.width * self.setup.ndim
        peak = plan.nbytes + self._pass_bytes(plan, k_rhs, forward)
        if not hit:
            entries = plan.flat.nbytes + plan.weight.nbytes
            peak = max(peak, entries + plan.select_bytes)
        return GriddingStats(
            boundary_checks=checks,
            interpolations=plan.nnz * k_rhs,
            samples_processed=plan.m,
            presort_operations=0,
            grid_accesses=plan.nnz * k_rhs,
            lut_lookups=checks,
            simd_active_lanes=plan.nnz,
            simd_lane_slots=plan.nnz,
            cache_hits=int(hit),
            cache_misses=int(not hit),
            table_bytes=sum(d.nbytes + a.nbytes for d, a in self._axis_tables),
            plan_compile_seconds=0.0 if hit else plan.compile_seconds,
            plan_nnz=plan.nnz,
            peak_bytes=peak,
        )

    # ------------------------------------------------------------------
    # gridding (adjoint): A.T @ values per RHS
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
        self.stats = self._plan_stats(plan, hit, 1, forward=False)

    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint gridding: one plan fetch (a hit after the
        first call per trajectory), then one pass per RHS."""
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
        self.stats = self._plan_stats(plan, hit, k_rhs, forward=False)

    def _apply_grid(
        self, plan: CompiledPlan, values_stack: np.ndarray
    ) -> np.ndarray:
        """``(K, n_rows * n_tiles)`` raveled dice for a value stack.

        The dice always comes from :meth:`_acquire_buffer` and is
        released back on any failure mid-fill, so the caller's release
        keeps the pool's outstanding-balance accounting exact.
        """
        k_rhs = values_stack.shape[0]
        n_flat = plan.n_rows * plan.n_tiles
        dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=plan.nnz == 0)
        if plan.nnz == 0:
            return dice_flat
        try:
            if self.backend == "csr":
                mat_t = plan.csr().T  # CSC view, no copy
                for k in range(k_rhs):
                    dice_flat[k] = _as_complex(
                        mat_t @ _as_real(values_stack[k]), self.setup.dtype
                    )
            else:
                products = self._products_scratch(plan.nnz)
                rows = products.reshape(plan.m, -1)
                wgt = plan.weight.reshape(plan.m, -1)
                for k in range(k_rhs):
                    for part in ("real", "imag"):
                        # each sample's value times its W^d weights
                        np.einsum(
                            "i,ij->ij", getattr(values_stack[k], part), wgt,
                            out=rows,
                        )
                        setattr(
                            dice_flat[k], part,
                            np.bincount(plan.flat, weights=products, minlength=n_flat),
                        )
        except BaseException:
            self._release_buffer(dice_flat)
            raise
        return dice_flat

    # ------------------------------------------------------------------
    # interpolation (forward): A @ dice per RHS
    # ------------------------------------------------------------------
    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """Batched forward interpolation from the compiled plan: the
        transpose pass over the same entries."""
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
        self.stats = self._plan_stats(plan, hit, k_rhs, forward=True)
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
        if plan.nnz == 0:
            return np.zeros((k_rhs, m), dtype=self.setup.dtype)
        out = np.empty((k_rhs, m), dtype=self.setup.dtype)
        if self.backend == "csr":
            mat = plan.csr()
            for k in range(k_rhs):
                out[k] = _as_complex(mat @ _as_real(dice_flat[k]), self.setup.dtype)
            return out
        products = self._products_scratch(plan.nnz)
        acc = np.empty(m, dtype=np.float64)
        for k in range(k_rhs):
            for part in ("real", "imag"):
                gather_f64(
                    getattr(dice_flat[k], part), plan.flat, plan.weight,
                    products, acc,
                )
                setattr(out[k], part, acc)
        return out
