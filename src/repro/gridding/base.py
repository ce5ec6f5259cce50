"""Shared gridding interface, instrumentation, and window math.

All gridders implement the adjoint direction (*gridding*: samples ->
grid) and the forward direction (*interpolation* / *regridding*:
grid -> samples) over a periodic (torus) uniform grid, exactly as in
Fig. 2 of the paper: a sample within ``W/2`` of a grid edge wraps to
the opposite side.

Coordinates arrive in **grid units** ``[0, G)`` per axis (the NuFFT
plan converts from normalized units).  The *forward-distance* window
parameterization used everywhere is::

    x' = x + W/2                    (shifted coordinate)
    k  = floor(x') - o,  o = 0..W-1 (affected grid points)
    fwd = x' - k = frac(x') + o     (in [0, W))
    weight = LUT[round(fwd * L)] == phi(k - x)

which is precisely the one-sided check JIGSAW's select unit performs
(§IV) and keeps every implementation — software and hardware —
bit-comparable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import CoordinateError
from ..kernels import KernelLUT
from ..robustness.faults import corrupt_stream
from ..robustness.validate import (
    DataQualityReport,
    apply_quality_policy,
    coords_in_range,
    validate_policy,
)
from .buffers import GridBufferPool

__all__ = [
    "ExactBinding",
    "GriddingStats",
    "GriddingSetup",
    "Gridder",
    "GridBufferPool",
    "window_contributions",
]


@dataclass
class GriddingStats:
    """Operation counters collected during one gridding pass.

    These are the quantities the paper's §II/§III argument is built on;
    the ablation benchmarks print them directly.

    Attributes
    ----------
    boundary_checks:
        Distance comparisons performed between a sample and candidate
        output locations (per *point* in software baselines, per
        *column* for Slice-and-Dice).
    interpolations:
        Checks that passed, i.e. actual weight-multiply-accumulate
        operations (always ``M * W^d`` for a correct gridder).
    samples_processed:
        Sample-processing events, *including* duplicates (binning
        processes boundary samples once per intersected tile).
    presort_operations:
        Work done by any pre-processing sort (bin assignment ops);
        zero for everything except binning.
    grid_accesses:
        Read-modify-write touches of output grid storage.
    lut_lookups:
        Interpolation-weight table reads.
    simd_active_lanes / simd_lane_slots:
        For output-driven parallel schedules: lanes that did useful
        work vs lanes issued, modelling each output point as one SIMD
        lane.  Quantifies §II.C's divergence critique ("T/W threads
        will be unaffected — and thus idle"); zero for serial
        schedules, where the notion does not apply.
    cache_hits / cache_misses:
        Trajectory-binding events (the Slice-and-Dice select tables,
        a compiled plan, the sparse matrix): a *hit* means the call's
        coordinates equal, element for element, those the bound
        product was built from, a *miss* means it was (re)built.  Zero
        for gridders without per-trajectory precomputation.
    table_build_seconds:
        Wall-clock seconds spent building precomputed tables during
        this call (0.0 on a cache hit) — makes the amortization
        benefit observable rather than asserted.
    table_bytes:
        Resident bytes of the per-axis select tables this call used:
        the serial engine's ``(T, M)`` masks + weights + tile indices,
        or the compiled engines' ``(G, W)`` tables of the table-driven
        select.  Zero for gridders without tables.
    plan_compile_seconds:
        Wall-clock seconds spent compiling a trajectory scatter plan
        during this call (the ``slice_and_dice_compiled`` engine: its
        select plus the CSR wrap); 0.0 on a plan hit.  In chunk
        mode, the sum of the chunks' select times.
    plan_nnz:
        Nonzeros of the compiled scatter plan the call executed —
        exactly the ``M * W^d`` passing checks (in chunk mode: the
        pass's ``M * W^d`` select entries over all chunks).  Zero for
        engines without a compiled plan.
    chunks:
        Fixed-size sample chunks the pass was streamed in (the
        compiled engines with ``chunk_samples=``); ``0`` for one-shot
        passes, whose whole trajectory is one implicit chunk.
    chunk_bytes:
        Per-chunk working-set bytes of the most recent streamed pass
        (chunk coordinate/value slices, the chunk's plan entries and
        the select temporaries) — the quantity the chunk size bounds
        (:func:`repro.core.compiled.working_set`).
    peak_bytes:
        True high-water transient bytes of the pass: the dice
        accumulator plus the largest simultaneous plan/table/scratch
        residency.  For streamed passes this is ``O(chunk + grid)``
        instead of the one-shot ``O(M * W^d)`` plan footprint — the
        bounded-memory guarantee, reported rather than asserted.
    kernel:
        Short window-kernel identifier of the pass (``"kb"``, ``"es"``,
        ...) — lets benches and ``/stats`` attribute accuracy/speed to
        the kernel choice.  Filled by the public entry points from
        ``setup.kernel_name``.
    exec_lane:
        How the scatter/gather arithmetic executed: ``"numpy"``
        (vectorized NumPy, or SciPy sparse mat-vecs), the one lane
        every engine runs.
    quality:
        The :class:`repro.robustness.DataQualityReport` of this call's
        input-quality gate pass, or ``None`` for internal passes that
        bypass the public API.
    degradations:
        :class:`repro.errors.DegradationEvent` records of the call
        (a stale checkpoint snapshot ignored on resume); empty when
        the pass ran as configured.

    Examples
    --------
    >>> s = GriddingStats(boundary_checks=64, interpolations=36)
    >>> s.as_dict()["boundary_checks"]
    64
    >>> t = GriddingStats(boundary_checks=1)
    >>> t.accumulate(s); t.boundary_checks
    65
    """

    boundary_checks: int = 0
    interpolations: int = 0
    samples_processed: int = 0
    presort_operations: int = 0
    grid_accesses: int = 0
    lut_lookups: int = 0
    simd_active_lanes: int = 0
    simd_lane_slots: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    table_build_seconds: float = 0.0
    table_bytes: int = 0
    plan_compile_seconds: float = 0.0
    plan_nnz: int = 0
    chunks: int = 0
    chunk_bytes: int = 0
    peak_bytes: int = 0
    kernel: str = ""
    exec_lane: str = ""
    quality: DataQualityReport | None = None
    degradations: tuple = ()

    @property
    def simd_efficiency(self) -> float:
        """Fraction of issued SIMD lanes doing useful work (0 if n/a)."""
        if self.simd_lane_slots == 0:
            return 0.0
        return self.simd_active_lanes / self.simd_lane_slots

    def as_dict(self) -> dict[str, int | float | str | tuple]:
        """All counters as a plain dict (stable keys, benchmark tables).

        Returns
        -------
        Mapping with one entry per dataclass field, in declaration
        order.
        """
        return {
            "boundary_checks": self.boundary_checks,
            "interpolations": self.interpolations,
            "samples_processed": self.samples_processed,
            "presort_operations": self.presort_operations,
            "grid_accesses": self.grid_accesses,
            "lut_lookups": self.lut_lookups,
            "simd_active_lanes": self.simd_active_lanes,
            "simd_lane_slots": self.simd_lane_slots,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "table_build_seconds": self.table_build_seconds,
            "table_bytes": self.table_bytes,
            "plan_compile_seconds": self.plan_compile_seconds,
            "plan_nnz": self.plan_nnz,
            "chunks": self.chunks,
            "chunk_bytes": self.chunk_bytes,
            "peak_bytes": self.peak_bytes,
            "kernel": self.kernel,
            "exec_lane": self.exec_lane,
            "quality": self.quality.as_dict() if self.quality is not None else None,
            "degradations": tuple(str(d) for d in self.degradations),
        }

    def accumulate(self, other: "GriddingStats") -> None:
        """Add another pass' counters into this one (batch aggregation).

        Additive counters are summed; the gauge fields describe one
        pass, not a sum, so the most recent pass that set them wins:
        ``table_bytes``/``plan_nnz`` take the latest nonzero value.
        ``chunks`` is additive (chunks of an aggregated pass sum);
        ``chunk_bytes`` is a gauge and ``peak_bytes`` takes the max —
        a batch's high water is its worst constituent pass.
        """
        self.boundary_checks += other.boundary_checks
        self.interpolations += other.interpolations
        self.samples_processed += other.samples_processed
        self.presort_operations += other.presort_operations
        self.grid_accesses += other.grid_accesses
        self.lut_lookups += other.lut_lookups
        self.simd_active_lanes += other.simd_active_lanes
        self.simd_lane_slots += other.simd_lane_slots
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.table_build_seconds += other.table_build_seconds
        self.plan_compile_seconds += other.plan_compile_seconds
        if other.table_bytes:
            self.table_bytes = other.table_bytes
        if other.plan_nnz:
            self.plan_nnz = other.plan_nnz
        self.chunks += other.chunks
        if other.chunk_bytes:
            self.chunk_bytes = other.chunk_bytes
        if other.peak_bytes > self.peak_bytes:
            self.peak_bytes = other.peak_bytes
        if other.kernel:
            self.kernel = other.kernel
        if other.exec_lane:
            self.exec_lane = other.exec_lane
        if other.quality is not None:
            if self.quality is None:
                self.quality = DataQualityReport(policy=other.quality.policy)
            self.quality.accumulate(other.quality)
        if other.degradations:
            self.degradations = self.degradations + tuple(other.degradations)


@dataclass
class GriddingSetup:
    """Static problem description shared by all gridders.

    Parameters
    ----------
    grid_shape:
        Oversampled target grid dimensions ``(G, ...)`` — the torus of
        Fig. 2.
    lut:
        Kernel lookup table (defines window width ``W`` and table
        oversampling ``L``).
    quality_policy:
        How non-finite inputs are handled at the public gridding entry
        points — ``"raise"`` (default; typed
        :class:`repro.errors.CoordinateError` /
        :class:`repro.errors.DataQualityError`), ``"drop"`` (remove the
        offending samples), or ``"zero"`` (keep slots, contribute
        nothing).  See :mod:`repro.robustness.validate`.
    dtype:
        Working complex dtype of every value/grid array: ``complex128``
        (default) or ``complex64``.  Weights and kernel-table reads use
        the matching real dtype (:attr:`real_dtype`); coordinates stay
        float64 in both lanes so the select pass — and thus the set of
        passing boundary checks — is identical across precisions.

    Raises
    ------
    ValueError
        If any grid dimension is < 1 or smaller than the window width
        (the wrapped window would self-overlap), the policy is
        unknown, or ``dtype`` is not complex64/complex128.

    Examples
    --------
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> setup.ndim, setup.width, setup.n_grid_points
    (2, 6, 1024)
    >>> setup.dtype, setup.real_dtype
    (dtype('complex128'), dtype('float64'))
    """

    grid_shape: tuple[int, ...]
    lut: KernelLUT
    quality_policy: str = "raise"
    dtype: np.dtype = np.complex128

    def __post_init__(self) -> None:
        validate_policy(self.quality_policy)
        self.grid_shape = tuple(int(g) for g in self.grid_shape)
        if any(g < 1 for g in self.grid_shape):
            raise ValueError(f"grid dimensions must be >= 1, got {self.grid_shape}")
        w = self.lut.width
        if any(g < w for g in self.grid_shape):
            raise ValueError(
                f"grid {self.grid_shape} smaller than window width {w}; "
                "wrapping would self-overlap"
            )
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError(
                f"dtype must be complex64 or complex128, got {self.dtype}"
            )

    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    @property
    def real_dtype(self) -> np.dtype:
        """Real dtype matching :attr:`dtype` (weights, LUT reads)."""
        return np.dtype(np.float32 if self.dtype == np.complex64 else np.float64)

    @property
    def width(self) -> int:
        """Integer window width ``W``."""
        return int(round(self.lut.width))

    @property
    def kernel_name(self) -> str:
        """Short identifier of the window kernel (``"kb"``, ``"es"``, ...)
        as reported in :class:`GriddingStats` and benchmark records."""
        return self.lut.kernel.short_name or type(self.lut.kernel).__name__

    @property
    def n_grid_points(self) -> int:
        return int(np.prod(self.grid_shape))

    def coerce_coords(self, coords: np.ndarray) -> np.ndarray:
        """Shape-validate to a float64 ``(M, d)`` array — no wrapping,
        no finiteness handling (the quality gate and
        :meth:`check_coords` build on this)."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ValueError(
                f"coords must have shape (M, {self.ndim}), got {coords.shape}"
            )
        return coords

    def check_coords(self, coords: np.ndarray) -> np.ndarray:
        """Validate and canonicalize coordinates to ``[0, G)`` grid units.

        Coordinates already in range are returned as-is (no copy —
        ``fmod`` on every call costs more than the whole compiled-plan
        dispatch); the check is the quality gate's own
        :func:`~repro.robustness.validate.coords_in_range`, two flat
        reductions.  Out-of-range coordinates take the torus-wrap path
        and get a fresh array.

        Non-finite coordinates can never reach ``np.mod`` (which would
        propagate NaN into the ``divmod`` tile decomposition as garbage
        indices): under ``quality_policy="raise"`` they raise
        :class:`repro.errors.CoordinateError`; under ``"drop"``/
        ``"zero"`` the offending *entries* are pinned to ``0.0`` here as
        a backstop — the public :class:`Gridder` entry points run the
        quality gate first, so samples only take this backstop when
        ``check_coords`` is called directly.  After the gate this is the
        torus-wrap backstop: it wraps what the gate let through.
        """
        coords = self.coerce_coords(coords)
        if coords_in_range(coords, self.grid_shape):
            return coords
        finite = np.isfinite(coords)
        if not finite.all():
            if self.quality_policy == "raise":
                n_bad = int(np.count_nonzero(~finite.all(axis=1)))
                raise CoordinateError(
                    f"{n_bad} sample(s) have non-finite coordinates; use "
                    "GriddingSetup(quality_policy='drop'|'zero') to degrade "
                    "instead of raising"
                )
            coords = np.where(finite, coords, 0.0)
        shape = np.asarray(self.grid_shape, dtype=np.float64)
        return np.mod(coords, shape)


def window_contributions(
    setup: GriddingSetup, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All window (grid-point, weight) pairs for each sample, vectorized.

    For ``M`` samples in ``d`` dims with width ``W`` this returns

    - ``indices`` — int64 array ``(M, W**d)`` of linear grid indices
      (C order, torus-wrapped),
    - ``weights`` — ``setup.real_dtype`` array ``(M, W**d)`` of
      separable LUT weights (float64, or float32 for a complex64
      setup).

    This is the shared engine for interpolation (forward) and for the
    vectorized reference gridders; each algorithm differs in *how* it
    schedules these contributions, which is what the instrumentation
    captures.
    """
    coords = setup.check_coords(coords)
    m, d = coords.shape
    w = setup.width
    half = setup.lut.width / 2.0
    lut = setup.lut

    per_axis_idx = []
    per_axis_wgt = []
    for axis in range(d):
        g = setup.grid_shape[axis]
        shifted = coords[:, axis] + half
        base = np.floor(shifted)
        frac = shifted - base
        offsets = np.arange(w, dtype=np.float64)
        fwd = frac[:, None] + offsets[None, :]  # (M, W) forward distances
        k = base[:, None] - offsets[None, :]  # affected grid coordinates
        per_axis_idx.append(np.mod(k, g).astype(np.int64))
        per_axis_wgt.append(
            lut.table[lut.index_of(fwd)].astype(setup.real_dtype, copy=False)
        )

    # combine separable axes into linear indices / product weights
    strides = np.ones(d, dtype=np.int64)
    for axis in range(d - 2, -1, -1):
        strides[axis] = strides[axis + 1] * setup.grid_shape[axis + 1]

    idx = np.zeros((m, 1), dtype=np.int64)
    wgt = np.ones((m, 1), dtype=setup.real_dtype)
    for axis in range(d):
        idx = (idx[:, :, None] + per_axis_idx[axis][:, None, :] * strides[axis]).reshape(m, -1)
        wgt = (wgt[:, :, None] * per_axis_wgt[axis][:, None, :]).reshape(m, -1)
    return idx, wgt


def scatter_add_complex(
    grid_flat: np.ndarray, indices: np.ndarray, values: np.ndarray
) -> None:
    """Accumulate complex ``values`` at ``indices`` into ``grid_flat`` in place.

    Uses ``np.bincount`` (two real passes), which is far faster than
    ``np.add.at`` for large scatters.
    """
    n = grid_flat.size
    flat_idx = indices.ravel()
    flat_val = values.ravel()
    grid_flat += np.bincount(flat_idx, weights=flat_val.real, minlength=n) + 1j * np.bincount(
        flat_idx, weights=flat_val.imag, minlength=n
    )


class ExactBinding:
    """A single-entry cache bound to the full contents of one array.

    :meth:`fetch` reuses the held product only while its key is
    ``np.array_equal`` to the copy taken when the product was built
    (``None`` matches only ``None``), so a different array and an
    in-place edit of the bound one both rebuild and rebind.  Nothing is
    sampled and nothing is hashed: a stale product can never be served.

    Examples
    --------
    >>> import numpy as np
    >>> b = ExactBinding()
    >>> a = np.arange(4.0)
    >>> total = lambda key: float(key.sum())
    >>> b.fetch(a, total), b.fetch(a, total)
    ((6.0, False), (6.0, True))
    >>> a[2] = 5.0                       # in-place edit: rebuilt
    >>> b.fetch(a, total)
    (9.0, False)
    """

    def __init__(self) -> None:
        #: copy of the key the product was built from
        self.key: np.ndarray | None = None
        #: the bound product, ``None`` while unbound
        self.product = None

    def fetch(self, key: np.ndarray | None, build) -> tuple[object, bool]:
        """``(build(key), False)`` after rebinding, or ``(product, True)``
        when ``key`` equals the held copy."""
        if self.product is not None and np.array_equal(self.key, key):
            return self.product, True
        # unbind first: a build that raises leaves nothing stale behind
        self.key = self.product = None
        product = build(key)
        self.key = None if key is None else np.array(key)
        self.product = product
        return product, False


class Gridder:
    """Base class: one gridding algorithm over a fixed problem setup.

    The public entry points :meth:`grid`, :meth:`grid_batch`,
    :meth:`interp`, and :meth:`interp_batch` are the only way into an
    engine.  They share one path: shape validation, the fault-injection
    corruption hook, the input-quality gate (``setup.quality_policy``),
    torus canonicalization and the stats/report lifecycle, then one
    dispatch to the ``_grid_batch_impl`` / ``_interp_batch_impl`` hooks,
    whose coordinates are guaranteed finite and wrapped to ``[0, G)``.
    A single-RHS call is a batch of one.  Engines with a batched kernel
    override those two hooks; the others implement the per-RHS
    ``_grid_impl`` (and optionally ``_interp_impl``) that the default
    hooks loop over.  Subclasses never re-validate.
    """

    #: short identifier used by the registry and benchmark tables
    name: str = "abstract"

    #: optional :class:`repro.robustness.CancelToken` set per call by
    #: the owner (a :class:`~repro.nufft.NufftPlan` or service worker)
    #: and cleared in its ``finally``.  Most engines run a call
    #: atomically and ignore it; the compiled engines check it before
    #: each chunk (once per one-shot call).
    cancel_token = None

    def __init__(self, setup: GriddingSetup):
        self.setup = setup
        self.stats = GriddingStats()
        #: optional :class:`GridBufferPool` for output grids and the
        #: engines' internal dice buffers; ``None`` allocates fresh
        #: arrays (the historical behaviour).  A :class:`repro.nufft.
        #: NufftPlan` injects its pool here so per-iteration transforms
        #: stop churning the allocator.
        self.buffer_pool: GridBufferPool | None = None
        #: the one trajectory binding: the product an engine builds from
        #: canonicalized coordinates (select tables, a compiled plan, a
        #: sparse matrix), reused only on an exact match
        self._binding = ExactBinding()

    # ------------------------------------------------------------------
    # buffer management
    # ------------------------------------------------------------------
    def _acquire_buffer(self, shape: tuple[int, ...], zero: bool = True) -> np.ndarray:
        """A working-dtype scratch/output buffer, pooled when a pool is set."""
        dtype = self.setup.dtype
        if self.buffer_pool is not None:
            return self.buffer_pool.acquire(shape, dtype, zero=zero)
        return (np.zeros if zero else np.empty)(shape, dtype=dtype)

    def _release_buffer(self, buf: np.ndarray) -> None:
        """Return an internal scratch buffer to the pool (no-op unpooled)."""
        if self.buffer_pool is not None:
            self.buffer_pool.release(buf)

    # ------------------------------------------------------------------
    def _gate_samples(
        self, coords: np.ndarray, values_stack: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, DataQualityReport]:
        """Corruption hook + quality gate + torus wrap for one call.

        Returns ``(coords, values_stack, bad_mask, report)`` with
        coordinates finite and canonicalized to ``[0, G)``.  Clean
        in-range inputs pass through as the *same objects* (no copy).  The gate
        leaves only finite coordinates behind, so when its report counts
        no wrapped sample they are already in range and the torus wrap
        is skipped.
        """
        coords, values_stack = corrupt_stream(coords, values_stack)
        coords, values_stack, bad, report = apply_quality_policy(
            coords, values_stack, self.setup.quality_policy, self.setup.grid_shape
        )
        if report.wrapped:
            coords = self.setup.check_coords(coords)
        return coords, values_stack, bad, report

    # ------------------------------------------------------------------
    # adjoint: samples -> grid
    # ------------------------------------------------------------------
    def grid(
        self, coords: np.ndarray, values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Adjoint gridding: scatter ``values`` at ``coords`` onto the grid.

        A batch of one: :meth:`grid_batch` with ``K = 1``, bit for bit.

        Parameters
        ----------
        coords:
            ``(M, d)`` sample coordinates in grid units ``[0, G)``
            (values outside are wrapped onto the torus).
        values:
            ``(M,)`` complex sample values.
        out:
            Optional output array of ``setup.grid_shape`` in the
            setup's working ``dtype`` (e.g. a pooled buffer); it is
            overwritten, bit-identically to a fresh allocation.

        Returns
        -------
        Array of ``setup.grid_shape`` in the setup's working ``dtype``.

        Raises
        ------
        ValueError
            If ``coords`` is not ``(M, d)`` for this setup's rank or
            the value count does not match the coordinate count.
        repro.errors.CoordinateError
            Non-finite coordinates under ``quality_policy="raise"``.
        repro.errors.DataQualityError
            Non-finite values under ``quality_policy="raise"``.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.gridding import GriddingSetup, make_gridder
        >>> from repro.kernels import KernelLUT, beatty_kernel
        >>> setup = GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))
        >>> g = make_gridder("naive", setup)
        >>> grid = g.grid(np.array([[3.5, 8.0]]), np.array([1.0 + 0j]))
        >>> grid.shape, g.stats.interpolations
        ((16, 16), 16)
        """
        values = np.asarray(values, dtype=self.setup.dtype).ravel()
        stack = self.grid_batch(
            coords, values[None, :], None if out is None else out[None]
        )
        return stack[0] if out is None else out

    def grid_batch(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Adjoint gridding of ``K`` value vectors sharing one trajectory.

        The multi-RHS entry point for multi-coil / multi-frame MRI: one
        sampling pattern, many k-space vectors (one per coil and CG
        iteration).  Engines with shareable precomputation (Slice-and-
        Dice select tables, compiled plans, the sparse interpolation
        matrix) pay it once per batch; the others loop their per-RHS
        kernel, bit-identical to ``K`` independent :meth:`grid` calls
        by construction, with stats summed across the batch.

        Parameters
        ----------
        coords:
            ``(M, d)`` sample coordinates in grid units ``[0, G)``.
        values_stack:
            ``(K, M)`` complex sample values (a single ``(M,)`` vector
            is promoted to ``K=1``).
        out:
            Optional ``(K,) + setup.grid_shape`` output array in the
            setup's working ``dtype``; it is overwritten.

        Returns
        -------
        Array of ``(K,) + setup.grid_shape`` in the setup's working
        ``dtype``.

        Raises
        ------
        ValueError
            If ``values_stack`` is not ``(K, M)`` for the given
            coordinates, or ``out`` has the wrong shape or dtype.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.gridding import GriddingSetup, make_gridder
        >>> from repro.kernels import KernelLUT, beatty_kernel
        >>> setup = GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))
        >>> g = make_gridder("slice_and_dice", setup)
        >>> coords = np.array([[3.5, 8.0], [12.0, 1.25]])
        >>> stack = np.ones((3, 2), dtype=complex)       # K=3 RHS, M=2
        >>> g.grid_batch(coords, stack).shape
        (3, 16, 16)
        """
        coords, values_stack = self._check_batch_values(coords, values_stack)
        coords, values_stack, _, report = self._gate_samples(coords, values_stack)
        stacked_shape = (values_stack.shape[0],) + self.setup.grid_shape
        dtype = self.setup.dtype
        if out is None:
            out = np.empty(stacked_shape, dtype=dtype)
        elif tuple(out.shape) != stacked_shape or out.dtype != dtype:
            raise ValueError(
                f"out must have dtype {dtype} and shape {stacked_shape}, got "
                f"dtype {out.dtype} and shape {out.shape}"
            )
        self.stats = GriddingStats()
        if coords.shape[0] == 0:
            out[...] = 0
        else:
            self._grid_batch_impl(coords, values_stack, out)
        self.stats.quality = report
        self._tag_stats()
        return out

    def _grid_batch_impl(
        self, coords: np.ndarray, values_stack: np.ndarray, out: np.ndarray
    ) -> None:
        """Default batched adjoint: loop :meth:`_grid_impl` per RHS.

        ``coords`` are already gated/wrapped and nonempty; ``out`` is
        allocated but *not* zeroed.  Stats sum across the batch.
        """
        total = GriddingStats()
        for k in range(values_stack.shape[0]):
            self.stats = GriddingStats()
            out[k] = 0
            self._grid_impl(coords, values_stack[k], out[k])
            total.accumulate(self.stats)
        self.stats = total

    def _grid_impl(self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray) -> None:
        """Per-RHS kernel of the default :meth:`_grid_batch_impl`:
        accumulate samples into ``grid`` (already zeroed), filling
        stats.  Engines that override :meth:`_grid_batch_impl` need
        not define it."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _grid_batch_impl nor _grid_impl"
        )

    # ------------------------------------------------------------------
    # forward: grid -> samples
    # ------------------------------------------------------------------
    def interp(self, grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Forward interpolation (regridding): gather grid -> samples.

        The exact adjoint of :meth:`grid` — uses the same window
        weights, so ``<grid(v), g> == <v, interp(g)>`` holds to
        rounding error for every gridder.  A batch of one:
        :meth:`interp_batch` with ``K = 1``, bit for bit.

        Parameters
        ----------
        grid:
            Complex array of ``setup.grid_shape``.
        coords:
            ``(M, d)`` sample coordinates in grid units ``[0, G)``.

        Returns
        -------
        ``(M,)`` interpolated sample values in the setup's working
        ``dtype``.

        Raises
        ------
        ValueError
            If ``grid`` does not match ``setup.grid_shape``.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.gridding import GriddingSetup, make_gridder
        >>> from repro.kernels import KernelLUT, beatty_kernel
        >>> setup = GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))
        >>> g = make_gridder("naive", setup)
        >>> g.interp(np.ones((16, 16), dtype=complex), np.array([[3.5, 8.0]])).shape
        (1,)
        """
        grid = np.asarray(grid, dtype=self.setup.dtype)
        if tuple(grid.shape) != self.setup.grid_shape:
            raise ValueError(
                f"grid shape {grid.shape} != setup {self.setup.grid_shape}"
            )
        return self.interp_batch(grid[None], coords)[0]

    def interp_batch(self, grid_stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Forward interpolation of ``K`` grids at one trajectory.

        Transpose of :meth:`grid_batch`; engines without a batched
        kernel loop their per-grid gather and sum stats.

        Parameters
        ----------
        grid_stack:
            ``(K,) + setup.grid_shape`` complex grids (a single grid is
            promoted to ``K=1``).
        coords:
            ``(M, d)`` sample coordinates in grid units.

        Returns
        -------
        Array of ``(K, M)`` samples in the setup's working ``dtype``.

        Raises
        ------
        ValueError
            If ``grid_stack`` is not ``(K,) + setup.grid_shape``.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.gridding import GriddingSetup, make_gridder
        >>> from repro.kernels import KernelLUT, beatty_kernel
        >>> setup = GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))
        >>> g = make_gridder("slice_and_dice", setup)
        >>> grids = np.ones((2, 16, 16), dtype=complex)  # K=2 grids
        >>> g.interp_batch(grids, np.array([[3.5, 8.0]])).shape
        (2, 1)
        """
        grid_stack = self._check_batch_grids(grid_stack)
        coords = self.setup.coerce_coords(coords)
        m = coords.shape[0]
        coords, _, bad, report = self._gate_samples(coords, None)
        self.stats = GriddingStats()
        if coords.shape[0] == 0:
            vals = np.zeros(
                (grid_stack.shape[0], coords.shape[0]), dtype=self.setup.dtype
            )
        else:
            vals = self._interp_batch_impl(grid_stack, coords)
        vals = self._restore_sample_slots(vals, bad, report, m)
        self.stats.quality = report
        self._tag_stats()
        return vals

    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """Default batched forward: loop :meth:`_interp_impl` per grid.

        ``coords`` are already gated/wrapped and nonempty; stats sum
        across the batch.
        """
        out = np.empty(
            (grid_stack.shape[0], coords.shape[0]), dtype=self.setup.dtype
        )
        total = GriddingStats()
        for k in range(grid_stack.shape[0]):
            self.stats = GriddingStats()
            out[k] = self._interp_impl(grid_stack[k], coords)
            total.accumulate(self.stats)
        self.stats = total
        return out

    def _interp_impl(self, grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Per-grid kernel of the default :meth:`_interp_batch_impl`:
        the vectorized gather over gated/wrapped nonempty ``coords``."""
        idx, wgt = window_contributions(self.setup, coords)
        flat = grid.ravel()
        m = coords.shape[0]
        wpts = idx.shape[1]
        self.stats = GriddingStats(
            boundary_checks=m * wpts,
            interpolations=m * wpts,
            samples_processed=m,
            grid_accesses=m * wpts,
            lut_lookups=m * wpts * self.setup.ndim,
        )
        return np.einsum("mk,mk->m", flat[idx], wgt)

    def _restore_sample_slots(
        self,
        vals: np.ndarray,
        bad: np.ndarray | None,
        report: DataQualityReport,
        m: int,
    ) -> np.ndarray:
        """Re-expand gated ``(K, m')`` interpolation output to the
        caller's ``M`` slots.

        Interpolation is shape-preserving under every policy: dropped
        samples keep their slot with output ``0``, and zeroed samples
        (pinned to the origin by the gate) have their interpolated
        value suppressed to ``0`` rather than returning the origin's
        value.
        """
        if bad is None:
            return vals
        if report.policy == "drop":
            full = np.zeros((vals.shape[0], m), dtype=vals.dtype)
            full[:, ~bad] = vals
            return full
        vals[:, bad] = 0.0
        return vals

    # ------------------------------------------------------------------
    # shared validation and stats
    # ------------------------------------------------------------------
    def _check_batch_values(
        self, coords: np.ndarray, values_stack: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate a ``(K, M)`` value stack against ``(M, d)`` coords.

        Shape-only: wrapping and finiteness are the quality gate's job
        (which must see the raw coordinates to build its report).
        """
        coords = self.setup.coerce_coords(coords)
        values_stack = np.asarray(values_stack, dtype=self.setup.dtype)
        if values_stack.ndim == 1:
            values_stack = values_stack[None, :]
        if values_stack.ndim != 2 or values_stack.shape[1] != coords.shape[0]:
            raise ValueError(
                f"values_stack must be (K, {coords.shape[0]}), got {values_stack.shape}"
            )
        return coords, values_stack

    def _check_batch_grids(self, grid_stack: np.ndarray) -> np.ndarray:
        """Validate a ``(K,) + grid_shape`` grid stack."""
        grid_stack = np.asarray(grid_stack, dtype=self.setup.dtype)
        if grid_stack.ndim == self.setup.ndim:
            grid_stack = grid_stack[None, ...]
        if grid_stack.ndim != self.setup.ndim + 1 or tuple(grid_stack.shape[1:]) != self.setup.grid_shape:
            raise ValueError(
                f"grid_stack must be (K,) + {self.setup.grid_shape}, got {grid_stack.shape}"
            )
        return grid_stack

    def _tag_stats(self) -> None:
        """Stamp the pass descriptors on :attr:`stats` (template hook).

        Runs after every public entry point's impl dispatch: the window
        kernel comes from the setup, and every engine runs on the
        ``"numpy"`` lane (vectorized NumPy or SciPy sparse mat-vecs).
        """
        self.stats.kernel = self.setup.kernel_name
        self.stats.exec_lane = "numpy"

    # ------------------------------------------------------------------
    def address_trace(self, coords: np.ndarray) -> np.ndarray:
        """Linear grid addresses touched, in this algorithm's access order.

        Used by the cache simulator (`repro.perfmodel.cache`) to
        reproduce the paper's L2 hit-rate comparison.  Subclasses
        override to reflect their true schedule; the default is the
        naive input-driven order.
        """
        idx, _ = window_contributions(self.setup, coords)
        return idx.ravel()


def offset_combinations(width: int, ndim: int) -> list[tuple[int, ...]]:
    """All ``W^d`` per-axis window offset tuples, C-ordered."""
    return list(itertools.product(range(width), repeat=ndim))
