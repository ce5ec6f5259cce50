"""NuFFT plan: precomputed gridding + FFT + apodization pipeline.

Conventions match :mod:`repro.nudft` exactly (the NuDFT is the oracle):

- image pixel ``n`` sits at centered position ``p = n - N//2``,
- sample coordinates ``omega`` are normalized cycles/pixel in
  ``[-0.5, 0.5)`` and map to oversampled-grid units via
  ``c = (omega mod 1) * G`` with ``G = sigma * N``,
- forward: ``f_j = sum_p image[p] exp(-2 pi i omega_j . p)``,
- adjoint: ``image[p] = sum_j f_j exp(+2 pi i omega_j . p)``.

The forward and adjoint plans are exact numerical adjoints of each
other (same real interpolation weights, unitary-pair FFTs, transposed
crop/pad), which the property-based test suite verifies — this is what
makes CG reconstruction converge.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ..errors import DataQualityError
from ..gridding import Gridder, GriddingSetup, make_gridder
from ..gridding.base import ExactBinding
from ..gridding.buffers import GridBufferPool
from ..kernels import KernelLUT, numeric_apodization, beatty_kernel, make_kernel
from ..kernels.window import KernelSpec
from ..robustness.validate import DataQualityReport, validate_policy
from .fft_backend import FallbackFftBackend, FftBackend, get_fft_backend

__all__ = ["NufftPlan", "NufftTimings"]


@dataclass
class NufftTimings:
    """Wall-clock seconds of the most recent transform, per step.

    ``copy_seconds`` charges the host-side buffer traffic that is
    neither arithmetic nor windowing: pool acquire/release (including
    the memset of a reused accumulator).  ``total`` sums all four
    stages, so the per-stage shares of the Fig. 7 analysis add to 1.

    ``peak_bytes`` counts the full-grid (oversampled, working-dtype)
    transient allocations the transform performed: buffer-pool misses
    plus the FFT output.  A warm call drops this to the single
    unavoidable FFT output per stacked grid — one grid's bytes for a
    single ``forward``/``adjoint`` — which is how the tests assert that
    the pipeline makes no other grid temporaries, and that the
    ``precision="single"`` lane makes no complex128 ones (a complex64
    grid is half the bytes).
    """

    gridding: float = 0.0
    fft: float = 0.0
    apodization: float = 0.0
    copy_seconds: float = 0.0
    #: FFT backend that executed the transform (``numpy``/``scipy``/...)
    fft_backend: str = "numpy"
    #: worker threads the FFT backend was configured with
    fft_workers: int = 1
    #: full-grid transient bytes allocated during the call
    peak_bytes: int = 0
    #: input-quality report of this transform (None when no gate ran)
    quality: DataQualityReport | None = None
    #: FFT degradation events recorded so far on this plan's fallback
    #: chain (sticky — once demoted, every later call lists the event)
    fft_fallbacks: tuple = ()
    #: precision lane of the plan (``double``/``single``)
    precision: str = "double"
    #: short window-kernel identifier of the plan (``kb``/``es``/...)
    kernel: str = ""
    #: execution lane the gridding arithmetic ran on (``numpy``, the
    #: one lane — see GriddingStats)
    exec_lane: str = ""
    #: streamed sample chunks the gridding pass consumed (0 for
    #: one-shot passes — nonzero only in the compiled engines' chunk
    #: mode)
    chunks: int = 0

    @property
    def total(self) -> float:
        return self.gridding + self.fft + self.apodization + self.copy_seconds

    def gridding_share(self) -> float:
        """Fraction of total time spent gridding (the paper's 99.6 %)."""
        total = self.total
        return self.gridding / total if total > 0 else 0.0


#: the precision lanes a :class:`NufftPlan` accepts
PRECISIONS = ("double", "single")


def plan_grid_shape(
    image_shape: tuple[int, ...],
    oversampling: float,
    gridder,
    gridder_options: dict | None = None,
) -> tuple[int, ...]:
    """The oversampled grid a :class:`NufftPlan` builds.

    ``round(n * oversampling)`` per axis, rounded up to a multiple of
    the Slice-and-Dice tile size (``gridder_options["tile_size"]``,
    default 8) for those engines and to even otherwise: tiled gridders
    need the grid to be a multiple of their tile, and a slightly larger
    sigma never hurts accuracy.
    """
    if isinstance(gridder, str) and gridder.startswith("slice_and_dice"):
        granule = int((gridder_options or {}).get("tile_size", 8))
    else:
        granule = 2
    return tuple(
        max(granule, granule * -(-int(round(n * oversampling)) // granule))
        for n in image_shape
    )


class NufftPlan:
    """A reusable NuFFT for one image geometry + sampling pattern.

    Parameters
    ----------
    image_shape:
        Target image dimensions ``(N, ...)`` (powers of two keep every
        gridder's tile constraints satisfiable).
    coords:
        ``(M, d)`` normalized sample coordinates in ``[-0.5, 0.5)``.
        The plan maps them once, at construction, to
        :attr:`grid_coords`: grid units wrapped to the canonical
        ``[0, G)`` and read-only (an in-place write raises
        ``ValueError``).  The gridder therefore never wraps a plan
        sample, and ``timings.quality.wrapped`` stays 0 on the plan
        path; samples the caller's own ``omega mod 1`` rounding put at
        exactly ``G`` are canonicalized to 0 up front, not counted per
        call.
    oversampling:
        Grid oversampling factor ``sigma`` (grid is ``sigma * N`` per
        axis, rounded to an even integer).
    kernel:
        A :class:`KernelSpec`, a kernel name (``"kb"``/``"kaiser_bessel"``
        for the Beatty-optimal Kaiser–Bessel; ``"es"``/``"exp_semicircle"``
        for FINUFFT's exponential-of-semicircle window, which reaches
        KB accuracy at smaller ``W`` — see ``docs/algorithm.md``), or
        ``None`` for the Beatty Kaiser–Bessel of width ``width``.
    width:
        Window width ``W`` when ``kernel`` is None.
    table_oversampling:
        LUT oversampling factor ``L``.
    gridder:
        Registered gridder name (``"naive"``, ``"binning"``,
        ``"slice_and_dice"``, ``"slice_and_dice_compiled"``, ...) or an
        already-built :class:`Gridder` whose setup matches the plan's
        grid shape, kernel table and working dtype (else ValueError).
        The compiled engine runs the select pass once, on the first
        forward/adjoint call, into a sample-major scatter plan that
        doubles as a CSR matrix, and makes every later call on the
        plan's fixed trajectory one sparse mat-vec — the right default
        for iterative use, where iteration 2+ does zero select work,
        bit-identically to the serial engine at complex128; see
        ``docs/engines.md``.
    gridder_options:
        Extra keyword arguments for the gridder factory, e.g.
        ``{"tile_size": 8}`` for the tiled engines or
        ``{"chunk_samples": 4096}`` for ``"slice_and_dice_compiled"``.
    precision:
        ``"double"`` (default) or ``"single"``.
        ``"single"`` is a true complex64 compute lane matching the
        paper's GPU implementations ("The GPU implementation of
        Slice-and-Dice uses single-precision floating-point values to
        closely match the prior work", §V): the gridder, buffer pool,
        FFT, and apodization all carry ``complex64``/``float32`` data
        end to end — half the memory traffic of double.
        Coordinates stay float64 in both lanes so both select identical
        window hit sets.
    fft_backend:
        FFT implementation for the oversampled-grid transforms:
        ``"auto"`` (default — SciPy's multithreaded pocketfft when
        importable, else NumPy), ``"numpy"`` (the bit-compatibility
        reference), ``"scipy"``, ``"pyfftw"`` (optional, plan-cached),
        or an :class:`~repro.nufft.fft_backend.FftBackend` instance.
        Per the paper's Amdahl analysis (§VII, Fig. 7) the host FFT
        dominates once gridding is accelerated, so this stage is the
        one worth making pluggable.
    fft_workers:
        Worker threads for multithreaded backends (default: all
        cores).  Ignored by ``numpy``.
    quality_policy:
        What to do with non-finite sample coordinates/values and image
        pixels: ``"raise"`` (default — typed
        :class:`~repro.errors.CoordinateError` /
        :class:`~repro.errors.DataQualityError`), ``"drop"`` (bad
        samples contribute nothing; forward outputs at bad slots are
        zero), or ``"zero"`` (same shapes, bad entries replaced by 0).
        The per-call :class:`~repro.robustness.DataQualityReport` is
        surfaced in ``plan.timings.quality``.  Ignored when ``gridder``
        is an already-built :class:`Gridder` — its setup's policy
        governs, and the plan adopts it.
    buffer_pool:
        An existing :class:`~repro.gridding.buffers.GridBufferPool` to
        route every full-grid allocation through, instead of the
        private pool each plan otherwise creates.  Long-lived hosts
        that keep *several* plans warm (the reconstruction service's
        workers) share one pool per worker so buffers are reused
        across plans of the same geometry and the worker's
        ``peak_bytes`` is a single meaningful number rather than a
        scatter of per-plan counters.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.nufft import NufftPlan
    >>> from repro.trajectories import radial_trajectory
    >>> coords = radial_trajectory(64, 128)
    >>> plan = NufftPlan((64, 64), coords)
    >>> image = plan.adjoint(np.ones(coords.shape[0], dtype=complex))
    >>> image.shape
    (64, 64)

    The compiled engine is a drop-in swap — same plan API, same bits.
    The first call compiles the trajectory's scatter plan, every later
    call reuses it with zero select work:

    >>> com = NufftPlan((64, 64), coords, gridder="slice_and_dice_compiled")
    >>> bool(np.array_equal(com.adjoint(np.ones(coords.shape[0], dtype=complex)),
    ...                     image))
    True
    >>> _ = com.adjoint(np.ones(coords.shape[0], dtype=complex))
    >>> com.gridder.stats.cache_hits, com.gridder.stats.boundary_checks
    (1, 0)
    """

    def __init__(
        self,
        image_shape: tuple[int, ...],
        coords: np.ndarray,
        *,
        oversampling: float = 2.0,
        kernel: KernelSpec | str | None = None,
        width: int = 6,
        table_oversampling: int = 512,
        gridder: str | Gridder = "slice_and_dice",
        gridder_options: dict | None = None,
        precision: str = "double",
        fft_backend: str | FftBackend = "auto",
        fft_workers: int | None = None,
        quality_policy: str = "raise",
        buffer_pool: GridBufferPool | None = None,
    ):
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be 'double' or 'single', got {precision!r}"
            )
        self.precision = precision
        #: working complex dtype of every full-grid array the plan touches
        self.cdtype = np.dtype(
            np.complex64 if precision == "single" else np.complex128
        )
        self.image_shape = tuple(int(n) for n in image_shape)
        if any(n < 2 for n in self.image_shape):
            raise ValueError(f"image dims must be >= 2, got {image_shape}")
        if oversampling <= 1.0:
            raise ValueError(f"oversampling must exceed 1, got {oversampling}")
        self.oversampling = float(oversampling)
        self.grid_shape = plan_grid_shape(
            self.image_shape, self.oversampling, gridder, gridder_options
        )

        if kernel is None:
            kernel = beatty_kernel(width, self.oversampling)
        elif isinstance(kernel, str):
            # "kb" resolves to the sigma-aware Beatty kernel (identical
            # to kernel=None); other names go through make_kernel with
            # the plan's oversampling driving the shape parameter.
            if kernel in ("kb", "kaiser_bessel"):
                kernel = beatty_kernel(width, self.oversampling)
            elif kernel in ("es", "exp_semicircle"):
                kernel = make_kernel("es", width, sigma=self.oversampling)
            else:
                kernel = make_kernel(kernel, width)
        self.kernel = kernel
        #: short kernel identifier ("kb", "es", ...) used in timings,
        #: stats, and benchmark records
        self.kernel_name = kernel.short_name or type(kernel).__name__
        self.lut = KernelLUT(kernel, table_oversampling)

        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        if coords.shape[1] != len(self.image_shape):
            raise ValueError(
                f"coords dimension {coords.shape[1]} != image rank {len(self.image_shape)}"
            )
        self.coords = coords
        #: coordinates mapped to grid units [0, G); omega and omega + 1
        #: are the same frequency for integer pixel positions, so the
        #: torus mapping is exact (no phase correction needed).  A tiny
        #: negative omega rounds to exactly 1.0 under ``mod 1``, landing
        #: on G: those entries get, once and in place, the ``np.mod`` the
        #: gridder's torus wrap would otherwise apply on every call.
        shape = np.asarray(self.grid_shape, dtype=np.float64)
        self.grid_coords = np.mod(coords, 1.0) * shape
        np.mod(
            self.grid_coords, shape, out=self.grid_coords,
            where=self.grid_coords >= shape,
        )
        self.grid_coords.setflags(write=False)

        validate_policy(quality_policy)
        if isinstance(gridder, Gridder):
            if gridder.setup.dtype != self.cdtype:
                raise ValueError(
                    f"gridder setup dtype {gridder.setup.dtype} does not match "
                    f"the plan's precision={precision!r} working dtype "
                    f"{self.cdtype}; build the gridder with "
                    f"GriddingSetup(..., dtype={self.cdtype.name!r})"
                )
            lut, grid = gridder.setup.lut, tuple(gridder.setup.grid_shape)
            same_table = np.array_equal(lut.table, self.lut.table)
            if grid != self.grid_shape or not same_table:
                raise ValueError(
                    f"gridder setup does not match the plan (grid {grid} vs "
                    f"{self.grid_shape}; LUT W={lut.width}, L={lut.oversampling} "
                    f"vs W={self.lut.width}, L={self.lut.oversampling}; table "
                    f"values {'equal' if same_table else 'differ'}): the plan "
                    "grids onto its own grid and de-apodizes with its own LUT"
                )
            self.gridder = gridder
            #: the effective non-finite-input policy (gridder's setup wins)
            self.quality_policy = gridder.setup.quality_policy
        else:
            setup = GriddingSetup(
                self.grid_shape,
                self.lut,
                quality_policy=quality_policy,
                dtype=self.cdtype,
            )
            self.gridder = make_gridder(gridder, setup, **(gridder_options or {}))
            self.quality_policy = quality_policy

        # de-apodization weights per axis (centered layout), from the
        # *sampled LUT* kernel so table quantization cancels exactly
        self._apod = [
            numeric_apodization(self.lut, n, g)
            for n, g in zip(self.image_shape, self.grid_shape)
        ]
        if self.cdtype != np.complex128:
            # weights are computed in double (table quantization cancels
            # exactly there) and rounded once; per-pixel multiplies then
            # stay in the working dtype
            self._apod = [w.astype(self.cdtype) for w in self._apod]

        fft = get_fft_backend(fft_backend, workers=fft_workers)
        if not isinstance(fft, FallbackFftBackend):
            fft = FallbackFftBackend(fft, workers=fft_workers)
        #: the backend inside its fallback chain: each sticky demotion is a
        #: DegradationEvent in ``_fft.events`` (and ``timings.fft_fallbacks``)
        self._fft = fft
        #: pooled oversampled-grid buffers, shared with the gridder's
        #: internal dice/scratch allocations (and, when ``buffer_pool``
        #: was passed, with every other plan on the same pool)
        self.buffer_pool = buffer_pool if buffer_pool is not None else GridBufferPool()
        self.gridder.buffer_pool = self.buffer_pool
        self._blocks = self._corner_blocks()
        #: optional :class:`~repro.robustness.CancelToken` — checked on
        #: entry to every transform and propagated to the gridder (the
        #: chunked engines re-check between chunks).  Set per job by
        #: the owner and cleared in its ``finally`` so warm cached
        #: plans never retain a stale token.
        self.cancel_token = None
        #: the one Toeplitz normal operator, bound to the float64
        #: weights it folds in (see :meth:`toeplitz`)
        self.toeplitz_binding = ExactBinding()
        self.timings = NufftTimings(
            fft_backend=self._fft.name,
            fft_workers=self._fft.workers,
            precision=self.precision,
            kernel=self.kernel_name,
        )

    def _gate_image(self, image: np.ndarray) -> tuple[np.ndarray, int]:
        """Gate non-finite image pixels per the plan's quality policy.

        A NaN pixel would poison the entire spectrum after the FFT, so
        the gate runs *before* apodization.  ``"raise"`` produces a
        typed :class:`~repro.errors.DataQualityError`; both ``"drop"``
        and ``"zero"`` replace the offending pixels with 0 in a copy
        (a pixel cannot be dropped without changing the geometry).
        Clean images pass through as the same object.
        """
        finite = np.isfinite(image.real) & np.isfinite(image.imag)
        if finite.all():
            return image, 0
        n_bad = int(image.size - np.count_nonzero(finite))
        if self.quality_policy == "raise":
            raise DataQualityError(
                f"{n_bad} image pixel(s) are non-finite; pass "
                "quality_policy='drop' or 'zero' to zero them instead of raising"
            )
        image = image.copy()
        image[~finite] = 0.0
        return image, n_bad

    def _check_cancel(self) -> None:
        """Propagate the plan's token to the gridder and check it.

        Runs on entry to every transform: a cancelled/expired token
        raises before any grid work starts, and the gridder sees the
        same token (``None`` included, so clearing the plan's token
        also clears a warm gridder's)."""
        token = self.cancel_token
        self.gridder.cancel_token = token
        if token is not None:
            token.check()

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.coords.shape[0]

    @property
    def ndim(self) -> int:
        return len(self.image_shape)

    # -- the fused apodize+pad / crop+deapodize steps ------------------
    def _corner_blocks(self) -> list:
        """The ``2^d`` corner blocks of the centered pad/crop mapping.

        Centered pixel ``p = idx - N//2`` lands at grid index
        ``p mod G``; per axis that splits the image into two contiguous
        runs (``idx < N//2`` wraps to the top of the grid, the rest
        starts at 0), so the full mapping is a Cartesian product of
        pure slices — no index arrays, no ``np.take``.  Each block
        carries its per-axis weight segments pre-reshaped for
        broadcasting, plus their conjugates for the forward direction.
        """
        per_axis = []
        for axis, (n, g) in enumerate(zip(self.image_shape, self.grid_shape)):
            s = n // 2
            segments = []
            for img_sl, grid_sl in (
                (slice(0, s), slice(g - s, g)),
                (slice(s, n), slice(0, n - s)),
            ):
                shape = [1] * self.ndim
                shape[axis] = img_sl.stop - img_sl.start
                segments.append(
                    (
                        img_sl,
                        grid_sl,
                        self._apod[axis][img_sl].reshape(shape),
                        np.conj(self._apod[axis][img_sl]).reshape(shape),
                    )
                )
            per_axis.append(segments)
        blocks = []
        for combo in itertools.product(*per_axis):
            blocks.append(
                (
                    tuple(c[0] for c in combo),
                    tuple(c[1] for c in combo),
                    [c[2] for c in combo],
                    [c[3] for c in combo],
                )
            )
        return blocks

    def _fused_apodize_pad(self, images: np.ndarray, out: np.ndarray) -> None:
        """Apodize ``images`` directly into the zeroed grid buffer ``out``.

        Works on one image or a ``(K,)`` stack alike.  Replaces
        :meth:`_apodize` (image copy + d in-place passes) followed by
        :meth:`_pad` (fresh zeroed grid + fancy-index scatter): each
        corner block is multiplied straight into its destination view
        by the conjugate weights, in the same elementwise order as that
        reference — bit-identical output, zero intermediate full-size
        arrays.
        """
        for img_sl, grid_sl, _, conj_weights in self._blocks:
            dst = out[(..., *grid_sl)]
            np.multiply(images[(..., *img_sl)], conj_weights[0], out=dst)
            for w in conj_weights[1:]:
                dst *= w

    def _fused_crop_deapodize(self, spectra: np.ndarray, out: np.ndarray) -> None:
        """Gather the centered images out of ``spectra``, de-apodized.

        Fuses :meth:`_crop` (per-axis ``np.take`` gather, one
        intermediate per axis) with :meth:`_apodize` (copy + d passes)
        into one sliced multiply per corner block; same elementwise
        multiply order, bit-identical result.
        """
        for img_sl, grid_sl, weights, _ in self._blocks:
            dst = out[(..., *img_sl)]
            np.multiply(spectra[(..., *grid_sl)], weights[0], out=dst)
            for w in weights[1:]:
                dst *= w

    def _record_timings(self, n_bad_pixels: int = 0, **steps) -> None:
        """Publish the finished transform's :class:`NufftTimings`.

        Its quality report is the gridder's sample gate plus the
        ``n_bad_pixels`` the image gate zeroed.
        """
        report = self.gridder.stats.quality
        if n_bad_pixels:
            if report is None:
                report = DataQualityReport(policy=self.quality_policy)
            report.nonfinite_values += n_bad_pixels
            report.zeroed += n_bad_pixels
        self.timings = NufftTimings(
            **steps,
            fft_backend=self._fft.name,
            fft_workers=self._fft.workers,
            quality=report,
            fft_fallbacks=tuple(str(e) for e in self._fft.events),
            precision=self.precision,
            kernel=self.kernel_name,
            exec_lane=self.gridder.stats.exec_lane,
            chunks=self.gridder.stats.chunks,
        )

    def _adjoint_stack(self, values: np.ndarray) -> np.ndarray:
        """The adjoint pipeline on validated ``(K, M)`` values.

        Grid into a pooled ``(K,) + grid_shape`` buffer, one inverse FFT
        over the grid axes, crop + de-apodize into the output; single
        calls run it as a batch of one.
        """
        self._check_cancel()
        axes = tuple(range(1, self.ndim + 1))
        out = np.empty((values.shape[0],) + self.image_shape, dtype=self.cdtype)
        pool = self.buffer_pool
        miss0 = pool.miss_bytes
        tc0 = time.perf_counter()
        grid_buf = pool.acquire(
            (values.shape[0],) + self.grid_shape, self.cdtype, zero=False
        )
        try:
            t0 = time.perf_counter()
            grids = self.gridder.grid_batch(self.grid_coords, values, out=grid_buf)
            t1 = time.perf_counter()
            # norm="forward" is the unnormalized inverse DFT — ifftn(grid)
            # * prod(grid_shape) without the extra full-grid scaling pass
            spectra = self._fft.ifftn(grids, axes=axes, norm="forward")
            t2 = time.perf_counter()
            self._fused_crop_deapodize(spectra, out)
            t3 = time.perf_counter()
        finally:
            pool.release(grid_buf)
        tc1 = time.perf_counter()
        self._record_timings(
            gridding=t1 - t0,
            fft=t2 - t1,
            apodization=t3 - t2,
            copy_seconds=(t0 - tc0) + (tc1 - t3),
            peak_bytes=(pool.miss_bytes - miss0) + spectra.nbytes,
        )
        return out

    def _forward_stack(self, images: np.ndarray) -> np.ndarray:
        """The forward pipeline on validated ``(K,) + image_shape`` images.

        Apodize + pad into a pooled ``(K,) + grid_shape`` buffer, one
        FFT over the grid axes, interpolate; single calls run it as a
        batch of one.
        """
        self._check_cancel()
        images, n_bad_pixels = self._gate_image(images)
        axes = tuple(range(1, self.ndim + 1))
        pool = self.buffer_pool
        miss0 = pool.miss_bytes
        tc0 = time.perf_counter()
        padded = pool.acquire(
            (images.shape[0],) + self.grid_shape, self.cdtype, zero=True
        )
        try:
            t0 = time.perf_counter()
            self._fused_apodize_pad(images, padded)
            t1 = time.perf_counter()
            grids = self._fft.fftn(padded, axes=axes)
            t2 = time.perf_counter()
            samples = self.gridder.interp_batch(grids, self.grid_coords)
            t3 = time.perf_counter()
        finally:
            pool.release(padded)
        tc1 = time.perf_counter()
        self._record_timings(
            n_bad_pixels,
            gridding=t3 - t2,
            fft=t2 - t1,
            apodization=t1 - t0,
            copy_seconds=(t0 - tc0) + (tc1 - t3),
            peak_bytes=(pool.miss_bytes - miss0) + grids.nbytes,
        )
        return samples

    # ------------------------------------------------------------------
    def adjoint(self, values: np.ndarray) -> np.ndarray:
        """Adjoint NuFFT: M samples -> image (gridding, FFT, de-apodize).

        A stacked ``(K, M)`` input is routed to :meth:`adjoint_batch`
        (returning ``(K,) + image_shape``) so multi-coil callers can
        use one entry point.

        Parameters
        ----------
        values:
            ``(M,)`` complex samples, or ``(K, M)`` for the batched
            path.

        Returns
        -------
        Complex image of ``image_shape`` (or ``(K,) + image_shape``).

        Raises
        ------
        ValueError
            If the value count does not match the plan's trajectory.
        """
        values = np.asarray(values, dtype=self.cdtype)
        if values.ndim == 2:
            return self.adjoint_batch(values)
        values = values.ravel()
        if values.shape[0] != self.n_samples:
            raise ValueError(f"{values.shape[0]} values for {self.n_samples} samples")
        return self._adjoint_stack(values[None])[0]

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Forward NuFFT: image -> M samples (de-apodize, FFT, interpolate).

        A stacked ``(K,) + image_shape`` input is routed to
        :meth:`forward_batch` (returning ``(K, M)``).

        Parameters
        ----------
        image:
            Complex array of ``image_shape`` (or a ``(K,)``-stacked
            version for the batched path).

        Returns
        -------
        ``(M,)`` complex samples (or ``(K, M)``).

        Raises
        ------
        ValueError
            If the image shape does not match the plan.
        """
        image = np.asarray(image, dtype=self.cdtype)
        if image.ndim == self.ndim + 1 and tuple(image.shape[1:]) == self.image_shape:
            return self.forward_batch(image)
        if tuple(image.shape) != self.image_shape:
            raise ValueError(f"image shape {image.shape} != plan {self.image_shape}")
        return self._forward_stack(image[None])[0]

    # ------------------------------------------------------------------
    def forward_batch(self, images: np.ndarray) -> np.ndarray:
        """Forward NuFFT of a stack of images sharing this plan.

        Dynamic MRI (the workload of Otazo et al. [25] and the paper's
        "millions of NuFFTs" motivation) transforms many frames over
        one trajectory; the plan's precomputation — kernel table,
        apodization weights, and any gridder-side state such as the
        sparse interpolation matrix — is amortized across the batch.

        Parameters
        ----------
        images:
            ``(B,) + image_shape`` complex array.

        Returns
        -------
        ``(B, M)`` complex samples.
        """
        images = np.asarray(images, dtype=self.cdtype)
        if images.ndim != self.ndim + 1 or tuple(images.shape[1:]) != self.image_shape:
            raise ValueError(
                f"images must be (B,) + {self.image_shape}, got {images.shape}"
            )
        return self._forward_stack(images)

    def adjoint_batch(self, values: np.ndarray) -> np.ndarray:
        """Adjoint NuFFT of a stack of sample vectors sharing this plan.

        Parameters
        ----------
        values:
            ``(B, M)`` complex samples.

        Returns
        -------
        ``(B,) + image_shape`` complex images.
        """
        values = np.asarray(values, dtype=self.cdtype)
        if values.ndim != 2 or values.shape[1] != self.n_samples:
            raise ValueError(
                f"values must be (B, {self.n_samples}), got {values.shape}"
            )
        return self._adjoint_stack(values)

    def toeplitz(self, weights: np.ndarray | None = None):
        """The :class:`~repro.nufft.ToeplitzNormalOperator` of ``A^H W A``.

        The plan holds one operator, bound to the float64 weights it
        folds in; ``None`` means unit weights and shares the operator
        of an all-ones vector.  Weights equal to the bound copy return
        the bound operator.  Other weights, or an in-place edit of the
        bound ones, build a new operator (``2^d`` adjoints on this
        plan) and rebind, so a caller alternating between two weights
        vectors rebuilds the PSF on each switch.  A build that raises
        leaves nothing bound.  :func:`repro.recon.cg_reconstruction`
        and :func:`repro.mri.sense_reconstruction` fetch their
        ``normal="toeplitz"`` operator here, so they share it.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.nufft import NufftPlan
        >>> from repro.trajectories import radial_trajectory
        >>> plan = NufftPlan((16, 16), radial_trajectory(16, 32))
        >>> gram = plan.toeplitz()
        >>> plan.toeplitz(np.ones(plan.n_samples)) is gram
        True
        >>> plan.toeplitz(2 * np.ones(plan.n_samples)) is gram
        False
        """
        from .toeplitz import ToeplitzNormalOperator  # noqa: PLC0415 - avoid cycle

        if weights is None:
            weights = np.ones(self.n_samples)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        gram, _ = self.toeplitz_binding.fetch(
            weights, lambda w: ToeplitzNormalOperator(self, weights=w)
        )
        return gram

    # -- step-by-step reference ----------------------------------------
    # The fused steps reproduce _pad(_apodize(image, conjugate=True)) and
    # _apodize(_crop(spectrum)) bit for bit; the tests and the Fig. 9
    # bench compose these directly.
    def _apodize(self, image: np.ndarray, conjugate: bool = False) -> np.ndarray:
        """Multiply an image by the separable de-apodization weights.

        The adjoint direction uses the weights as computed; the forward
        direction uses their conjugate so the two transforms remain
        exact numerical adjoints (the weights carry a tiny imaginary
        part — see :func:`repro.kernels.numeric_apodization`).
        """
        out = np.asarray(image, dtype=self.cdtype).copy()
        for axis, w in enumerate(self._apod):
            shape = [1] * self.ndim
            shape[axis] = w.size
            wa = np.conj(w) if conjugate else w
            out *= wa.reshape(shape)
        return out

    def _crop(self, spectrum: np.ndarray) -> np.ndarray:
        """Extract centered pixels p in [-N//2, N - N//2) from the G-grid.

        Index ``p mod G`` of the inverse FFT output corresponds to the
        centered position ``p``; this gathers those entries into
        centered image order.
        """
        out = spectrum
        for axis, (n, g) in enumerate(zip(self.image_shape, self.grid_shape)):
            p = np.arange(n) - n // 2
            out = np.take(out, np.mod(p, g), axis=axis)
        return out

    def _pad(self, image: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`_crop`: scatter centered pixels into the G-grid."""
        out = np.zeros(self.grid_shape, dtype=self.cdtype)
        index = tuple(
            np.mod(np.arange(n) - n // 2, g)
            for n, g in zip(self.image_shape, self.grid_shape)
        )
        out[np.ix_(*index)] = image
        return out
