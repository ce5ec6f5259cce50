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
:meth:`SliceAndDiceGridder._select_entries` over the trajectory:
fixed-width entries, ``W^d`` per sample in ascending dice row,

- ``flat``   — the global dice address ``row * n_tiles + depth``,
- ``weight`` — the combined separable kernel weight.

A one-shot plan is split into ``P`` **bands** of dice rows, ``P =
min(usable CPUs, T)`` (one band below :data:`PARALLEL_MIN_NNZ`
entries): band ``b`` owns the rows whose axis-0 column lies in
``[b·T/P, (b+1)·T/P)``.  Axis 0 is the
most significant digit of the row index, so each sample's
ascending-row entries fall into one contiguous run per band.  The
entries are stored band after band, samples ascending within a band,
and ``indptr[b]`` is band ``b``'s ``(M + 1)`` row pointer into the
shared arrays (absolute offsets): ``flat`` / ``weight`` between
``indptr[b, 0]`` and ``indptr[b, M]`` are a CSR matrix of the band's
entries, and a one-band plan is the plain sample-major matrix,
``indptr[0] = arange(0, nnz + 1, W^d)``.  The select runs in
:data:`SELECT_CHUNK_SAMPLES`-sample steps, through a step-sized
scratch when the plan has bands, so its transients are O(step), not
O(M).  A banded plan is selected in parallel: ``P`` contiguous sample
ranges, each in steps of ``1/P`` of that size through its own scratch
into its own slices ``indptr[b, lo] … indptr[b, hi]`` of every band,
which no other range writes.  A warm pass calls SciPy's sparse kernels directly, on the
complex vectors viewed as ``(n, 2)`` float arrays, each adding **in
place**:

- adjoint gridding: one ``csc_matvecs`` (the transposed view) per
  band, the bands in parallel, each adding into its own dice rows;
- forward interpolation: ``P`` sample ranges in parallel, each
  running ``csr_matvecs`` over every band in band order, so each
  sample's sum continues from band to band.

The parallel tasks are SciPy loops and NumPy selects, which drop the
GIL: the caller runs the first, one shared thread pool
(:func:`usable_cpus` threads) the others, and a call returns, or
raises, only after every task of it has returned.

Chunk mode
----------
With ``chunk_samples=N`` the engine feeds the trajectory through the
same select and the same apply in ``N``-sample chunks, all
accumulating into one pooled dice, so peak memory is **O(chunk +
grid)** instead of O(M·W^d) — like JIGSAW's
single-pass ``M + 12``-cycle streamer it keeps no per-trajectory plan
and sorts nothing.  One scratch plan, grown to the largest chunk, holds
the entries of the chunk selected last, bound to it like a one-shot
plan (*Plan binding*): a chunk equal to the held copy (a trajectory
that fits in one chunk, reused by CG) skips the select.

Where a one-shot plan of the chunk would be banded, the select and the
mat-vecs overlap, as JIGSAW's pipeline stages do: each chunk is
selected as two halves into the two halves of the scratch, and while
the caller runs half ``j``'s mat-vec the pool selects half ``j + 1``
(the next chunk's first half after a second half).  The mat-vecs still
run one piece at a time in sample order, so each dice word sees the
additions of the unpipelined pass; otherwise the select runs inline.

Bit-identity
------------
A sample touches each dice word at most once (``W <= T``), so the
entries per dice word run in ascending sample order and per sample in
ascending dice row — the orders the serial engine adds in: its row loop
per sample, its per-column ``bincount`` per word.  Each step is one
rounded float64 product and one rounded add — the same operations
``np.bincount`` performs — provided the SciPy loops are compiled
without FMA contraction, which holds for SciPy's x86-64 wheels.  Hence
at complex128 the engine is **bit-identical** (``np.array_equal``) to
:class:`SliceAndDiceGridder` in both directions, asserted by the
engine matrix (``tests/test_engine_matrix.py``).

Bands keep both orders at any ``P``.  Every dice word lies in exactly
one band, and within a band its entries still run in ascending sample
order, so a band's adjoint adds exactly the one-band sequence and no
two bands touch the same word.  Forward, a sample's band runs are its
ascending-row entries cut at band boundaries, and one task walks them
in band order from ``0.0``: the one-band chain, continued in place.

Chunks, and the halves of a pipelined chunk, partition the samples in
order, so every dice word's additions
over the chunks concatenate to the one-shot sequence.  The in-place
``csc_matvecs`` continues each word's partial sum from its current
value, so a chunked adjoint is ``np.array_equal`` to the one-shot
adjoint for **any** chunk size, at either precision (so is a
checkpoint resume, which restores the dice and skips the chunks it
holds).  Forward, each chunk fills its own slice of the output, every
sample summing from ``0.0`` in ascending row order.

At complex64 SciPy's loops add in float32, as the serial engine's
forward does: the forward is bit-identical to the serial engine, one
shot and chunked.  The serial adjoint sums each dice word in float64
(``np.bincount``) and rounds once, so the compiled adjoint is close to
it (NRMSD <= 1e-6), not equal; chunked, it is bit-identical to its own
one-shot pass.  The serial engine stays the bit-exact reference.

Plan binding
------------
An engine holds one plan, bound to the trajectory it was built from
(:class:`~repro.gridding.base.ExactBinding`, shared with the serial
engine's select tables): a copy of the canonicalized coordinates.  A
pass reuses the plan only when its coordinates are ``np.array_equal``
to that copy, so a different array or an in-place edit of any sample
recompiles and rebinds.  One trajectory per gridder: a
:class:`~repro.nufft.NufftPlan` passes its own coordinates on every
call.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import _sparsetools

from ..errors import DegradationEvent
from ..gridding.base import GriddingSetup, GriddingStats
from ..gridding.buffers import usable_cpus
from ..robustness.checkpoint import StreamCheckpoint
from .slice_and_dice import SliceAndDiceGridder, select_bytes

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
    "choose_chunk_samples",
    "working_set",
]

#: plan entries from which a one-shot plan is split into dice-row
#: bands; below it thread launch overhead would dominate
PARALLEL_MIN_NNZ = 1 << 15

#: samples per select step of a one-shot compile, shared by a banded
#: plan's concurrent ranges: bounds the select's transients (and the
#: scratch) to a few megabytes, and what a pool thread's allocator
#: keeps of them after the compile
SELECT_CHUNK_SAMPLES = 1 << 13


@dataclass
class CompiledPlan:
    """A trajectory's select pass as fixed-width entries in ``P`` bands.

    Within band ``b`` sample ``s`` owns entries ``indptr[b, s] …
    indptr[b, s + 1] - 1``, in ascending dice row — the property the
    engine's bit-identity rests on (module docstring).  A one-band plan
    is sample-major: sample ``s`` owns entries ``s * W^d … (s + 1) *
    W^d - 1``.
    """

    flat: np.ndarray    #: ``(nnz,)`` dice address per entry (int32 below 2**31)
    weight: np.ndarray  #: ``setup.real_dtype`` ``(nnz,)`` separable kernel weight
    m: int              #: samples in the compiled trajectory
    n_rows: int         #: dice rows (``T^d`` columns)
    n_tiles: int        #: dice depth (tiles per column)
    compile_seconds: float  #: wall-clock of the select (and row pointers)
    #: ``(P, m + 1)`` absolute row pointers of the bands; each band's
    #: rows hold ascending, unique column indices (``W <= T``), so each
    #: band's run of the entries is a canonical CSR matrix
    indptr: np.ndarray

    @property
    def nnz(self) -> int:
        """Entries in the plan: ``M * W^d``."""
        return int(self.flat.size)

    @property
    def n_flat(self) -> int:
        """Words in the raveled dice: ``n_rows * n_tiles``."""
        return self.n_rows * self.n_tiles

    @property
    def n_bands(self) -> int:
        """Dice-row bands ``P`` the entries are split into."""
        return self.indptr.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident bytes: the entries and the row pointers."""
        return int(self.flat.nbytes + self.weight.nbytes + self.indptr.nbytes)


def _as_real(a: np.ndarray) -> np.ndarray:
    """A complex vector as its ``(n, 2)`` (real, imag) float view."""
    return np.ascontiguousarray(a).view(a.real.dtype).reshape(-1, 2)


# ----------------------------------------------------------------------
# band tasks: leaf SciPy loops on one shared thread pool
# ----------------------------------------------------------------------
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of the pool's threads (and may have
    copied its lock held): let it start its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool() -> ThreadPoolExecutor:
    """The shared band pool, started on first use.  A pool task must
    never submit to the pool: a task that waits on another could wait
    on a task queued behind itself."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(usable_cpus(), "repro-band")
        return _POOL


def _run_tasks(tasks: list) -> None:
    """Run ``tasks`` (callables) in parallel: the first on the caller,
    which would otherwise only wait, the others on the pool.

    Raises an error only after every task has returned, so no task
    still writes into a buffer the caller's ``finally`` releases.
    Chunk mode's in-flight select keeps the same rule
    (:meth:`CompiledSliceAndDiceGridder._plans`).
    """
    futures = []
    try:
        for task in tasks[1:]:
            futures.append(_pool().submit(task))
        tasks[0]()
    finally:
        if futures:
            wait(futures)
    for future in futures:
        future.result()


def _grid_band(
    plan: CompiledPlan, indptr: np.ndarray, values: list, dice_flat: np.ndarray
) -> None:
    """Add one band's entries (row pointer ``indptr``) times each RHS
    into the band's own dice rows, in place, samples ascending."""
    for v, dice in zip(values, dice_flat):
        _sparsetools.csc_matvecs(
            plan.n_flat, plan.m, 2, indptr, plan.flat, plan.weight, v,
            dice.view(plan.weight.dtype),
        )


def _interp_samples(
    plan: CompiledPlan, indptr: np.ndarray, dice_flat: np.ndarray, out: np.ndarray
) -> None:
    """One sample range's ``(K, n)`` output from its ``(P, n + 1)``
    slice of the band row pointers: every sum from ``0.0`` over the
    bands in band order, continued in place."""
    for dice, dst in zip(dice_flat, out):
        y = dst.view(plan.weight.dtype)
        y[:] = 0.0
        for ptr in indptr:
            _sparsetools.csr_matvecs(
                ptr.size - 1, plan.n_flat, 2, ptr, plan.flat, plan.weight,
                dice.view(plan.weight.dtype), y,
            )


# ----------------------------------------------------------------------
# memory model
# ----------------------------------------------------------------------
def working_set(
    m: int,
    n_flat: int,
    ndim: int,
    width: int,
    dtype,
    *,
    k_rhs: int = 1,
    forward: bool = False,
    chunked: bool = False,
    select: bool = True,
    bands: int = 1,
    pipelined: bool = False,
) -> tuple[int, int]:
    """``(fixed, plan)`` modelled high-water bytes of one pass over an
    ``m``-sample plan (the whole trajectory, or one chunk).

    ``bands`` is the plan's ``P``; ``pipelined`` marks a chunk mode
    pass that selects each chunk in halves (module docstring, *Chunk
    mode*).
    ``fixed`` is O(grid): the ``K``-RHS dice.  ``plan`` is O(m): the
    entries (int32 addresses, with the ``P`` row pointers), the
    select's transients when the pass selects (:func:`select_bytes` of
    the chunk, or of its larger half when pipelined — one half is
    selected at a time; the whole chunk is the budget
    :func:`choose_chunk_samples` needs on any host; one-shot, of the
    ``P`` sample ranges' concurrent steps of at most
    :data:`SELECT_CHUNK_SAMPLES` ``/ P`` samples, where a banded plan
    adds each step's scratch entries and the per-sample band ids), and
    the value-sized buffers — in chunk mode the chunk's
    coordinates, their kept copy and its values or output slice,
    one-shot the plan's kept copy of the coordinates and the forward
    output.  The mat-vecs add in place and need no scratch.

    Examples
    --------
    >>> fixed, plan = working_set(1000, 4096, 2, 6, np.complex128)
    >>> fixed == 4096 * 16, plan > 1000 * 36 * 12
    (True, True)
    """
    c = np.dtype(dtype).itemsize
    r = c // 2
    per = width ** ndim
    nnz = m * per
    isize = 4 if max(nnz, n_flat) < 2 ** 31 else 8
    fixed = k_rhs * n_flat * c
    plan = nnz * (isize + r) + bands * (m + 1) * isize
    if select and chunked:
        plan += select_bytes(-(-m // 2) if pipelined else m, ndim, width, r, isize)
    elif select:
        step = min(-(-m // bands), SELECT_CHUNK_SAMPLES // bands)
        plan += bands * select_bytes(step, ndim, width, r, isize)
        if bands > 1:
            plan += m * width + bands * step * (per * (isize + r) + width * 9)
    if chunked:
        plan += m * (2 * ndim * 8 + k_rhs * c)
    else:
        plan += m * (ndim * 8 + forward * k_rhs * c)
    return fixed, plan


def choose_chunk_samples(
    m: int,
    grid_shape: tuple[int, ...],
    width: int,
    dtype=np.complex128,
    max_bytes: int | None = None,
    k_rhs: int = 1,
    tile_size: int = 8,
) -> int:
    """Largest chunk size that keeps a chunked pass under ``max_bytes``.

    Uses :func:`working_set` — the model ``GriddingStats.peak_bytes``
    and ``chunk_bytes`` report — taking the larger of both
    directions, so the budget holds for either.  Returns
    ``m`` (one chunk) when the whole trajectory fits.  ``grid_shape``
    is the grid the engine builds (a NuFFT plan's is padded to the
    tile size: :func:`repro.nufft.plan_grid_shape`); the working set
    does not depend on ``tile_size``.

    Raises
    ------
    ValueError
        If the fixed O(grid) part alone exceeds ``max_bytes`` — no
        chunk size can satisfy the budget.

    Examples
    --------
    >>> choose_chunk_samples(10**8, (256, 256), 4, max_bytes=2**30) > 0
    True
    >>> choose_chunk_samples(1000, (64, 64), 4, max_bytes=None)
    1000
    """
    m = int(m)
    if max_bytes is None:
        return max(m, 1)
    n_flat = int(np.prod(grid_shape))
    models = [
        working_set(
            1, n_flat, len(grid_shape), int(width), dtype,
            k_rhs=k_rhs, forward=forward, chunked=True,
        )
        for forward in (False, True)
    ]
    fixed = max(f for f, _ in models)
    per_sample = max(p for _, p in models)
    if fixed >= max_bytes:
        raise ValueError(
            f"grid-resident state ({fixed} bytes) alone exceeds "
            f"max_bytes={max_bytes}; no chunk size can satisfy the budget"
        )
    chunk = int((max_bytes - fixed) // per_sample)
    return max(1, min(chunk, max(m, 1)))


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class CompiledSliceAndDiceGridder(SliceAndDiceGridder):
    """Slice-and-Dice with the select pass compiled per trajectory.

    The first call on a trajectory runs the table-driven select into a
    :class:`CompiledPlan` and binds it; every subsequent call — every
    further CG iteration, coil, or RHS — is one sparse mat-vec per RHS,
    run band-parallel, with **zero select work**.  With
    ``chunk_samples`` set, every call runs chunk by chunk into one
    pooled dice (module docstring, *Chunk mode*).

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).
    chunk_samples:
        ``None`` (default) runs each call as one plan; an integer runs
        calls in chunks of that many samples, bounding peak memory by
        the chunk size instead of ``M``.

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
    >>> com.stats.cache_misses, com.stats.plan_nnz  # compile call
    (1, 3600)
    >>> _ = com.grid(coords, values)
    >>> com.stats.cache_hits, com.stats.boundary_checks  # plan reuse
    (1, 0)
    >>> coords[50, 0] = 16.25  # one interior sample moved in place
    >>> _ = com.grid(coords, values)
    >>> com.stats.cache_hits, com.stats.cache_misses  # recompiled
    (0, 1)
    >>> stm = make_gridder("slice_and_dice_compiled", setup, chunk_samples=32)
    >>> bool(np.array_equal(stm.grid(coords, values), ser.grid(coords, values)))
    True
    >>> stm.stats.chunks, stm.stats.plan_nnz, stm.stats.peak_bytes < com.stats.peak_bytes
    (4, 3600, True)
    """

    name = "slice_and_dice_compiled"

    #: :class:`~repro.robustness.CheckpointConfig` driving snapshot /
    #: resume of chunked adjoints; set per call by the owner (the
    #: service worker) and cleared in its ``finally``, like
    #: ``cancel_token``
    checkpoint = None
    #: per-call resume record: ``{"chunk_cursor", "sample_cursor"}``
    #: when the last adjoint was seeded from a checkpoint, else None
    last_resume = None

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        chunk_samples: int | None = None,
    ):
        super().__init__(setup, tile_size=tile_size, engine="columns")
        if chunk_samples is not None:
            chunk_samples = int(chunk_samples)
            if chunk_samples < 1:
                raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
        self.chunk_samples = chunk_samples
        self._n_flat = self.layout.n_columns * self.layout.n_tiles
        #: chunk mode's scratch plan storage, grown to the largest
        #: chunk: addresses and weights
        self._chunk_flat: np.ndarray | None = None
        self._chunk_weight: np.ndarray | None = None
        #: sticky record of every degradation this engine performed
        self.degradations: tuple[DegradationEvent, ...] = ()

    # ------------------------------------------------------------------
    # plans: one-shot, or chunk mode's scratch plan
    # ------------------------------------------------------------------
    def _index_dtype(self, nnz: int) -> np.dtype:
        """int32 indices halve the index traffic of every mat-vec;
        int64 ones only past their range."""
        fits = max(nnz, self._n_flat) < 2 ** 31
        return np.dtype(np.int32 if fits else np.int64)

    def _plan(self, flat, weight, m: int, indptr, seconds: float) -> CompiledPlan:
        """Selected entries of ``m`` samples as a plan."""
        n_rows, n_tiles = self.layout.n_columns, self.layout.n_tiles
        return CompiledPlan(flat, weight, m, n_rows, n_tiles, seconds, indptr)

    def _n_bands(self, nnz: int) -> int:
        """``P`` of a one-shot plan: ``min(usable CPUs, T)`` from
        :data:`PARALLEL_MIN_NNZ` entries on, else one band."""
        if not nnz or nnz < PARALLEL_MIN_NNZ:
            return 1
        return min(usable_cpus(), self.tile_size)

    def _band_pointers(
        self, coords: np.ndarray, bands: int, dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, indptr)`` of a ``bands``-band plan of ``coords``:
        each sample's ``W`` axis-0 columns as band ids (ascending, as
        the select orders them) and the bands' absolute row pointers.
        Only the axis-0 table is read: every axis-0 column carries
        ``W^(d-1)`` entries."""
        t, ndim = self.tile_size, self.setup.ndim
        _, axis_addr = self._axis_tables[0]
        band = axis_addr // (t ** (ndim - 1) * self.layout.n_tiles) * bands // t
        # entries per band of each grid position: W^(d-1) per column
        counts = np.stack(
            [np.count_nonzero(band == b, axis=1) for b in range(bands)], axis=1
        ) * self.setup.width ** (ndim - 1)
        i = self._axis_position(coords, 0)[0]
        ends = np.cumsum(counts[i], axis=0)
        indptr = np.empty((bands, coords.shape[0] + 1), dtype=dtype)
        indptr[:, 0] = np.concatenate(([0], np.cumsum(ends[-1, :-1])))
        indptr[:, 1:] = ends.T + indptr[:, :1]
        return band.astype(np.min_scalar_type(bands - 1))[i], indptr

    def _compile(self, coords: np.ndarray) -> CompiledPlan:
        """A one-shot plan of ``coords``: its ``P`` sample ranges
        selected on the band pool, each in steps of
        :data:`SELECT_CHUNK_SAMPLES` ``/ P`` samples — straight into
        place for one band, else through the range's own step-sized
        scratch whose per-band runs are then copied to their band-major
        offsets (module docstring, *The plan*)."""
        t0 = time.perf_counter()
        m = coords.shape[0]
        w = self.setup.width
        per = w ** self.setup.ndim
        nnz = m * per
        bands = self._n_bands(nnz)
        dtype, real = self._index_dtype(nnz), self.setup.real_dtype
        if bands > 1:
            cols, indptr = self._band_pointers(coords, bands, dtype)
        else:
            indptr = np.arange(0, nnz + 1, per, dtype=dtype)[None]
        flat = np.empty(nnz, dtype=dtype)
        weight = np.empty(nnz, dtype=real)

        # the P ranges' concurrent steps hold one one-band step's transients
        step = SELECT_CHUNK_SAMPLES // bands

        def select(start: int, stop: int) -> None:
            if bands > 1:
                size = min(stop - start, step) * per
                scratch = (np.empty(size, dtype=dtype), np.empty(size, real))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                if bands == 1:
                    self._select_entries(
                        coords[lo:hi], flat[lo * per:hi * per], weight[lo * per:hi * per]
                    )
                    continue
                n = (hi - lo) * per
                self._select_entries(coords[lo:hi], scratch[0][:n], scratch[1][:n])
                # rows of W^(d-1) entries, one per (sample, axis-0 column)
                runs = [s[:n].reshape((hi - lo) * w, -1) for s in scratch]
                for b, ptr in enumerate(indptr):
                    rows = np.flatnonzero(cols[lo:hi] == b)
                    for src, dst in zip(runs, (flat, weight)):
                        np.take(
                            src, rows, axis=0, mode="clip",
                            out=dst[ptr[lo]:ptr[hi]].reshape(rows.size, src.shape[1]),
                        )

        bounds = [m * b // bands for b in range(bands + 1)]
        _run_tasks([partial(select, lo, hi) for lo, hi in zip(bounds, bounds[1:])])
        return self._plan(flat, weight, m, indptr, time.perf_counter() - t0)

    def _plans(self, coords: np.ndarray, k_rhs: int, forward: bool, start: int = 0):
        """The one source of a call's plans: ``(lo, hi, plan, stats)``
        pieces in sample order, ``plan`` holding samples ``[lo, hi)``
        and ``stats`` a chunk's :class:`GriddingStats` on its last
        piece, else ``None``.

        One-shot, the call is one piece: the bound plan, compiled on a
        miss.  In chunk mode, the chunks from chunk ``start`` on: one
        piece of the held entries for a chunk equal to the held copy,
        else a select into the scratch, then bound — as two half-chunk
        pieces, each selected on the band pool while the caller applies
        the one before, where a one-shot plan of the chunk would be
        banded (module docstring, *Chunk mode*).  The binding is dropped
        before the pool writes into the scratch, and ``cancel_token`` is
        checked before each chunk.  The caller closes the generator in
        its ``finally``: that waits for a select still in flight.
        """
        m, step, binding = coords.shape[0], self.chunk_samples, self._binding
        if step is None:
            stats = self._stats_of(k_rhs, forward)
            if self.cancel_token is not None:
                self.cancel_token.check()
            plan, hit = binding.fetch(coords, self._compile)
            yield 0, m, plan, stats(plan, hit)
            return
        per = self.setup.width ** self.setup.ndim
        size = min(step, m) * per
        if self._chunk_flat is None or self._chunk_flat.size < size:
            self._chunk_flat = np.empty(size, dtype=self._index_dtype(size))
            self._chunk_weight = np.empty(size, dtype=self.setup.real_dtype)
        flat, weight = self._chunk_flat, self._chunk_weight
        ptr = np.arange(0, size + 1, per, dtype=flat.dtype)[None]
        pipelined = self._n_bands(size) > 1
        stats = self._stats_of(k_rhs, forward, pipelined)

        def select(lo: int, hi: int, at: int) -> None:
            n = (hi - lo) * per
            self._select_entries(coords[lo:hi], flat[at:at + n], weight[at:at + n])

        def piece(lo: int, hi: int, at: int, seconds: float = 0.0) -> CompiledPlan:
            n = (hi - lo) * per
            return self._plan(flat[at:at + n], weight[at:at + n], hi - lo,
                              ptr[:, :hi - lo + 1], seconds)

        pending = None  # the select running on the pool
        try:
            for lo in range(start * step, m, step):
                hi = min(lo + step, m)
                if self.cancel_token is not None:
                    self.cancel_token.check()
                if pending is None and binding.holds(coords[lo:hi]):
                    yield lo, hi, binding.product, stats(binding.product, True)
                    continue
                mid = (lo + hi + 1) // 2 if pipelined else hi
                t0 = time.perf_counter()
                if pending is None:
                    binding.bind(None, None)
                    select(lo, mid, 0)
                else:
                    pending.result()
                seconds = time.perf_counter() - t0
                if mid < hi:
                    pending = _pool().submit(select, mid, hi, (mid - lo) * per)
                    yield lo, mid, piece(lo, mid, 0), None
                    t0 = time.perf_counter()
                    pending.result()
                    pending, seconds = None, seconds + time.perf_counter() - t0
                chunk = piece(lo, hi, 0, seconds)
                binding.bind(coords[lo:hi], chunk)
                after = coords[hi:hi + step]
                if pipelined and after.size and not binding.holds(after):
                    binding.bind(None, None)
                    mid_after = hi + (after.shape[0] + 1) // 2
                    pending = _pool().submit(select, hi, mid_after, 0)
                last = chunk if mid == hi else piece(mid, hi, (mid - lo) * per)
                yield hi - last.m, hi, last, stats(chunk, False)
        finally:
            if pending is not None:
                # wait, and read its error: the error raised here wins
                pending.exception()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _stats_of(self, k_rhs: int, forward: bool, pipelined: bool = False):
        """A call's ``stats(plan, hit)``: the :class:`GriddingStats` of
        one plan's pass (a whole call, or one chunk), with the table
        bytes and each plan size's working set computed once per call.

        A plan **miss** pays the select: ``W`` boundary checks and LUT
        reads per axis per sample, its wall time on the caller's
        critical path in ``plan_compile_seconds``.  A plan **hit** is
        the paper's select-unit-reuse payoff: zero boundary checks and
        LUT reads.  Every issued lane slot does useful work either way
        (``simd_active_lanes == simd_lane_slots == nnz``); value work
        (``interpolations`` MACs, dice accesses) scales with the batch.
        ``peak_bytes`` is :func:`working_set` of the plan, with one
        half's select where the chunks are ``pipelined``; in chunk mode
        ``chunk_bytes`` is its O(chunk) part and ``chunks`` counts 1.
        ``table_bytes`` are the engine's resident ``(G, W)`` axis
        tables, built here, before any pool task reads them.
        """
        setup = self.setup
        chunked = self.chunk_samples is not None
        table_bytes = sum(d.nbytes + a.nbytes for d, a in self._axis_tables)
        models = {}

        def stats(plan: CompiledPlan, hit: bool) -> GriddingStats:
            key = (plan.m, hit, plan.n_bands)
            if key not in models:
                models[key] = working_set(
                    plan.m, plan.n_flat, setup.ndim, setup.width, setup.dtype,
                    k_rhs=k_rhs, forward=forward,
                    chunked=chunked, select=not hit, bands=plan.n_bands,
                    pipelined=pipelined,
                )
            fixed, plan_bytes = models[key]
            checks = 0 if hit else plan.m * setup.width * setup.ndim
            return GriddingStats(
                boundary_checks=checks,
                interpolations=plan.nnz * k_rhs,
                samples_processed=plan.m,
                grid_accesses=plan.nnz * k_rhs,
                lut_lookups=checks,
                simd_active_lanes=plan.nnz,
                simd_lane_slots=plan.nnz,
                cache_hits=int(hit),
                cache_misses=int(not hit),
                table_bytes=table_bytes,
                plan_compile_seconds=0.0 if hit else plan.compile_seconds,
                plan_nnz=plan.nnz,
                chunks=int(chunked),
                chunk_bytes=plan_bytes if chunked else 0,
                peak_bytes=fixed + plan_bytes,
            )

        return stats

    def _finish(self, total: GriddingStats, k_rhs: int) -> None:
        """Install a call's summed stats, with the pass' ``M * W^d``
        entries."""
        total.plan_nnz = total.interpolations // k_rhs
        self.stats = total

    # ------------------------------------------------------------------
    # gridding (adjoint): dice += A.T @ values per RHS
    # ------------------------------------------------------------------
    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint gridding: accumulate the call's pieces
        (:meth:`_plans`; one piece one-shot, a hit after the first call
        per trajectory) into one pooled dice, one pass per RHS, and
        unstack it into ``out`` (``(K,) + grid``).

        The dice is released on *every* exit path — a mid-pass failure
        (cancellation, a deadline, a kernel error) strands no pooled
        storage and leaves no partial accumulation visible anywhere:
        the next call starts from a freshly zeroed dice.

        Lifecycle hooks, both opt-in via instance attributes:

        - ``self.cancel_token`` is checked once per chunk, before its
          first piece is scattered — cancellation (or a deadline)
          aborts at a chunk boundary with the dice released, no select
          left running, and, when checkpointing is on, the latest
          snapshot still in the store.
        - ``self.checkpoint`` (a
          :class:`~repro.robustness.CheckpointConfig`) seeds the dice
          from a matching stored snapshot and skips the first
          ``chunk_cursor`` chunks of the replayed pass (skipped
          chunks are never selected or scattered), then saves a fresh
          snapshot every ``every`` chunks.  The in-place mat-vecs
          continue the dice's partial sums exactly (module docstring),
          so the resumed output is bit-identical to an uninterrupted
          run.
        """
        k_rhs = values_stack.shape[0]
        total = GriddingStats()
        ckpt = self.checkpoint
        self.last_resume = None
        snap = self._resume_snapshot(ckpt, k_rhs, total)
        cursor = sample_cursor = 0
        if snap is not None:
            cursor, sample_cursor = snap.chunk_cursor, snap.sample_cursor
        pieces = self._plans(coords, k_rhs, False, cursor)
        dice_flat = self._acquire_buffer((k_rhs, self._n_flat), zero=True)
        try:
            if snap is not None:
                dice_flat[...] = snap.dice
                self.last_resume = {
                    "chunk_cursor": cursor,
                    "sample_cursor": sample_cursor,
                }
            for lo, hi, plan, stats in pieces:
                self._apply_grid(plan, values_stack[:, lo:hi], dice_flat)
                sample_cursor += hi - lo
                if stats is None:
                    continue
                total.accumulate(stats)
                cursor += 1
                if ckpt is not None and cursor % ckpt.every == 0:
                    ckpt.store.save(
                        ckpt.key,
                        StreamCheckpoint(
                            fingerprint=ckpt.fingerprint,
                            chunk_cursor=cursor,
                            sample_cursor=sample_cursor,
                            dice=dice_flat.copy(),
                        ),
                    )
            for k in range(k_rhs):
                out[k] = self.layout.dice_to_grid(
                    dice_flat[k].reshape(self.layout.n_columns, self.layout.n_tiles)
                )
        finally:
            pieces.close()
            self._release_buffer(dice_flat)
        if ckpt is not None and ckpt.delete_on_success:
            ckpt.store.delete(ckpt.key)
        self._finish(total, k_rhs)

    def _resume_snapshot(
        self, ckpt, k_rhs: int, total: GriddingStats
    ) -> StreamCheckpoint | None:
        """The stored snapshot a checkpointed pass resumes from, if it
        matches; a stale one is ignored — never blended in — with an
        event recorded on the engine and in the call's ``total``."""
        if ckpt is None or not ckpt.resume:
            return None
        snap = ckpt.store.load(ckpt.key)
        if snap is None or snap.matches(ckpt.fingerprint, (k_rhs, self._n_flat)):
            return snap
        event = DegradationEvent(
            "checkpoint", "resume", "fresh",
            f"stale snapshot for key {ckpt.key!r} ignored",
        )
        self.degradations += (event,)
        total.degradations += (event,)
        return None

    def _apply_grid(
        self, plan: CompiledPlan, values_stack: np.ndarray, dice_flat: np.ndarray
    ) -> None:
        """Add ``plan`` applied to a ``(K, m)`` value stack into the
        caller's ``(K, n_flat)`` raveled dice, in place."""
        values = [_as_real(v).ravel() for v in values_stack]
        _run_tasks([
            partial(_grid_band, plan, indptr, values, dice_flat)
            for indptr in plan.indptr
        ])

    # ------------------------------------------------------------------
    # interpolation (forward): A @ dice per RHS
    # ------------------------------------------------------------------
    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """Batched forward interpolation: the transpose pass over the
        same plan, from a pooled ``(K, n_flat)`` raveled dice holding
        ``grid_stack`` (piece by piece into the output in chunk
        mode)."""
        k_rhs = grid_stack.shape[0]
        out = np.empty((k_rhs, coords.shape[0]), dtype=self.setup.dtype)
        total = GriddingStats()
        pieces = self._plans(coords, k_rhs, True)
        dice_flat = self._acquire_buffer((k_rhs, self._n_flat), zero=False)
        try:
            for k in range(k_rhs):
                dice_flat[k] = self.layout.grid_to_dice(grid_stack[k]).reshape(-1)
            for lo, hi, plan, stats in pieces:
                self._apply_interp(plan, dice_flat, out[:, lo:hi])
                if stats is not None:
                    total.accumulate(stats)
        finally:
            pieces.close()
            self._release_buffer(dice_flat)
        self._finish(total, k_rhs)
        return out

    def _apply_interp(
        self, plan: CompiledPlan, dice_flat: np.ndarray, out: np.ndarray
    ) -> None:
        """Fill ``out`` (``(K, m)``) with the plan applied to the raveled
        dice stack: the forward counterpart of :meth:`_apply_grid`."""
        # one sample range per band
        indptr = plan.indptr
        bounds = [plan.m * i // len(indptr) for i in range(len(indptr) + 1)]
        _run_tasks([
            partial(
                _interp_samples, plan, indptr[:, lo:hi + 1], dice_flat,
                out[:, lo:hi],
            )
            for lo, hi in zip(bounds, bounds[1:])
        ])
