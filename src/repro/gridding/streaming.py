"""Streaming chunked gridding: bounded-memory NUFFT at 10⁸ samples.

Every one-shot engine materializes O(M·W^d) state per trajectory — the
``M``-length select tables and the compiled scatter plan — so the
trajectory size, not compute, is the scaling wall.  The paper's
Slice-and-Dice decomposition is fundamentally a *locality* argument:
the dice accumulator is O(grid) and every sample touches at most one
point per column, so nothing about the algorithm requires the whole
sample stream to be resident.  This module exploits that:

- :class:`SampleStream` feeds fixed-size chunks from in-memory arrays
  (including ``np.memmap``), generators, or raw binary files read
  O(chunk) at a time;
- :class:`StreamingSliceAndDiceGridder` selects each chunk once and
  accumulates it into one pooled dice, so peak memory is
  **O(chunk + grid)**.  Like JIGSAW's single-pass ``M + 12``-cycle
  streamer it keeps no plan and sorts nothing: a compiled plan only
  pays when a trajectory is reused.  (A trajectory that fits in one
  chunk is selected once: its entries stay in the chunk scratch.)

The select is table-driven (:meth:`SliceAndDiceGridder._select_entries`,
the one the compiled engine runs once per trajectory): per axis, the
``W`` columns a sample touches depend only on its integer grid
position, so two ``(G, W)`` tables built once per engine give their
forward distances and their axis terms of the dice address.  A chunk's
``M·W^d`` addresses are one broadcast add of those terms and its
weights one broadcast product of the per-axis LUT reads, written
straight into the seeded-``bincount`` scratch.

Bit-identity
------------
The entries come out **sample-major**, rows ascending inside each
sample.  A sample touches each dice word at most once (``W <= T``), so
per dice word the entries run in ascending sample order and per sample
in ascending row order — the orders the serial and the one-shot
compiled engines add in, restricted to that word or sample.
Unstacking the dice adds nothing, and chunks partition the stream in
order, so the chunks' per-word sequences concatenate to the one-shot
order.  The NumPy lane also
keeps the *partial-sum chain*: it seeds each chunk's ``bincount`` with
the current dice values (``arange(n_flat)`` entries prepended), and
``0.0 + seed == seed`` exactly, so the streamed adjoint is
``np.array_equal`` to the one-shot compiled engine at complex128 for
**any** chunk size (at complex64 it rounds the dice to float32 at
chunk boundaries: close, not equal).  The JIT and serial
lanes accumulate natively in entry order and are bit-identical to the
one-shot JIT engine at both precisions.  Forward, each chunk owns a
disjoint output slice and each sample sums from ``0.0`` in ascending
row order (float64 on the NumPy lane, like ``bincount``), so streamed
interpolation matches the one-shot engines in every lane and dtype.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from ..core.jit import jit_available, plan_kernels
from ..core.slice_and_dice import SliceAndDiceGridder, gather_f64, select_bytes
from ..errors import DegradationEvent
from ..robustness.checkpoint import StreamCheckpoint
from ..robustness.faults import corrupt_chunk, fault_point
from ..robustness.validate import apply_quality_policy
from .base import GriddingSetup, GriddingStats

__all__ = [
    "SampleStream",
    "StreamingSliceAndDiceGridder",
    "choose_chunk_samples",
]

#: default fixed chunk size (samples) — large enough that per-chunk
#: Python overhead amortizes, small enough that the per-chunk working
#: set stays in the tens of megabytes on 2-D problems
DEFAULT_CHUNK_SAMPLES = 65536


class SampleStream:
    """A source of fixed-size ``(coords, values)`` sample chunks.

    Construct via the classmethods; iterate with :meth:`chunks`.
    Array- and file-backed streams are re-iterable; generator-backed
    streams (:meth:`from_chunks`) are single-use, like the generator
    they wrap.

    Attributes
    ----------
    m:
        Total samples when known (arrays/files), else ``None``
        (generator sources) — the engine never needs it up front.

    Examples
    --------
    >>> import numpy as np
    >>> coords = np.arange(10, dtype=np.float64).reshape(5, 2)
    >>> values = np.ones(5, dtype=complex)
    >>> stream = SampleStream.from_arrays(coords, values, chunk_samples=2)
    >>> [c.shape[0] for c, v in stream.chunks()]
    [2, 2, 1]
    """

    def __init__(self, factory, m: int | None = None, single_use: bool = False):
        self._factory = factory
        self._consumed = False
        self.m = None if m is None else int(m)
        self.single_use = bool(single_use)

    def chunks(self):
        """Iterate ``(coords, values_or_None)`` chunk pairs in order."""
        if self.single_use and self._consumed:
            raise RuntimeError(
                "generator-backed SampleStream is single-use; rebuild it "
                "(array/file streams are re-iterable)"
            )
        self._consumed = True
        return self._factory()

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        coords: np.ndarray,
        values: np.ndarray | None = None,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> "SampleStream":
        """Chunk in-memory (or ``np.memmap``) arrays.

        ``values`` may be ``(M,)`` or batched ``(K, M)``.  Each chunk
        is lifted into a fresh in-RAM array (``np.ascontiguousarray``),
        so a memmap source only ever has O(chunk) pages hot.
        """
        chunk_samples = _check_chunk_samples(chunk_samples)
        m = int(coords.shape[0])
        if values is not None and values.shape[-1] != m:
            raise ValueError(
                f"{values.shape[-1]} values but {m} coordinates"
            )

        def factory():
            for lo in range(0, m, chunk_samples):
                hi = min(lo + chunk_samples, m)
                c = np.ascontiguousarray(coords[lo:hi])
                v = (
                    None
                    if values is None
                    else np.ascontiguousarray(values[..., lo:hi])
                )
                yield c, v

        return cls(factory, m=m)

    @classmethod
    def from_chunks(cls, iterable, m: int | None = None) -> "SampleStream":
        """Wrap an iterable/generator of ``(coords, values)`` pairs.

        Chunks may be ragged; ``values`` may be ``None`` for
        interpolation streams.  Single-use when given a generator.
        """
        it = iter(iterable)
        return cls(lambda: it, m=m, single_use=True)

    @classmethod
    def from_file(
        cls,
        coords_path,
        *,
        m: int,
        ndim: int,
        values_path=None,
        coords_dtype=np.float64,
        values_dtype=np.complex128,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> "SampleStream":
        """Stream raw binary files with O(chunk) resident bytes.

        ``coords_path`` holds a C-order ``(m, ndim)`` array of
        ``coords_dtype``; ``values_path`` (optional) a ``(m,)`` array
        of ``values_dtype``.  Chunks are read with offset
        ``np.fromfile`` reads, so — unlike an ``np.memmap`` over the
        whole file — neither the virtual address space nor the resident
        set ever holds more than one chunk.  This is the 10⁸-sample
        path: the trajectory lives on disk, RSS stays O(chunk + grid).
        """
        chunk_samples = _check_chunk_samples(chunk_samples)
        m = int(m)
        ndim = int(ndim)
        coords_path = Path(coords_path)
        values_path = None if values_path is None else Path(values_path)
        cdt = np.dtype(coords_dtype)
        vdt = np.dtype(values_dtype)

        def factory():
            for lo in range(0, m, chunk_samples):
                hi = min(lo + chunk_samples, m)
                n = hi - lo
                c = np.fromfile(
                    coords_path,
                    dtype=cdt,
                    count=n * ndim,
                    offset=lo * ndim * cdt.itemsize,
                ).reshape(n, ndim)
                v = None
                if values_path is not None:
                    v = np.fromfile(
                        values_path,
                        dtype=vdt,
                        count=n,
                        offset=lo * vdt.itemsize,
                    )
                yield c, v

        return cls(factory, m=m)


def _check_chunk_samples(chunk_samples: int) -> int:
    chunk_samples = int(chunk_samples)
    if chunk_samples < 1:
        raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
    return chunk_samples


def _working_set(
    m: int, n_flat: int, ndim: int, width: int, dtype, k_rhs: int = 1
) -> tuple[int, int]:
    """``(fixed, chunk)`` bytes of a streamed pass over ``m``-sample chunks.

    ``fixed`` is O(grid): the ``K``-RHS dice, the ``arange(n_flat)``
    seed slots of the seeded-``bincount`` index/weight scratch and
    ``bincount``'s float64 output.  ``chunk`` is O(chunk): the chunk's
    coordinate/value slices plus a kept copy of its coordinates, its
    ``M·W^d`` index/weight slots, the weight scratch, and the per-axis
    ``(M, W)`` select temporaries (forward distance, LUT index with its
    two float64 rounding/clip transients, address, weight), plus in 3-D
    and up the ``(M, W^(d-1))`` broadcast intermediates.  Float32 weight slots
    add ``bincount``'s float64 copy of them to both parts.
    """
    cdt = np.dtype(dtype)
    rsize = 4 if cdt == np.dtype(np.complex64) else 8
    cast = 8 if rsize == 4 else 0
    fixed = k_rhs * n_flat * cdt.itemsize + n_flat * (8 + rsize + cast + 8)
    per_sample = (
        2 * ndim * 8
        + k_rhs * cdt.itemsize
        + width ** ndim * (8 + 2 * rsize + cast)
    )
    return fixed, m * per_sample + select_bytes(m, ndim, width, rsize)


def choose_chunk_samples(
    m: int,
    grid_shape: tuple[int, ...],
    width: int,
    dtype=np.complex128,
    max_bytes: int | None = None,
    k_rhs: int = 1,
    tile_size: int = 8,
) -> int:
    """Largest chunk size that keeps a streamed pass under ``max_bytes``.

    Models the streamed working set as a fixed O(grid) part — the dice
    and the seed slots of the seeded-``bincount`` scratch — and a
    per-sample O(chunk) part: the chunk's slices, its ``M·W^d``
    seeded-``bincount`` index and weight slots, the weight scratch and
    the per-axis ``(M, W)`` select temporaries.
    ``GriddingStats.peak_bytes`` and ``chunk_bytes`` of a streamed pass
    count the same buffers.  Returns ``m`` (one chunk) when the whole
    trajectory fits.  The working set does not depend on
    ``tile_size``.

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
    fixed, per_sample = _working_set(
        1, int(np.prod(grid_shape)), len(grid_shape), int(width), dtype, k_rhs
    )
    if fixed >= max_bytes:
        raise ValueError(
            f"grid-resident state ({fixed} bytes) alone exceeds "
            f"max_bytes={max_bytes}; no chunk size can satisfy the budget"
        )
    chunk = int((max_bytes - fixed) // per_sample)
    return max(1, min(chunk, max(m, 1)))


#: streaming execution lanes (``auto`` resolves per environment)
_STREAM_LANES = ("auto", "jit", "numpy", "serial")


class StreamingSliceAndDiceGridder(SliceAndDiceGridder):
    """Chunked streaming Slice-and-Dice with one select pass per chunk.

    Array calls (:meth:`grid` etc.) are chunked internally after the
    usual public-boundary gate; :meth:`grid_stream` /
    :meth:`interp_stream` accept a :class:`SampleStream` whose chunks
    are gated individually (corruption hook + quality policy + torus
    wrap), so out-of-core sources get the same robustness contract.

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).
    chunk_samples:
        Fixed chunk size; the per-chunk working set — not ``M`` —
        bounds peak memory.
    lane:
        Per-chunk accumulate lane: ``"auto"`` (JIT when numba is
        importable, else NumPy), ``"jit"`` (fused entry-order loops;
        degrades to NumPy with a recorded event when unavailable),
        ``"numpy"`` (seeded ``bincount`` — bit-identical to the
        one-shot compiled engine at complex128), or ``"serial"`` (the
        raw Python reference loops — slow, dependency-free, exactly
        entry-ordered).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> stm = make_gridder("slice_and_dice_streaming", setup, chunk_samples=32)
    >>> ref = make_gridder("slice_and_dice_compiled", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.array_equal(stm.grid(coords, values), ref.grid(coords, values)))
    True
    >>> stm.stats.chunks, stm.stats.plan_nnz, stm.stats.peak_bytes < ref.stats.peak_bytes
    (4, 3600, True)
    """

    name = "slice_and_dice_streaming"

    #: cooperative :class:`~repro.robustness.CancelToken` checked once
    #: per chunk; set per call by the owner (the NuFFT plan / service
    #: worker) and cleared in its ``finally`` so cached gridders never
    #: retain a stale token
    cancel_token = None
    #: :class:`~repro.robustness.CheckpointConfig` driving snapshot /
    #: resume of streamed adjoints; same set-and-clear ownership rule
    checkpoint = None
    #: per-call resume record: ``{"chunk_cursor", "sample_cursor"}``
    #: when the last adjoint was seeded from a checkpoint, else None
    last_resume = None

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
        lane: str = "auto",
    ):
        super().__init__(setup, tile_size=tile_size, table_cache_size=0)
        if lane not in _STREAM_LANES:
            raise ValueError(f"lane must be one of {_STREAM_LANES}, got {lane!r}")
        self.chunk_samples = _check_chunk_samples(chunk_samples)
        self.requested_lane = lane
        #: sticky record of every demotion this engine performed
        self.degradations: tuple[DegradationEvent, ...] = ()
        self._pending_events: list[DegradationEvent] = []
        self._used_lane = ""
        self._n_flat = self.layout.n_columns * self.layout.n_tiles
        #: per-chunk scratch, grown to the largest chunk and reused:
        #: seeded-bincount indices (an arange(n_flat) seed prefix, then
        #: the chunk's dice addresses), the matching weight slots, and
        #: the chunk's combined weights
        self._aug_idx: np.ndarray | None = None
        self._aug_wgt: np.ndarray | None = None
        self._wgt: np.ndarray | None = None
        #: coordinates of the chunk whose entries the scratch holds
        self._selected: np.ndarray | None = None
        if lane == "jit" and not jit_available():
            self._record(
                DegradationEvent(
                    "streaming", "jit", "numpy",
                    "numba not importable or disabled",
                )
            )
            self._lane = "numpy"
        else:
            self._lane = lane

    # ------------------------------------------------------------------
    # lanes + demotion
    # ------------------------------------------------------------------
    def _record(self, event: DegradationEvent) -> None:
        self.degradations = self.degradations + (event,)
        self._pending_events.append(event)

    def _resolve_lane(self) -> str:
        if self._lane == "auto":
            return "jit" if jit_available() else "numpy"
        return self._lane

    def _fused(self, kind: str, m: int, src, flat, wgt, dst) -> bool:
        """Run ``plan_kernels``' entry-order ``kind`` loop (``"scatter"``
        or ``"gather"``) over ``m`` samples on the jit/serial lane.

        Returns ``False`` when the NumPy lane must run instead: either
        it is the resolved lane, or the fused lane just failed and was
        demoted stickily.  Dispatch/compile failures (and the injected
        jit fault) fire before any entry is written, so the chunk can
        be replayed on the NumPy lane without double-counting.
        """
        lane = self._resolve_lane()
        if lane == "numpy":
            return False
        try:
            if lane == "jit":
                fault_point(f"jit:{kind}")
            kern = plan_kernels(jit=(lane == "jit"))[f"{kind}-serial"]
            kern(src, flat.reshape(m, -1), wgt.reshape(m, -1), dst)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            self._record(DegradationEvent("streaming", lane, "numpy", repr(exc)))
            self._lane = "numpy"
            return False
        self._used_lane = "numba-serial" if lane == "jit" else lane
        return True

    def invalidate_cache(self) -> None:
        super().invalidate_cache()
        self._aug_idx = self._aug_wgt = self._wgt = self._selected = None

    # ------------------------------------------------------------------
    # chunk select (SliceAndDiceGridder._select_entries) into the scratch
    # ------------------------------------------------------------------
    def _scratch(self, nnz: int, weight_slots: bool):
        """``(idx, wgt_slots, wgt)`` views for a chunk of ``nnz``
        entries: the seeded-bincount index array (seed prefix + entry
        slots), its weight slots (``None`` unless ``weight_slots``) and
        the entries' weight scratch."""
        n_flat = self._n_flat
        cap = n_flat + nnz
        rdt = self.setup.real_dtype
        if self._aug_idx is None or self._aug_idx.size < cap:
            self._aug_idx = np.empty(cap, dtype=np.int64)
            self._aug_idx[:n_flat] = np.arange(n_flat, dtype=np.int64)
            self._wgt = np.empty(nnz, dtype=rdt)
            self._aug_wgt = None
        if weight_slots and self._aug_wgt is None:
            self._aug_wgt = np.empty(self._aug_idx.size, dtype=rdt)
        slots = None if self._aug_wgt is None else self._aug_wgt[:cap]
        return self._aug_idx[:cap], slots, self._wgt[:nnz]

    def _select(self, coords: np.ndarray, weight_slots: bool):
        """One chunk's ``M·W^d`` sample-major entries.

        Writes the dice addresses into the index scratch's entry slots
        and the combined weights into the weight scratch; returns the
        scratch views ``(idx, wgt_slots, wgt)`` (see :meth:`_scratch`)
        and whether the scratch already held this chunk's entries: it
        does when the chunk selected last comes again (a trajectory that
        fits in one chunk, reused by CG or warm service jobs).  The
        match is on all coordinates against a kept copy, as the O(1)
        sampled trajectory fingerprint could alias two stream chunks.
        """
        nnz = coords.shape[0] * self.setup.width ** self.setup.ndim
        hit = self._selected is not None and np.array_equal(self._selected, coords)
        idx, slots, wgt = self._scratch(nnz, weight_slots)
        if hit:
            return idx, slots, wgt, True
        self._selected = None
        self._select_entries(coords, idx[self._n_flat:], wgt)
        self._selected = coords.copy()
        return idx, slots, wgt, False

    # ------------------------------------------------------------------
    # per-chunk scatter / gather
    # ------------------------------------------------------------------
    def _scatter_chunk(
        self, coords: np.ndarray, values_stack: np.ndarray, dice_flat: np.ndarray
    ) -> GriddingStats:
        """Select one chunk and accumulate it into the persistent dice."""
        m = coords.shape[0]
        t0 = time.perf_counter()
        idx, slots, wgt, hit = self._select(
            coords, weight_slots=self._resolve_lane() == "numpy"
        )
        select_s = time.perf_counter() - t0
        n_flat = self._n_flat
        if not self._fused("scatter", m, values_stack, idx[n_flat:], wgt, dice_flat):
            # seeded bincount: the first n_flat entries re-deposit the
            # current dice, so every per-word partial-sum chain
            # continues the one-shot chain exactly
            idx, slots, wgt = self._scratch(wgt.size, weight_slots=True)
            products = slots[n_flat:].reshape(m, -1)
            wgt_2d = wgt.reshape(m, -1)
            for k in range(values_stack.shape[0]):
                for part in ("real", "imag"):
                    np.einsum(
                        "i,ij->ij", getattr(values_stack[k], part), wgt_2d,
                        out=products,
                    )
                    slots[:n_flat] = getattr(dice_flat[k], part)
                    setattr(
                        dice_flat[k], part,
                        np.bincount(idx, weights=slots, minlength=n_flat)[:n_flat],
                    )
            self._used_lane = "numpy"
        return self._chunk_stats(m, wgt.size, values_stack.shape[0], select_s, hit)

    def _gather_chunk(
        self, coords: np.ndarray, dice_flat: np.ndarray
    ) -> tuple[np.ndarray, GriddingStats]:
        """One chunk's forward interpolation: ``(K, m_chunk)`` values."""
        m, k_rhs = coords.shape[0], dice_flat.shape[0]
        t0 = time.perf_counter()
        idx, slots, wgt, hit = self._select(
            coords, weight_slots=self._resolve_lane() == "numpy"
        )
        select_s = time.perf_counter() - t0
        out = np.zeros((k_rhs, m), dtype=self.setup.dtype)
        flat = idx[self._n_flat:]
        if not self._fused("gather", m, dice_flat, flat, wgt, out):
            # each sample's W^d contributions are contiguous and in
            # ascending row order: a float64 column walk from 0.0 is
            # the one-shot bincount chain of every sample
            _, slots, wgt = self._scratch(wgt.size, weight_slots=True)
            products = slots[self._n_flat:]
            acc = np.empty(m, dtype=np.float64)
            for k in range(k_rhs):
                for part in ("real", "imag"):
                    gather_f64(getattr(dice_flat[k], part), flat, wgt, products, acc)
                    setattr(out[k], part, acc)
            self._used_lane = "numpy"
        return out, self._chunk_stats(m, wgt.size, k_rhs, select_s, hit)

    # ------------------------------------------------------------------
    # chunk iteration + gating
    # ------------------------------------------------------------------
    def _array_chunks(self, coords: np.ndarray, values_stack: np.ndarray | None):
        """Chunk pre-gated arrays (the template-method impl path)."""
        m = coords.shape[0]
        for lo in range(0, m, self.chunk_samples):
            hi = min(lo + self.chunk_samples, m)
            v = None if values_stack is None else values_stack[:, lo:hi]
            yield coords[lo:hi], v

    def _gate_chunk(
        self, index: int, coords: np.ndarray, values: np.ndarray | None
    ):
        """Per-chunk public-boundary gate for stream sources.

        Corruption hook + quality policy + torus wrap, exactly the
        :meth:`Gridder._gate_samples` contract applied chunk-wise —
        under ``quality_policy="raise"`` a poisoned mid-stream chunk
        aborts the pass (the caller's ``finally`` releases the dice,
        leaving no partial accumulation behind).
        """
        coords = self.setup.coerce_coords(coords)
        values_stack = None
        if values is not None:
            values_stack = np.asarray(values, dtype=self.setup.dtype)
            if values_stack.ndim == 1:
                values_stack = values_stack[None, :]
            if values_stack.shape[-1] != coords.shape[0]:
                raise ValueError(
                    f"chunk {index}: {values_stack.shape[-1]} values but "
                    f"{coords.shape[0]} coordinates"
                )
        coords, values_stack = corrupt_chunk(index, coords, values_stack)
        coords, values_stack, bad, report = apply_quality_policy(
            coords, values_stack, self.setup.quality_policy,
            self.setup.grid_shape,
        )
        return self.setup.check_coords(coords), values_stack, bad, report

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _chunk_stats(
        self, m: int, nnz: int, k_rhs: int, select_s: float, hit: bool
    ) -> GriddingStats:
        """One chunk's stats: select/value counters + working-set gauges.

        The select checks and reads ``W`` columns per axis per sample
        (none on a ``hit``, counted in ``cache_hits``); its wall time is
        reported as ``plan_compile_seconds``.
        ``chunk_bytes`` / ``peak_bytes`` are the chunk's working set as
        :func:`choose_chunk_samples` models it (in the forward
        direction the per-sample value bytes are the chunk's output).
        """
        setup = self.setup
        fixed, chunk_bytes = _working_set(
            m, self._n_flat, setup.ndim, setup.width, setup.dtype, k_rhs
        )
        checks = 0 if hit else m * setup.width * setup.ndim
        return GriddingStats(
            boundary_checks=checks,
            interpolations=nnz * k_rhs,
            samples_processed=m,
            grid_accesses=nnz * k_rhs,
            lut_lookups=checks,
            cache_hits=int(hit),
            cache_misses=int(not hit),
            table_bytes=sum(d.nbytes + a.nbytes for d, a in self._axis_tables),
            plan_compile_seconds=select_s,
            plan_nnz=nnz,
            chunks=1,
            chunk_bytes=chunk_bytes,
            peak_bytes=fixed + chunk_bytes,
        )

    def _finalize_stats(self, total: GriddingStats, k_rhs: int) -> None:
        total.exec_lane = self._used_lane or "numpy"
        # the pass' entries: M * W^d over all chunks
        total.plan_nnz = total.interpolations // k_rhs
        if self._pending_events:
            total.degradations = total.degradations + tuple(self._pending_events)
            self._pending_events = []
        self.stats = total

    # ------------------------------------------------------------------
    # template-method impls (array path, chunked internally)
    # ------------------------------------------------------------------
    def _grid_batch_impl(
        self, coords: np.ndarray, values_stack: np.ndarray, out: np.ndarray
    ) -> None:
        k_rhs = values_stack.shape[0]
        total = self._stream_into_dice(
            self._array_chunks(coords, values_stack), k_rhs, out
        )
        self._finalize_stats(total, k_rhs)

    def _grid_impl(
        self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray
    ) -> None:
        self._grid_batch_impl(coords, values[None, :], grid[None])

    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        k_rhs = grid_stack.shape[0]
        out = np.empty((k_rhs, coords.shape[0]), dtype=self.setup.dtype)
        total = GriddingStats()
        dice_flat = self._acquire_buffer((k_rhs, self._n_flat), zero=False)
        try:
            for k in range(k_rhs):
                dice_flat[k] = self.layout.grid_to_dice(grid_stack[k]).reshape(-1)
            lo = 0
            for coords_c, _ in self._array_chunks(coords, None):
                if self.cancel_token is not None:
                    self.cancel_token.check()
                vals, st = self._gather_chunk(coords_c, dice_flat)
                out[:, lo:lo + coords_c.shape[0]] = vals
                total.accumulate(st)
                lo += coords_c.shape[0]
        finally:
            self._release_buffer(dice_flat)
        self._finalize_stats(total, k_rhs)
        return out

    def _stream_into_dice(self, chunk_iter, k_rhs: int, out: np.ndarray):
        """Shared adjoint core: accumulate gated chunks into one pooled
        dice, then unstack into ``out`` (``(K,) + grid_shape``).

        The dice is released on *every* exit path — a mid-stream
        failure (corrupted chunk under ``raise``, a source error) can
        strand no pooled storage and leaves no partial accumulation
        visible anywhere: the next call starts from a freshly zeroed
        dice.

        Lifecycle hooks, both opt-in via instance attributes:

        - ``self.cancel_token`` is checked once per chunk, *before* the
          chunk is selected and scattered — cancellation (or a
          deadline) aborts at a chunk boundary with the dice released
          and, when checkpointing is on, the latest snapshot still in
          the store for resume.
        - ``self.checkpoint`` (a
          :class:`~repro.robustness.CheckpointConfig`) seeds the dice
          from a matching stored snapshot and skips the first
          ``chunk_cursor`` chunks of the replayed stream (skipped
          chunks are never selected or scattered), then saves a fresh
          snapshot every ``every`` accumulated chunks.  Because the
          accumulation chain is seeded (module docstring), the resumed
          output is bit-identical to an uninterrupted run.  A stale
          snapshot (fingerprint/shape mismatch) is ignored with a
          recorded :class:`~repro.errors.DegradationEvent` — never
          blended in.
        """
        total = GriddingStats()
        n_flat = self._n_flat
        token = self.cancel_token
        ckpt = self.checkpoint
        self.last_resume = None
        snap = None
        if ckpt is not None and ckpt.resume:
            candidate = ckpt.store.load(ckpt.key)
            if candidate is not None:
                if candidate.matches(ckpt.fingerprint, (k_rhs, n_flat)):
                    snap = candidate
                else:
                    self._record(
                        DegradationEvent(
                            "checkpoint", "resume", "fresh",
                            f"stale snapshot for key {ckpt.key!r} ignored",
                        )
                    )
        cursor = 0
        sample_cursor = 0
        skip = 0
        dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=True)
        try:
            if snap is not None:
                dice_flat[...] = snap.dice
                cursor = snap.chunk_cursor
                sample_cursor = snap.sample_cursor
                skip = snap.chunk_cursor
                self.last_resume = {
                    "chunk_cursor": snap.chunk_cursor,
                    "sample_cursor": snap.sample_cursor,
                }

            for index, (coords_c, values_c) in enumerate(chunk_iter):
                if index < skip:
                    continue
                if token is not None:
                    token.check()
                if coords_c.shape[0]:
                    total.accumulate(
                        self._scatter_chunk(coords_c, values_c, dice_flat)
                    )
                    sample_cursor += coords_c.shape[0]
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
                    dice_flat[k].reshape(
                        self.layout.n_columns, self.layout.n_tiles
                    )
                )
        finally:
            self._release_buffer(dice_flat)
        if ckpt is not None and ckpt.delete_on_success:
            ckpt.store.delete(ckpt.key)
        return total

    # ------------------------------------------------------------------
    # stream entry points
    # ------------------------------------------------------------------
    def grid_stream(
        self, stream: SampleStream, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Adjoint gridding of a :class:`SampleStream`.

        Each chunk passes the full public-boundary gate individually
        (chunk corruption hook, quality policy, torus wrap).  The
        output rank follows the stream's value chunks: ``(M,)`` chunks
        produce one grid, ``(K, M)`` chunks a ``(K,)``-stacked grid.

        Under ``quality_policy="raise"`` a poisoned chunk aborts the
        whole pass; under ``"drop"``/``"zero"`` the offending samples
        degrade per policy and streaming continues, with the merged
        :class:`~repro.robustness.DataQualityReport` in
        ``stats.quality``.
        """
        total_quality = None
        batched = False
        k_rhs = 1

        def gated():
            nonlocal total_quality, batched, k_rhs
            for index, (coords, values) in enumerate(stream.chunks()):
                if values is None:
                    raise ValueError(
                        "grid_stream requires value chunks; this stream "
                        "yields coordinates only"
                    )
                if index == 0:
                    batched = np.asarray(values).ndim == 2
                coords, values_stack, _, report = self._gate_chunk(
                    index, coords, values
                )
                if index == 0:
                    k_rhs = values_stack.shape[0]
                elif values_stack.shape[0] != k_rhs:
                    raise ValueError(
                        f"chunk {index} has {values_stack.shape[0]} RHS, "
                        f"expected {k_rhs}"
                    )
                if total_quality is None:
                    total_quality = report
                else:
                    total_quality.accumulate(report)
                yield coords, values_stack

        gate = gated()
        # pull the first chunk eagerly so K is known before the dice
        # buffer is sized (also surfaces an empty stream cleanly)
        first = next(gate, None)
        shape = self.setup.grid_shape
        if first is None:
            grid = self._out_grid(out, shape)
            self._finalize_stats(GriddingStats(), 1)
            self._tag_stats()
            return grid

        def chunks_with_first():
            yield first
            yield from gate

        stacked_shape = (k_rhs,) + shape
        dtype = self.setup.dtype
        if out is None:
            grid_out = np.empty(stacked_shape, dtype=dtype)
        else:
            expect = stacked_shape if batched else shape
            if tuple(out.shape) != expect or out.dtype != dtype:
                raise ValueError(
                    f"out must have dtype {dtype} and shape {expect}, got "
                    f"dtype {out.dtype} and shape {out.shape}"
                )
            grid_out = out[None] if not batched else out
        total = self._stream_into_dice(chunks_with_first(), k_rhs, grid_out)
        total.quality = total_quality
        self._finalize_stats(total, k_rhs)
        self._tag_stats()
        return grid_out if batched else grid_out[0]

    def interp_stream(self, grid_stack: np.ndarray, stream: SampleStream):
        """Forward interpolation streamed back out in sample order.

        A generator yielding one value array per chunk — ``(m_c,)`` for
        an unstacked ``grid_stack``, ``(K, m_c)`` for a stacked one —
        each chunk's slots aligned with its input coordinates (dropped/
        zeroed samples yield ``0`` in place, as in :meth:`interp`).
        The staged dice is released when the generator finishes *or*
        is closed early, so abandoning a stream cannot strand pooled
        storage.
        """
        batched = np.asarray(grid_stack).ndim == self.setup.ndim + 1
        grid_stack = self._check_batch_grids(np.asarray(grid_stack))
        k_rhs = grid_stack.shape[0]

        def run():
            total = GriddingStats()
            total_quality = None
            dice_flat = self._acquire_buffer((k_rhs, self._n_flat), zero=False)
            try:
                for k in range(k_rhs):
                    dice_flat[k] = self.layout.grid_to_dice(
                        grid_stack[k]
                    ).reshape(-1)
                for index, (coords, _values) in enumerate(stream.chunks()):
                    if self.cancel_token is not None:
                        self.cancel_token.check()
                    m_raw = np.atleast_2d(np.asarray(coords)).shape[0]
                    coords_c, _, bad, report = self._gate_chunk(
                        index, coords, None
                    )
                    if total_quality is None:
                        total_quality = report
                    else:
                        total_quality.accumulate(report)
                    if coords_c.shape[0] == 0:
                        vals = np.zeros((k_rhs, 0), dtype=self.setup.dtype)
                    else:
                        vals, st = self._gather_chunk(coords_c, dice_flat)
                        total.accumulate(st)
                    vals = self._restore_sample_slots(
                        vals, bad, report, m_raw, batched=True
                    )
                    yield vals if batched else vals[0]
            finally:
                self._release_buffer(dice_flat)
                total.quality = total_quality
                self._finalize_stats(total, k_rhs)
                self._tag_stats()

        return run()
