"""The Slice-and-Dice gridder (§III, Fig. 3b/4).

Two execution engines over the same window hits and weights:

- ``engine="columns"`` — the faithful parallel model: every column
  (one of ``T^d``) scans the whole sample stream, keeps the samples
  whose per-axis forward distances all pass ``fwd < W``, and
  accumulates them at their global tile address in its private
  contiguous array.  Boundary checks: exactly ``M * T^d``; duplicates:
  none; pre-sort: none.  (Each column's scan is vectorized over
  samples — NumPy's SIMD standing in for one hardware lane.)

- ``engine="blocked"`` — the GPU mapping of §VI.A: the sample stream is
  partitioned across ``n_blocks`` thread blocks; each block runs the
  column model on its slice of the input and accumulates into the
  shared dice with (emulated) atomic adds.  Demonstrates the
  input x output parallelization that breaks the pure output-parallel
  model but raises occupancy.  Its interpolation is bit-identical to
  ``"columns"``; its gridding adds the blocks' partial sums in another
  order, so it matches ``"columns"`` to rounding, not bit for bit.

Multi-RHS batching and the trajectory binding
---------------------------------------------

Iterative multi-coil reconstruction grids many value vectors over one
fixed trajectory (one per coil per CG iteration — the paper's
"millions of NuFFTs" workload of §I).  Two amortizations exploit that:

- :meth:`grid_batch` / :meth:`interp_batch` run the ``hit``/``wgt``/
  ``depth`` gather once per column and repeat only the per-RHS
  ``bincount`` accumulate, so the select work is paid once for all
  ``K`` coils.
- The coordinate decomposition and per-axis select tables (three
  ``(T, M)`` arrays per axis) are bound to one trajectory per gridder
  (:class:`~repro.gridding.base.ExactBinding`): a held copy of the
  canonicalized coordinates they were built from.  A call reuses them
  only when its coordinates are ``np.array_equal`` to that copy, so
  repeated calls on one trajectory (every CG iteration) skip the
  ``M*T*d`` table build, while a different array or an in-place edit
  of any sample rebuilds and rebinds.  Binding events, build time, and
  resident table bytes are reported per call in ``stats.cache_hits``,
  ``stats.cache_misses``, ``stats.table_build_seconds`` and
  ``stats.table_bytes``.

The select pass also has a *table-driven* form:
:meth:`_select_entries` writes every passing ``(sample, column)`` pair
as fixed-width, sample-major dice-address/weight arrays from two small
``(G, W)`` tables per axis (:attr:`_axis_tables`).  The compiled
engine (:class:`repro.core.compiled.CompiledSliceAndDiceGridder`) runs
it once per trajectory, or once per chunk in its chunk mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gridding.base import Gridder, GriddingStats, GriddingSetup
from .decomposition import (
    decompose_coordinates,
    column_forward_distance,
    column_tile_index,
)
from .layout import DiceLayout

__all__ = ["SliceAndDiceGridder", "TableFetch"]


@dataclass(frozen=True)
class TableFetch:
    """Outcome of one select-table fetch, threaded to the stats of
    exactly the call that performed it (never shared between calls).

    Attributes
    ----------
    hit:
        True when the bound tables were reused, False when they were
        (re)built.
    build_seconds:
        Wall-clock seconds of the table build (0.0 on a hit).
    table_bytes:
        Resident bytes of the tables the call used (masks + weights +
        tile indices across all axes).
    """

    hit: bool
    build_seconds: float
    table_bytes: int


def _tables_nbytes(tables: tuple) -> int:
    """Total bytes of the per-axis mask/weight/tile arrays."""
    _, masks, weights, tiles = tables
    return int(
        sum(a.nbytes for group in (masks, weights, tiles) for a in group)
    )


def select_bytes(m: int, ndim: int, width: int, rsize: int) -> int:
    """Transient bytes of :meth:`SliceAndDiceGridder._select_entries`
    over ``m`` samples, beyond the entry arrays it writes: the per-axis
    ``(M, W)`` temporaries (forward distance, LUT index with its two
    float64 rounding/clip transients, address, weight of ``rsize``
    bytes) and, in 3-D and up, the ``(M, W^(d-1))`` broadcast
    intermediates."""
    per_sample = ndim * width * (4 * 8 + rsize)
    if ndim > 2:
        per_sample += width ** (ndim - 1) * (8 + rsize)
    return m * per_sample


class SliceAndDiceGridder(Gridder):
    """Binning-free stacked-tile gridder.

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper's GPU and ASIC
        implementations).
    engine:
        ``"columns"`` (default) or ``"blocked"``.
    n_blocks:
        Sample-stream partitions for the blocked engine (ignored
        otherwise).
    """

    name = "slice_and_dice"

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        engine: str = "columns",
        n_blocks: int = 16,
    ):
        super().__init__(setup)
        if engine not in ("columns", "blocked"):
            raise ValueError(f"engine must be 'columns' or 'blocked', got {engine!r}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.engine = engine
        self.n_blocks = n_blocks
        self.layout = DiceLayout(setup.grid_shape, tile_size)
        if setup.width > tile_size:
            raise ValueError(
                f"window width {setup.width} exceeds tile size {tile_size}; "
                "the one-point-per-column guarantee (W <= T) would break"
            )

    @property
    def tile_size(self) -> int:
        return self.layout.tile_size

    # ------------------------------------------------------------------
    # select tables
    # ------------------------------------------------------------------
    def _fetch_tables(self, coords: np.ndarray) -> tuple[tuple, TableFetch]:
        """The bound select tables of ``coords`` plus this fetch's event.

        Reused when ``coords`` equal the gridder's held copy, else built
        by :meth:`_build_tables` and rebound (module docstring).  The
        fetch outcome is returned, not stored, so the stats of one call
        can never leak into another.
        """
        t_start = time.perf_counter()
        tables, hit = self._binding.fetch(coords, self._build_tables)
        build_seconds = 0.0 if hit else time.perf_counter() - t_start
        return tables, TableFetch(hit, build_seconds, _tables_nbytes(tables))

    def _build_tables(self, coords: np.ndarray) -> tuple:
        """Per-axis select tables of ``coords``.

        The separable two-part check lets each axis be evaluated once
        for all ``T`` column indices and reused across the ``T^d``
        column combinations (the same sharing the hardware gets from
        its row/column select units).  Returns the decomposition and
        per-axis arrays of shape ``(T, M)`` — pass masks, LUT weights,
        and wrapped tile coordinates (stored in the minimal unsigned
        dtype that holds ``max(tile_counts) - 1``).
        """
        setup = self.setup
        lut = setup.lut
        w = setup.width
        t = self.tile_size
        dec = decompose_coordinates(coords, setup.grid_shape, t, lut.width)
        m = dec.n_samples
        masks, weights, tiles = [], [], []
        for axis in range(setup.ndim):
            rel = dec.rel[:, axis]
            frac = dec.frac[:, axis]
            tile = dec.tile[:, axis]
            count = dec.tile_counts[axis]
            mk = np.empty((t, m), dtype=bool)
            wt = np.empty((t, m), dtype=setup.real_dtype)
            # tile indices lie in [0, count): the minimal unsigned dtype
            # (usually uint8/uint16) quarters the table footprint vs the
            # historical int64 without touching any computed value
            tl = np.empty((t, m), dtype=np.min_scalar_type(max(count - 1, 0)))
            for p in range(t):
                fwd = np.mod(rel - p, t) + frac
                mk[p] = fwd < w
                wt[p] = lut.table[lut.index_of(fwd)]
                tl[p] = np.mod(tile - (rel < p), count)
            masks.append(mk)
            weights.append(wt)
            tiles.append(tl)
        return dec, masks, weights, tiles

    # ------------------------------------------------------------------
    # gridding (adjoint)
    # ------------------------------------------------------------------
    def _grid_batch_impl(
        self, coords: np.ndarray, values_stack: np.ndarray, out: np.ndarray
    ) -> None:
        """Batched multi-RHS gridding: one select pass, ``K`` accumulates.

        Bit-identical to stacking ``K`` single :meth:`grid` calls (each
        RHS runs the same elementwise multiply and ``bincount``), but
        the boundary checks, LUT lookups, and table build are paid once
        for the whole batch — visible in the stats, where
        ``boundary_checks`` stays ``M * T^d`` instead of
        ``K * M * T^d``.
        """
        k_rhs = values_stack.shape[0]
        dice, interpolations, lane_slots, fetch = self._run_engine(
            coords, values_stack
        )
        try:
            for k in range(k_rhs):
                out[k] = self.layout.dice_to_grid(dice[k])
        finally:
            self._release_buffer(dice)
        self._fill_stats(coords.shape[0], n_rhs=k_rhs, interpolations=interpolations,
                         lane_slots=lane_slots, fetch=fetch)

    def _run_engine(
        self, coords: np.ndarray, values_stack: np.ndarray
    ) -> tuple[np.ndarray, int, int, TableFetch]:
        """Run the configured engine over a ``(K, M)`` value stack.

        Returns the ``(K, n_columns, n_tiles)`` dice, the number of
        passing checks (per select pass, i.e. *not* multiplied by K),
        the SIMD lane slots actually issued, and this call's table
        fetch event.
        """
        tables, fetch = self._fetch_tables(coords)
        k_rhs = values_stack.shape[0]
        m = coords.shape[0]
        # the dice is the engine's largest transient (K x G^d complex
        # words); acquired from the plan-injected pool when present.
        # On any engine failure it goes straight back to the pool so a
        # raising pass can never strand pooled storage.
        dice = self._acquire_buffer(
            (k_rhs, self.layout.n_columns, self.layout.n_tiles), zero=True
        )
        try:
            if self.engine == "columns":
                interpolations = self._process_stream(tables, values_stack, dice, 0, m)
                lane_slots = m * self.layout.n_columns
            else:
                interpolations = 0
                lane_slots = 0
                bounds = np.linspace(0, m, self.n_blocks + 1).astype(np.int64)
                for b in range(self.n_blocks):
                    lo, hi = int(bounds[b]), int(bounds[b + 1])
                    if lo == hi:
                        continue
                    # shared-dice accumulation stands in for the GPU's atomicAdd
                    interpolations += self._process_stream(tables, values_stack, dice, lo, hi)
                    # lane slots from the work this block actually issued:
                    # its T^d lanes scan only the [lo, hi) slice, not the
                    # whole stream (empty blocks launch no lanes at all)
                    lane_slots += (hi - lo) * self.layout.n_columns
        except BaseException:
            self._release_buffer(dice)
            raise
        return dice, interpolations, lane_slots, fetch

    def _process_stream(
        self,
        tables: tuple,
        values_stack: np.ndarray,
        dice: np.ndarray,
        lo: int,
        hi: int,
    ) -> int:
        """Run the column-parallel model over one sample-stream slice.

        The select gather (``hit``/``wgt``/``depth``) depends only on
        the coordinates, so it runs once; only the value-dependent
        ``bincount`` accumulate repeats per RHS.  Accumulates into
        ``dice`` (shape ``(K, n_columns, n_tiles)``) in place and
        returns the number of passing checks for this slice (per select
        pass, not multiplied by K).
        """
        n_tiles = self.layout.n_tiles
        k_rhs = values_stack.shape[0]
        interpolations = 0
        for row, column in enumerate(self.layout.columns()):
            hit, wgt, depth = self._select_column(tables, column, lo, hi)
            if hit.size == 0:
                continue
            interpolations += hit.size
            for k in range(k_rhs):
                contrib = values_stack[k, hit] * wgt
                dice[k, row] += np.bincount(
                    depth, weights=contrib.real, minlength=n_tiles
                ) + 1j * np.bincount(depth, weights=contrib.imag, minlength=n_tiles)
        return interpolations

    def _select_column(
        self, tables: tuple, column: np.ndarray, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One column's select results over the sample slab ``[lo, hi)``.

        Returns ``(hit, wgt, depth)``: the passing sample indices
        (ascending), their combined separable weights, and their global
        tile addresses.  This is the coordinate-only half of the column
        model, shared verbatim by gridding and interpolation; the
        table-driven :meth:`_select_entries` evaluates the same weight
        expressions in the same axis order.
        """
        setup = self.setup
        dec, masks, weights, tiles = tables
        counts = dec.tile_counts
        affected = masks[0][column[0]][lo:hi]
        for axis in range(1, setup.ndim):
            affected = affected & masks[axis][column[axis]][lo:hi]
        hit = np.flatnonzero(affected) + lo
        if hit.size == 0:
            return hit, hit.astype(setup.real_dtype), hit
        wgt = weights[0][column[0]][hit]
        depth = tiles[0][column[0]][hit].astype(np.int64)
        for axis in range(1, setup.ndim):
            wgt = wgt * weights[axis][column[axis]][hit]
            depth = depth * counts[axis] + tiles[axis][column[axis]][hit]
        return hit, wgt, depth

    @cached_property
    def _axis_tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis, ``(dist, addr)`` tables of shape ``(G, W)`` indexed
        by the integer grid position ``i`` — the input of
        :meth:`_select_entries`, built on first use.

        Row ``i`` lists the ``W`` columns ``p`` with forward distance
        ``(rel - p) mod T < W`` in ascending ``p``: ``dist`` holds that
        distance (float64, so ``dist + frac`` is the column loop's
        ``fwd``), ``addr`` the point's axis term of the dice address —
        ``p`` times the axis' row stride plus its tile, decremented on
        a wrap (``rel < p``) modulo the tile count, times the axis'
        depth stride.
        """
        t, w, ndim = self.tile_size, self.setup.width, self.setup.ndim
        counts = self.layout.tile_counts
        tables = []
        for axis, g in enumerate(self.setup.grid_shape):
            tile, rel = np.divmod(np.arange(g, dtype=np.int64), t)
            p = np.sort((rel[:, None] - np.arange(w)) % t, axis=1)
            wrapped = (tile[:, None] - (rel[:, None] < p)) % counts[axis]
            row_stride = t ** (ndim - 1 - axis) * self.layout.n_tiles
            depth_stride = int(np.prod(counts[axis + 1:], dtype=np.int64))
            tables.append(
                (
                    ((rel[:, None] - p) % t).astype(np.float64),
                    p * row_stride + wrapped * depth_stride,
                )
            )
        return tables

    def _axis_position(
        self, coords: np.ndarray, axis: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(i, frac)`` per sample on one axis: the integer grid
        position that indexes :attr:`_axis_tables` and the fractional
        part — the decomposition of :mod:`repro.core.decomposition`."""
        shifted = np.mod(
            coords[:, axis] + self.setup.lut.width / 2.0,
            float(self.setup.grid_shape[axis]),
        )
        i = np.floor(shifted).astype(np.int64)
        return i, shifted - i

    def _select_entries(
        self, coords: np.ndarray, flat: np.ndarray, wgt: np.ndarray
    ) -> None:
        """Table-driven select: write the ``M·W^d`` sample-major entries
        of ``coords`` into ``flat`` (dice addresses) and ``wgt``
        (combined weights, ``setup.real_dtype``).

        Sample ``s`` owns entries ``s·W^d … (s+1)·W^d - 1``, in
        ascending dice row.  The addresses are one broadcast add of the
        per-axis terms of :attr:`_axis_tables` and the weights one
        broadcast product of the per-axis LUT reads, in
        :meth:`_select_column`'s axis order, so every weight is the
        column loop's.  ``d + frac`` can round up to exactly
        ``W`` when ``frac`` lies within an ulp of 1; the column loop
        then drops that column, and this select zeroes its weight,
        which adds ``±0.0`` and changes no sum.
        """
        setup = self.setup
        lut = setup.lut
        w, ndim = setup.width, setup.ndim
        m = coords.shape[0]
        for axis, (dist, axis_addr) in enumerate(self._axis_tables):
            i, frac = self._axis_position(coords, axis)
            fwd = dist[i] + frac[:, None]
            w_axis = lut.table[lut.index_of(fwd)].astype(setup.real_dtype, copy=False)
            outside = fwd >= w
            if outside.any():
                w_axis[outside] = 0.0
            if axis == 0:
                addr, weight = axis_addr[i], w_axis
                continue
            shape = (m, addr.shape[1], w)
            last = axis == ndim - 1
            addr = np.add(
                addr[:, :, None], axis_addr[i][:, None, :],
                out=flat.reshape(shape) if last else None,
            ).reshape(m, -1)
            # the products of ``weight[:, :, None] * w_axis[:, None, :]``;
            # einsum's loop is twice as fast on a length-W inner axis
            weight = np.einsum(
                "ij,ik->ijk", weight, w_axis,
                out=wgt.reshape(shape) if last else None,
            ).reshape(m, -1)
        if ndim == 1:
            flat[:], wgt[:] = addr.ravel(), weight.ravel()

    def _fill_stats(
        self, m: int, n_rhs: int, interpolations: int, lane_slots: int,
        fetch: TableFetch,
    ) -> None:
        """Populate stats for a (possibly batched) pass.

        Select work (checks, LUT reads, lane issue) is shared across the
        batch; value work (MACs, dice accesses) scales with ``n_rhs``;
        ``fetch`` is the table-binding event of *this* call.
        ``peak_bytes`` is the pass' true transient high water: the
        ``(K, T^d, n_tiles)`` dice plus the resident select tables.
        """
        d = self.setup.ndim
        dice_bytes = (
            n_rhs * self.layout.n_columns * self.layout.n_tiles
            * self.setup.dtype.itemsize
        )
        self.stats = GriddingStats(
            boundary_checks=m * self.layout.n_columns,
            interpolations=interpolations * n_rhs,
            samples_processed=m,
            presort_operations=0,
            grid_accesses=interpolations * n_rhs,
            lut_lookups=interpolations * d,
            # one lane per column (a T^d-thread block processes every
            # sample): W^d of T^d lanes do work — with T=8, W=6 that is
            # 56 %, vs binning's W^d/B^d (a few percent at B=32)
            simd_active_lanes=interpolations,
            simd_lane_slots=lane_slots,
            cache_hits=1 if fetch.hit else 0,
            cache_misses=0 if fetch.hit else 1,
            table_build_seconds=fetch.build_seconds,
            table_bytes=fetch.table_bytes,
            peak_bytes=dice_bytes + fetch.table_bytes,
        )

    # ------------------------------------------------------------------
    # interpolation (forward)
    # ------------------------------------------------------------------
    def _interp_batch_impl(self, grid_stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Forward interpolation (regridding) with the Slice-and-Dice
        schedule: one select pass, ``K`` gathers.

        The forward NuFFT's *re-gridding* step (Fig. 1) is the exact
        transpose of gridding: each column scans the sample stream and
        *contributes* its owned point's value to the affected samples.
        Numerically identical to the base-class gather (same weights),
        but scheduled column-parallel with the same ``M * T^d``
        boundary-check count — the model §III describes applies to both
        NuFFT directions.  Bit-identical to ``K`` independent
        :meth:`interp` calls.
        """
        k_rhs = grid_stack.shape[0]
        m = coords.shape[0]
        tables, fetch = self._fetch_tables(coords)
        dice = self._acquire_buffer(
            (k_rhs, self.layout.n_columns, self.layout.n_tiles), zero=False
        )
        try:
            for k in range(k_rhs):
                dice[k] = self.layout.grid_to_dice(grid_stack[k])
            out = np.zeros((k_rhs, m), dtype=self.setup.dtype)
            interpolations = 0
            for row, column in enumerate(self.layout.columns()):
                hit, wgt, depth = self._select_column(tables, column, 0, m)
                if hit.size == 0:
                    continue
                interpolations += hit.size
                for k in range(k_rhs):
                    out[k, hit] += dice[k, row, depth] * wgt
        finally:
            self._release_buffer(dice)
        self.stats = GriddingStats(
            boundary_checks=m * self.layout.n_columns,
            interpolations=interpolations * k_rhs,
            samples_processed=m,
            presort_operations=0,
            grid_accesses=interpolations * k_rhs,
            lut_lookups=interpolations * self.setup.ndim,
            cache_hits=1 if fetch.hit else 0,
            cache_misses=0 if fetch.hit else 1,
            table_build_seconds=fetch.build_seconds,
            table_bytes=fetch.table_bytes,
            peak_bytes=(
                k_rhs * self.layout.n_columns * self.layout.n_tiles
                * self.setup.dtype.itemsize
                + fetch.table_bytes
            ),
        )
        return out

    # ------------------------------------------------------------------
    def address_trace(self, coords: np.ndarray) -> np.ndarray:
        """Dice-layout addresses in column-major processing order.

        Column ``c``'s accesses land in its private contiguous
        ``n_tiles``-entry array — the locality/MLP property §III claims
        for the stacked layout.
        """
        setup = self.setup
        w = setup.width
        dec = decompose_coordinates(
            coords, setup.grid_shape, self.tile_size, setup.lut.width
        )
        n_tiles = self.layout.n_tiles
        pieces = []
        for row, column in enumerate(self.layout.columns()):
            fwd = column_forward_distance(dec, column)
            affected = np.all(fwd < w, axis=1)
            if not np.any(affected):
                continue
            depth = column_tile_index(dec, column)[affected]
            pieces.append(row * n_tiles + depth)
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)
