"""Slice-and-Dice — the paper's primary contribution (§III).

Slice-and-Dice is a binning-free gridding model: the oversampled grid
is split into virtual tiles of dimension ``T^d`` which are *stacked*
into "dice"; one worker (thread / pipeline) owns one relative position
("column") across every tile.  Sample coordinates are decomposed by
``divmod(coord, T)`` into a tile coordinate and a relative coordinate,
and a two-part boundary check — forward distance ``< W`` plus a wrap
test ``rel < column`` — replaces binning's pre-sort entirely:

- no pre-processing pass,
- no duplicate sample processing,
- boundary checks fall from ``M * N^d`` to ``M * T^d``,
- as long as ``W <= T``, each sample touches **at most one point per
  column**, so workers never interact.

Public surface:

- :mod:`~repro.core.decomposition` — the coordinate arithmetic
  (shared with the JIGSAW select-unit model).
- :class:`~repro.core.DiceLayout` — the stacked-tile ("dice") memory
  layout and its grid <-> dice transforms.
- :class:`~repro.core.SliceAndDiceGridder` — the gridder, in both the
  faithful column-parallel schedule and the GPU-style blocked variant.
- :class:`~repro.core.CompiledSliceAndDiceGridder` — the select pass
  run once per trajectory into a :class:`~repro.core.CompiledPlan`
  (address/weight arrays in dice-row bands that double as CSR
  matrices); every repeat call is a set of sparse mat-vecs, one
  thread per band or sample range, with zero select work,
  bit-identical to the serial gridder at complex128.  With
  ``chunk_samples=`` it runs every call in bounded-memory chunks into
  one dice, bit-identical to its one-shot pass at complex128.  Its
  ``backend="numba"`` lane executes the plan with the numba-fused
  scatter/gather loops of :mod:`~repro.core.jit` (serial and
  row/sample-sharded ``prange`` kernels), demoting to the NumPy lane
  when numba is absent.
"""

from .compiled import CompiledPlan, CompiledSliceAndDiceGridder
from .jit import jit_available
from .decomposition import (
    CoordinateDecomposition,
    decompose_coordinates,
    column_forward_distance,
    column_tile_index,
)
from .layout import DiceLayout
from .slice_and_dice import SliceAndDiceGridder, TableFetch

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
    "CoordinateDecomposition",
    "decompose_coordinates",
    "column_forward_distance",
    "column_tile_index",
    "DiceLayout",
    "jit_available",
    "SliceAndDiceGridder",
    "TableFetch",
]
