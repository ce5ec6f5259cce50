"""The stacked-tile ("dice") memory layout.

Slice-and-Dice stores the grid column-major over relative positions:
all the points a single worker owns — one point per virtual tile, a
"column" through the stack of tiles — are contiguous (§III, §IV: "the
target grid points assigned to each thread are placed in a contiguous
array").  This is what gives the model its memory-level parallelism:
workers touch disjoint contiguous arrays and never interact.

:class:`DiceLayout` converts between the conventional C-ordered grid
array of shape ``(G, ...)`` and the dice array of shape
``(T^d, n_tiles)`` where row ``c`` is column ``c``'s accumulation
array indexed by global tile address.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["DiceLayout"]


@dataclass(frozen=True)
class DiceLayout:
    """Grid <-> dice transforms for a fixed grid/tile geometry.

    Parameters
    ----------
    grid_shape:
        Oversampled grid dimensions ``(G, ...)``.
    tile_size:
        Virtual tile dimension ``T``; must divide each grid dimension.
    """

    grid_shape: tuple[int, ...]
    tile_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid_shape", tuple(int(g) for g in self.grid_shape))
        if self.tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {self.tile_size}")
        for g in self.grid_shape:
            if g % self.tile_size:
                raise ValueError(
                    f"tile_size {self.tile_size} must divide grid dims {self.grid_shape}"
                )

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    @property
    def n_columns(self) -> int:
        """Number of columns (workers): ``T^d``."""
        return self.tile_size ** self.ndim

    @property
    def tile_counts(self) -> tuple[int, ...]:
        return tuple(g // self.tile_size for g in self.grid_shape)

    @cached_property
    def n_tiles(self) -> int:
        """Tiles in the stack — the depth of every column."""
        return int(np.prod(self.tile_counts))

    def columns(self) -> np.ndarray:
        """All per-axis column index tuples, C-ordered, ``(T^d, d)``."""
        t = self.tile_size
        mesh = np.meshgrid(*([np.arange(t)] * self.ndim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    # ------------------------------------------------------------------
    def grid_to_dice(self, grid: np.ndarray) -> np.ndarray:
        """Rearrange a grid array into the ``(T^d, n_tiles)`` dice array."""
        if tuple(grid.shape) != self.grid_shape:
            raise ValueError(f"grid shape {grid.shape} != layout {self.grid_shape}")
        t = self.tile_size
        # reshape each axis G -> (tiles, T), then bring all T axes first
        split = grid.reshape(
            tuple(x for g in self.grid_shape for x in (g // t, t))
        )
        d = self.ndim
        rel_axes = tuple(2 * a + 1 for a in range(d))
        tile_axes = tuple(2 * a for a in range(d))
        return split.transpose(rel_axes + tile_axes).reshape(self.n_columns, self.n_tiles)

    def dice_to_grid(self, dice: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`grid_to_dice`."""
        expected = (self.n_columns, self.n_tiles)
        if tuple(dice.shape) != expected:
            raise ValueError(f"dice shape {dice.shape} != {expected}")
        t = self.tile_size
        d = self.ndim
        counts = self.tile_counts
        staged = dice.reshape((t,) * d + counts)
        # invert the (rel..., tile...) ordering back to interleaved (tile, rel)
        perm = []
        for a in range(d):
            perm.extend([d + a, a])
        return staged.transpose(perm).reshape(self.grid_shape)

    # ------------------------------------------------------------------
    def column_linear(self, column: tuple[int, ...] | np.ndarray) -> int:
        """Linear (row) index of a per-axis column tuple."""
        col = np.asarray(column, dtype=np.int64).ravel()
        if col.shape[0] != self.ndim:
            raise ValueError(f"column {column} does not match dimension {self.ndim}")
        if np.any(col < 0) or np.any(col >= self.tile_size):
            raise ValueError(
                f"column indices must lie in [0, {self.tile_size}), got {column}"
            )
        linear = 0
        for axis in range(self.ndim):
            linear = linear * self.tile_size + int(col[axis])
        return linear
