"""Gridder registry: construct any gridding algorithm by name.

Central lookup used by the NuFFT plan, the benchmark harness, and the
engine matrix of the test suite (which runs every registered gridder
against the serial engine and the exact NuDFT).  Registered engines (see
``docs/engines.md`` for the full comparison):

- ``"naive"`` — serial input-driven CPU baseline,
- ``"output_parallel"`` — all-pairs output-driven baseline,
- ``"binning"`` — pre-sorted tile/bin (Impatient-style) baseline,
- ``"sparse_matrix"`` — precomputed CSR interpolation matrix (MIRT),
- ``"slice_and_dice"`` — the paper's binning-free column model,
- ``"slice_and_dice_compiled"`` — the table-driven select run once per
  trajectory into a sample-major scatter plan; repeat calls are one
  SciPy CSR mat-vec per RHS (bit-identical to the serial engine at
  complex128).

The compiled engine also takes ``chunk_samples=N``: calls then
run in fixed-size sample chunks, each selected once by a table-driven
pass and accumulated into one pooled dice, so peak memory is
O(chunk + grid) instead of O(M * W^d).  The serial reference has no
chunk mode and rejects the option.

:func:`default_gridder` names the engine the NuFFT service uses by
default.
"""

from __future__ import annotations

from typing import Callable

from .base import Gridder, GriddingSetup
from .binning import BinningGridder
from .naive import NaiveGridder
from .output_parallel import OutputParallelGridder

__all__ = [
    "available_gridders",
    "default_gridder",
    "make_gridder",
    "register_gridder",
]

_REGISTRY: dict[str, Callable[..., Gridder]] = {}


def register_gridder(name: str, factory: Callable[..., Gridder]) -> None:
    """Register a gridder factory under ``name`` (idempotent).

    Parameters
    ----------
    name:
        Short identifier used by :func:`make_gridder` and benchmark
        tables; re-registering a name replaces the factory.
    factory:
        Callable ``factory(setup, **kwargs) -> Gridder``.

    Examples
    --------
    >>> from repro.gridding import register_gridder, available_gridders
    >>> from repro.gridding.naive import NaiveGridder
    >>> register_gridder("naive", NaiveGridder)  # idempotent re-registration
    >>> "naive" in available_gridders()
    True
    """
    _REGISTRY[name] = factory


def available_gridders() -> tuple[str, ...]:
    """Names of all registered gridding algorithms, sorted.

    Returns
    -------
    Tuple of registry keys accepted by :func:`make_gridder`.

    Examples
    --------
    >>> from repro.gridding import available_gridders
    >>> {"naive", "slice_and_dice", "slice_and_dice_compiled"} <= set(available_gridders())
    True
    """
    _ensure_core()
    return tuple(sorted(_REGISTRY))


def make_gridder(name: str, setup: GriddingSetup, **kwargs) -> Gridder:
    """Construct the gridder ``name`` for ``setup``.

    Parameters
    ----------
    name:
        A key from :func:`available_gridders`.
    setup:
        The shared problem description (grid shape + kernel LUT).
    **kwargs:
        Forwarded to the engine's constructor (e.g. ``tile_size=8`` for
        the tiled engines, ``chunk_samples=N`` for the compiled engine).

    Returns
    -------
    A fresh :class:`Gridder` instance.

    Raises
    ------
    ValueError
        For unknown names (the message lists the alternatives).

    Examples
    --------
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> make_gridder("slice_and_dice_compiled", setup).name
    'slice_and_dice_compiled'

    ``chunk_samples=`` runs the compiled engine chunk by chunk:

    >>> make_gridder("slice_and_dice_compiled", setup, chunk_samples=4096).chunk_samples
    4096
    """
    _ensure_core()
    if name == "slice_and_dice" and "chunk_samples" in kwargs:
        raise ValueError(
            "the serial slice_and_dice engine has no chunk mode; use "
            "'slice_and_dice_compiled' with chunk_samples="
        )
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown gridder {name!r}; available: {available_gridders()}"
        ) from None
    return factory(setup, **kwargs)


def default_gridder() -> str:
    """Name of the default engine: ``"slice_and_dice_compiled"``.

    Warm calls do zero select work.

    Examples
    --------
    >>> from repro.gridding import available_gridders, default_gridder
    >>> default_gridder() in available_gridders()
    True
    """
    return "slice_and_dice_compiled"


def _ensure_core() -> None:
    """Register the Slice-and-Dice gridders lazily (avoids import cycle)."""
    if "slice_and_dice" not in _REGISTRY:
        from ..core import CompiledSliceAndDiceGridder, SliceAndDiceGridder

        register_gridder("slice_and_dice", SliceAndDiceGridder)
        register_gridder("slice_and_dice_compiled", CompiledSliceAndDiceGridder)


register_gridder("naive", NaiveGridder)
register_gridder("output_parallel", OutputParallelGridder)
register_gridder("binning", BinningGridder)


def _register_sparse() -> None:
    from .sparse_matrix import SparseMatrixGridder

    register_gridder("sparse_matrix", SparseMatrixGridder)


_register_sparse()
