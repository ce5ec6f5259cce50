"""NuFFT gridding engines (baselines) with instrumentation.

Gridding — interpolating M non-uniform samples onto the oversampled
uniform grid — dominates NuFFT time (>= 99.6 % on CPUs, §I).  This
package implements the baseline algorithm families the paper compares
against, all behind one interface (:class:`Gridder`) and all fully
instrumented (:class:`GriddingStats`) so the benchmark harness can
reproduce the paper's operation-count and locality arguments:

- :class:`NaiveGridder` — serial, input-driven (the MIRT CPU baseline).
- :class:`OutputParallelGridder` — naïve output-driven all-pairs
  boundary checking (§II.C "output-oriented parallelism").
- :class:`BinningGridder` — geometric tiling with pre-sorted bins (the
  Impatient GPU baseline [10]), including duplicate sample handling.
- :class:`SparseMatrixGridder` — MIRT's build-once sparse-matrix mode
  (§VII.A).

The paper's own contribution, Slice-and-Dice (the serial reference and
its compiled engine, with its numba lane and its bounded-memory chunk
mode), lives in :mod:`repro.core`.  All
implement the same :class:`Gridder` interface.  All engines — including
those — are reachable by name through the registry
(:func:`available_gridders`, :func:`make_gridder`,
:func:`register_gridder`); see ``docs/engines.md`` for the full guide.
"""

from .base import Gridder, GriddingSetup, GriddingStats, window_contributions
from .buffers import GridBufferPool, PoolSnapshot
from .naive import NaiveGridder
from .output_parallel import OutputParallelGridder
from .binning import BinningGridder
from .sparse_matrix import SparseMatrixGridder
from .registry import (
    available_gridders,
    default_gridder,
    make_gridder,
    register_gridder,
)


def __getattr__(name):
    # ``choose_chunk_samples`` resolves lazily (PEP 562): it lives in
    # :mod:`repro.core.compiled`, which itself imports ``gridding.base``
    # — an eager import here would close that cycle mid-initialization
    if name == "choose_chunk_samples":
        from ..core.compiled import choose_chunk_samples

        return choose_chunk_samples
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Gridder",
    "GriddingSetup",
    "GriddingStats",
    "window_contributions",
    "GridBufferPool",
    "PoolSnapshot",
    "NaiveGridder",
    "OutputParallelGridder",
    "BinningGridder",
    "SparseMatrixGridder",
    "choose_chunk_samples",
    "available_gridders",
    "default_gridder",
    "make_gridder",
    "register_gridder",
]
