"""Sparse-matrix gridding — MIRT's second operating mode (§VII.A).

MIRT "relies on optimized matrix processing ... using both
interpolation table and sparse matrix implementations": the
interpolation operator is materialized once as an ``M x N^d`` sparse
matrix ``C`` (``W^d`` nonzeros per row), after which

- gridding (adjoint) is ``C^H v`` and
- interpolation (forward) is ``C g``

are plain sparse mat-vecs.  Building ``C`` costs one pass of window
computation, which iterative reconstruction amortizes over all
iterations — the CPU-side analogue of Impatient's Toeplitz strategy,
and the natural baseline for "build once, apply many".

The build is charged to ``presort_operations`` (it is precomputation,
like binning's sort); applications count only memory/MAC work.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .base import Gridder, GriddingStats, window_contributions

__all__ = ["SparseMatrixGridder"]


class SparseMatrixGridder(Gridder):
    """Gridder that materializes the interpolation operator as CSR.

    The matrix is built lazily on the first call for a trajectory and
    is the gridder's trajectory binding
    (:class:`~repro.gridding.base.ExactBinding`): later calls reuse it
    only when their coordinates equal, element for element, the copy
    it was built from.
    """

    name = "sparse_matrix"

    # ------------------------------------------------------------------
    def build_matrix(self, coords: np.ndarray) -> sparse.csr_matrix:
        """Materialize the ``M x N^d`` interpolation matrix ``C``.

        Row ``j`` holds sample ``j``'s window weights at its wrapped
        grid indices (duplicate indices within a window — possible only
        when the grid dimension equals the window width — are summed by
        the CSR constructor).
        """
        coords = self.setup.check_coords(coords)
        idx, wgt = window_contributions(self.setup, coords)
        m, wpts = idx.shape
        indptr = np.arange(0, (m + 1) * wpts, wpts, dtype=np.int64)
        mat = sparse.csr_matrix(
            (wgt.ravel(), idx.ravel(), indptr),
            shape=(m, self.setup.n_grid_points),
        )
        mat.sum_duplicates()
        return mat

    def _pass_stats(
        self, mat: sparse.csr_matrix, hit: bool, m: int, k: int
    ) -> GriddingStats:
        """Stats of one ``K``-RHS pass: value work scales with ``K``,
        the matrix build (if this call paid it) is charged once."""
        build_ops = 0 if hit else m * (self.setup.width ** self.setup.ndim)
        return GriddingStats(
            boundary_checks=0,  # windows are enumerated, never tested
            interpolations=int(mat.nnz) * k,
            samples_processed=m,
            presort_operations=build_ops,
            grid_accesses=int(mat.nnz) * k,
            lut_lookups=build_ops * self.setup.ndim,
            cache_hits=int(hit),
            cache_misses=int(not hit),
        )

    # ------------------------------------------------------------------
    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint ``C^H V`` — one matrix build, K mat-vecs."""
        mat, hit = self._binding.fetch(coords, self.build_matrix)
        result = (mat.conj().T @ values_stack.T).T  # C is real so conj is free
        self.stats = self._pass_stats(mat, hit, coords.shape[0], values_stack.shape[0])
        out[...] = result.reshape(out.shape)

    def _interp_batch_impl(self, grid_stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Batched forward ``C G`` — one matrix build, K mat-vecs."""
        k = grid_stack.shape[0]
        mat, hit = self._binding.fetch(coords, self.build_matrix)
        self.stats = self._pass_stats(mat, hit, coords.shape[0], k)
        return np.ascontiguousarray(
            (mat @ grid_stack.reshape(k, -1).T).T
        )

    # ------------------------------------------------------------------
    @property
    def matrix_nbytes(self) -> int:
        """Memory footprint of the bound CSR matrix (0 if not built).

        The paper's §II.A point about matrix methods: storage grows as
        ``M * W^d`` and "quickly becoming prohibitive".
        """
        m = self._binding.product
        if m is None:
            return 0
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
