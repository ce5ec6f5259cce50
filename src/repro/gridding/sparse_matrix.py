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

from .base import Gridder, GriddingStats, GriddingSetup, window_contributions

__all__ = ["SparseMatrixGridder"]


class SparseMatrixGridder(Gridder):
    """Gridder that materializes the interpolation operator as CSR.

    The matrix is built lazily on the first call for a given set of
    coordinates and cached; subsequent calls with coordinates of the
    same shape and values reuse it when the coordinates are identical
    (checked cheaply via a content hash).
    """

    name = "sparse_matrix"

    def __init__(self, setup: GriddingSetup):
        super().__init__(setup)
        self._matrix: sparse.csr_matrix | None = None
        self._coord_token: tuple | None = None

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

    def _token(self, coords: np.ndarray) -> tuple:
        arr = np.ascontiguousarray(coords)
        return (arr.shape, hash(arr.tobytes()))

    def _ensure_matrix(self, coords: np.ndarray) -> sparse.csr_matrix:
        token = self._token(coords)
        if self._matrix is None or token != self._coord_token:
            self._matrix = self.build_matrix(coords)
            self._coord_token = token
            self._built_this_call = True
        else:
            self._built_this_call = False
        return self._matrix

    def _pass_stats(self, mat: sparse.csr_matrix, m: int, k: int) -> GriddingStats:
        """Stats of one ``K``-RHS pass: value work scales with ``K``,
        the matrix build (if this call paid it) is charged once."""
        build_ops = m * (self.setup.width ** self.setup.ndim) if self._built_this_call else 0
        return GriddingStats(
            boundary_checks=0,  # windows are enumerated, never tested
            interpolations=int(mat.nnz) * k,
            samples_processed=m,
            presort_operations=build_ops,
            grid_accesses=int(mat.nnz) * k,
            lut_lookups=build_ops * self.setup.ndim,
        )

    # ------------------------------------------------------------------
    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint ``C^H V`` — one matrix build, K mat-vecs."""
        mat = self._ensure_matrix(coords)
        result = (mat.conj().T @ values_stack.T).T  # C is real so conj is free
        self.stats = self._pass_stats(mat, coords.shape[0], values_stack.shape[0])
        out[...] = result.reshape(out.shape)

    def _interp_batch_impl(self, grid_stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Batched forward ``C G`` — one matrix build, K mat-vecs."""
        k = grid_stack.shape[0]
        mat = self._ensure_matrix(coords)
        self.stats = self._pass_stats(mat, coords.shape[0], k)
        return np.ascontiguousarray(
            (mat @ grid_stack.reshape(k, -1).T).T
        )

    # ------------------------------------------------------------------
    @property
    def matrix_nbytes(self) -> int:
        """Memory footprint of the cached CSR matrix (0 if not built).

        The paper's §II.A point about matrix methods: storage grows as
        ``M * W^d`` and "quickly becoming prohibitive".
        """
        if self._matrix is None:
            return 0
        m = self._matrix
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
