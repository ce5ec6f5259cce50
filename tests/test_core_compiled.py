"""Compiled scatter-plan engine: bands, kernels, caches, stats.

Covers the `slice_and_dice_compiled` engine (`repro.core.compiled`).
Its identity to the serial engine — every geometry, kernel, dtype,
band count and batch — is asserted by ``tests/test_engine_matrix.py``;
each ``TestBitIdentity``, ``TestIdentityCells``, ``TestBands`` and
``TestCsrBackend`` id below asserts the cells its name states.  Here:
the band layout
and its fault safety; the private SciPy kernels the engine calls; the
plan cache; per-call stats including a tracemalloc-checked
``peak_bytes``; and the serial engine's minimal-dtype tile tables and
per-call (not stale) cache events.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

import repro.core.compiled as compiledmod
from repro.core import CompiledSliceAndDiceGridder, SliceAndDiceGridder
from repro.gridding import GridBufferPool, GriddingSetup, make_gridder
from repro.kernels import KernelLUT, beatty_kernel
from tests.conftest import gridding_problem, random_samples
from tests.test_engine_matrix import DTYPES, assert_cells, legacy_geometry

COMPILED = "slice_and_dice_compiled"


# ----------------------------------------------------------------------
# bit-identity to the serial engine (the numerical contract)
# ----------------------------------------------------------------------
class TestBitIdentity:
    @staticmethod
    def serial_cells(geometry: str, cells: str) -> None:
        assert_cells([COMPILED], ["complex128"], geometries=[geometry], checks=["serial"],
                     cells=cells)

    def test_grid_bit_identical_2d(self):
        self.serial_cells("square", "grid")

    def test_grid_bit_identical_3d(self):
        self.serial_cells("3d", "grid")

    def test_grid_batch_bit_identical(self):
        self.serial_cells("square", "grid K=3")

    def test_interp_bit_identical_2d(self):
        self.serial_cells("square", "interp")

    def test_interp_batch_bit_identical_3d(self):
        self.serial_cells("3d", "interp K=3")

    def test_address_trace_matches_serial(self, small_setup, rng):
        coords, _ = random_samples(rng, 100, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        com = CompiledSliceAndDiceGridder(small_setup)
        assert np.array_equal(com.address_trace(coords), ser.address_trace(coords))


OLD_GEOMETRIES = ["1d", "square", "rect", "es", "edge", "3d"]


class TestIdentityCells:
    """The engine at both dtypes against the serial engine on every
    geometry, in both directions, single and batched."""

    @pytest.mark.parametrize("geometry", OLD_GEOMETRIES)
    def test_complex128_both_directions(self, geometry):
        assert_cells([COMPILED], ["complex128"], checks=["serial", "batch"],
                     **legacy_geometry(geometry))

    @pytest.mark.parametrize("geometry", OLD_GEOMETRIES)
    def test_complex64_default(self, geometry):
        """Forward bit-identical to the serial engine, adjoint within
        NRMSD 1e-6 of it, and both directions bit-identical to the
        engine's own chunk mode."""
        assert_cells([COMPILED, COMPILED + "+chunk7"], ["complex64"],
                     checks=["serial", "twin"], **legacy_geometry(geometry))


class TestCsrBackend:
    def test_csr_allclose_both_directions(self):
        assert_cells([COMPILED], DTYPES, geometries=["square"], checks=["serial"])

    def test_csr_matrix_has_no_duplicates(self, tiny_setup, rng):
        # W <= T: each sample's row of a one-band plan holds W^d
        # distinct, ascending dice addresses, and the matrix wraps the
        # plan arrays without copies
        coords, _ = random_samples(rng, 100, tiny_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(tiny_setup)
        plan = com._compile(tiny_setup.check_coords(coords))
        assert plan.n_bands == 1
        mat = sparse.csr_matrix(
            (plan.weight, plan.flat, plan.indptr[0]),
            shape=(plan.m, plan.n_flat), copy=False,
        )
        assert mat.nnz == plan.nnz
        assert mat.has_canonical_format
        assert plan.flat.dtype == np.int32
        assert np.shares_memory(mat.indices, plan.flat)
        assert np.shares_memory(mat.data, plan.weight)

    def test_invalid_backend_rejected(self, tiny_setup):
        """The engine has one lane: ``backend=`` is not an option."""
        with pytest.raises(TypeError, match="backend"):
            CompiledSliceAndDiceGridder(tiny_setup, backend="dense")


class TestBands:
    """The banded plans (module docstring, *The plan*): every
    band count ``P`` of 1, 2 and ``T`` is ``np.array_equal`` to the
    serial engine in both directions, single and batched (K = 3), and
    a failing band task leaves the buffer pool balanced.  The CPU
    helper is monkeypatched to ``P`` and the band threshold to 0, so
    the small problems here are banded on any host."""

    @pytest.fixture(autouse=True)
    def _banded(self, monkeypatch):
        monkeypatch.setattr(compiledmod, "PARALLEL_MIN_NNZ", 0)

    @staticmethod
    def _engine(monkeypatch, setup, bands):
        cpus = 64 if bands == "T" else bands
        monkeypatch.setattr(compiledmod, "usable_cpus", lambda: cpus)
        com = CompiledSliceAndDiceGridder(setup)
        return com, (com.tile_size if bands == "T" else bands)

    @pytest.mark.parametrize("geometry", ["1d", "square", "edge", "3d"])
    @pytest.mark.parametrize("bands", [1, 2, "T"])
    def test_complex128_csr_cells(self, geometry, bands):
        assert_cells([f"{COMPILED}+P{bands}"], ["complex128"], geometries=[geometry],
                     checks=["serial", "twin", "batch", "stale"])

    def test_band_major_layout(self, monkeypatch, small_setup, rng):
        """Each band is a contiguous run of the shared arrays that is a
        canonical CSR matrix covering only its own axis-0 columns; the bands add up to the
        one-band matrix, and cost ``(P - 1)(M + 1)`` row pointers."""
        coords = small_setup.check_coords(
            random_samples(rng, 300, small_setup.grid_shape)[0]
        )
        one, _ = self._engine(monkeypatch, small_setup, 1)
        ref = one._compile(coords)
        com, p = self._engine(monkeypatch, small_setup, 3)
        plan = com._compile(coords)
        assert (ref.n_bands, plan.n_bands) == (1, p)
        shape = (plan.m, plan.n_flat)
        want = sparse.csr_matrix(
            (ref.weight, ref.flat, ref.indptr[0]), shape=shape
        )
        total = sparse.csr_matrix(shape)
        words_per_column = plan.n_flat // com.tile_size
        for b, ptr in enumerate(plan.indptr):
            lo, hi = ptr[0], ptr[-1]
            band = sparse.csr_matrix(
                (plan.weight[lo:hi], plan.flat[lo:hi], ptr - lo), shape=shape
            )
            assert band.has_canonical_format
            # axis-0 column c lies in band b when b <= c·P/T < b + 1
            column = plan.flat[lo:hi] // words_per_column
            assert np.all(column * p // com.tile_size == b)
            total = total + band
        assert (total != want).nnz == 0
        assert plan.nbytes == ref.nbytes + (p - 1) * (plan.m + 1) * 4

    @pytest.mark.parametrize("call", ["grid", "interp"])
    def test_failing_band_releases_dice_once(self, monkeypatch, small_setup, rng, call):
        """One band's mat-vec raises: the error surfaces only after the
        other task has returned, the pooled dice is released exactly
        once, after that, and the pool balances."""
        coords, values = random_samples(rng, 400, small_setup.grid_shape)
        grid = gridding_problem("square")[3][0]  # small_setup's grid
        com, _ = self._engine(monkeypatch, small_setup, 2)
        pool = GridBufferPool()
        com.buffer_pool = pool
        run = (lambda: com.grid(coords, values)) if call == "grid" else (
            lambda: com.interp(grid, coords)
        )
        want = run()  # compile outside the fault
        finished, released = [], []

        def flaky(kernel):
            def run_band(*args):
                if args[3][0] == 0:  # band 0's (first range's) pointers
                    raise RuntimeError("band kernel failed")
                time.sleep(0.05)
                kernel(*args)
                finished.append(time.perf_counter())
            return run_band

        class FlakySparsetools:
            csc_matvecs = staticmethod(flaky(_sparsetools.csc_matvecs))
            csr_matvecs = staticmethod(flaky(_sparsetools.csr_matvecs))

        release = pool.release

        def counted_release(buf):
            released.append(time.perf_counter())
            release(buf)

        monkeypatch.setattr(compiledmod, "_sparsetools", FlakySparsetools)
        monkeypatch.setattr(pool, "release", counted_release)
        with pytest.raises(RuntimeError, match="band kernel failed"):
            run()
        assert finished and len(released) == 1
        assert released[0] > max(finished)
        assert pool.snapshot().outstanding == 0
        monkeypatch.setattr(compiledmod, "_sparsetools", _sparsetools)
        assert np.array_equal(run(), want)
        assert pool.snapshot().outstanding == 0

    @pytest.mark.parametrize("fault", ["select", "cancel", "matvec"])
    @pytest.mark.parametrize("call", ["grid", "interp"])
    def test_stopped_chunk_releases_dice_once(
        self, monkeypatch, small_setup, rng, call, fault
    ):
        """A pipelined chunked call stopped at chunk ``k`` — the select
        of its second half raises on the pool, its cancel token fires
        while its first half is selected on the pool, or its first
        half's mat-vec raises while the pool selects the second —
        releases the pooled dice exactly once, after every select has
        returned: no pool task writes into the scratch after the call
        raises.  The pool balances, nothing stale stays bound, and the
        next call equals a fresh engine's: a checkpointed adjoint
        resumes after chunk ``k - 1`` and equals an uninterrupted
        pass."""
        from repro.errors import JobCancelled
        from repro.robustness import CancelToken, CheckpointConfig, CheckpointStore

        coords, values = random_samples(rng, 400, small_setup.grid_shape)
        grid = gridding_problem("square")[3][0]  # small_setup's grid
        monkeypatch.setattr(compiledmod, "usable_cpus", lambda: 2)
        fresh = CompiledSliceAndDiceGridder(small_setup, chunk_samples=50)
        com = CompiledSliceAndDiceGridder(small_setup, chunk_samples=50)
        run = (lambda g: g.grid(coords, values)) if call == "grid" else (
            lambda g: g.interp(grid, coords)
        )
        want = run(fresh)
        pool, store, token = GridBufferPool(), CheckpointStore(), CancelToken()
        com.buffer_pool, com.cancel_token = pool, token
        com.checkpoint = CheckpointConfig(store=store, key="t", fingerprint="fp", every=1)
        k, ends, released, threads, checks = 3, [], [], [], []
        stopped = threading.Event()
        select = com._select_entries

        def on_check():  # check j + 1 opens chunk j
            checks.append(time.perf_counter())
            if fault == "cancel" and len(checks) == k + 1:
                token.cancel("stopped at chunk k")
                stopped.set()

        def slow_select(*args):
            # one select at a time, in order: chunk j's halves are calls
            # 2j and 2j + 1; the one in flight when the call stops
            # returns only after the stop
            index = len(threads)
            threads.append(threading.current_thread().name)
            try:
                if index == {"cancel": 2 * k, "matvec": 2 * k + 1}.get(fault):
                    stopped.wait(5)
                    time.sleep(0.02)
                if fault == "select" and index == 2 * k + 1:
                    raise RuntimeError("select failed")
                select(*args)
            finally:
                ends.append(time.perf_counter())

        token.on_check = on_check
        release = pool.release

        def counted_release(buf):
            released.append(time.perf_counter())
            release(buf)

        def flaky(kernel):
            def run_piece(*args):  # chunk j's halves are calls 2j, 2j + 1
                matvecs.append(1)
                if len(matvecs) == 2 * k + 1:
                    stopped.set()
                    raise RuntimeError("mat-vec failed")
                kernel(*args)
            return run_piece

        class FlakySparsetools:
            csc_matvecs = staticmethod(flaky(_sparsetools.csc_matvecs))
            csr_matvecs = staticmethod(flaky(_sparsetools.csr_matvecs))

        matvecs = []
        if fault == "matvec":
            monkeypatch.setattr(compiledmod, "_sparsetools", FlakySparsetools)
        monkeypatch.setattr(com, "_select_entries", slow_select)
        monkeypatch.setattr(pool, "release", counted_release)
        error = JobCancelled if fault == "cancel" else RuntimeError
        with pytest.raises(error):
            run(com)
        assert any(name.startswith("repro-band") for name in threads)
        assert len(threads) == 2 * k + (1 if fault == "cancel" else 2)
        assert len(released) == 1 and released[0] > max(ends) > checks[-1]
        assert pool.snapshot().outstanding == 0
        monkeypatch.setattr(com, "_select_entries", select)
        monkeypatch.setattr(compiledmod, "_sparsetools", _sparsetools)
        com.cancel_token = None
        # the last chunk bound before the stop is no longer in the scratch
        before, ckpt = slice((k - 1) * 50, k * 50), com.checkpoint
        com.checkpoint = None
        if call == "grid":
            got = com.grid(coords[before], values[before])
            assert np.array_equal(got, fresh.grid(coords[before], values[before]))
        else:
            got = com.interp(grid, coords[before])
            assert np.array_equal(got, fresh.interp(grid, coords[before]))
        com.checkpoint = ckpt
        assert np.array_equal(run(com), want)
        assert pool.snapshot().outstanding == 0
        if call == "grid":  # resumed from the snapshot after chunk k - 1
            assert com.last_resume["chunk_cursor"] == k

    def test_concurrent_callers_share_the_pool(self, monkeypatch, small_setup, rng):
        """Engines on more threads than the pool has workers, each
        running ``T`` bands — or, chunked, its pipelined selects —
        through the one shared pool with a short switch interval, stay
        bit-identical: no band writes into another band's rows, and no
        select into another piece's scratch or another call's buffers."""
        coords, values = random_samples(rng, 2000, small_setup.grid_shape)
        grid = gridding_problem("square")[3][0]  # small_setup's grid
        ser = SliceAndDiceGridder(small_setup)
        want = (ser.grid(coords, values), ser.interp(grid, coords))
        engines = [self._engine(monkeypatch, small_setup, "T")[0] for _ in range(4)]
        for com in engines[2:]:
            com.chunk_samples = 300
        results = {}

        def work(i, com):
            results[i] = all(
                np.array_equal(com.grid(coords, values), want[0])
                and np.array_equal(com.interp(grid, coords), want[1])
                for _ in range(5)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i, com))
                for i, com in enumerate(engines)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: True for i in range(len(engines))}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_pool(self, monkeypatch, small_setup, rng):
        """A child forked after the pool started has none of its
        threads; its banded calls must run on a new pool, not hang."""
        import multiprocessing

        coords, values = random_samples(rng, 400, small_setup.grid_shape)
        com, _ = self._engine(monkeypatch, small_setup, 2)
        want = com.grid(coords, values)  # starts the pool here

        def child(conn):
            conn.send(bool(np.array_equal(com.grid(coords, values), want)))

        parent_end, child_end = multiprocessing.Pipe()
        proc = multiprocessing.get_context("fork").Process(
            target=child, args=(child_end,)
        )
        proc.start()
        try:
            assert parent_end.poll(60), "forked child hung on the band pool"
            assert parent_end.recv() is True
        finally:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        assert proc.exitcode == 0

    def test_band_count_follows_affinity(self, monkeypatch, small_setup):
        """``P = min(usable CPUs, T)``, read from the affinity mask."""
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        com = CompiledSliceAndDiceGridder(small_setup)
        for cpus, bands in ((1, 1), (3, 3), (64, com.tile_size)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            assert com._n_bands(10**6) == bands


class TestSparsetoolsPin:
    """The engine calls SciPy's private ``_sparsetools.csc_matvecs``
    and ``csr_matvecs`` directly: pin that they add into the output
    they are handed, in stored order, and take a band's sliced row
    pointer with absolute offsets (CI runs this at the SciPy 1.10
    floor too)."""

    @staticmethod
    def _matrix(rng, m=60, n=50, per=4):
        flat = np.concatenate(
            [np.sort(rng.choice(n, per, replace=False)) for _ in range(m)]
        ).astype(np.int32)
        indptr = np.arange(0, m * per + 1, per, dtype=np.int32)
        return flat, rng.standard_normal(m * per), indptr, (m, n, per)

    def test_csc_matvecs_adds_in_place(self, rng):
        flat, weight, indptr, (m, n, _) = self._matrix(rng)
        a_t = sparse.csr_matrix((weight, flat, indptr), shape=(m, n)).T
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = start.copy()
        _sparsetools.csc_matvecs(
            n, m, 2, indptr, flat, weight, v.view(np.float64), y.view(np.float64)
        )
        want = start + (a_t @ v.view(np.float64).reshape(-1, 2)).view(complex).ravel()
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("chunk", (1, 7, 60))
    def test_chunked_csc_matvecs_equals_transpose_product(self, rng, chunk):
        """Chunks added in place onto one output are the one-shot
        ``A.T @ v`` bit for bit: each word's chain continues."""
        flat, weight, indptr, (m, n, per) = self._matrix(rng)
        a_t = sparse.csr_matrix((weight, flat, indptr), shape=(m, n)).T
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = np.zeros(n, dtype=complex)
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            _sparsetools.csc_matvecs(
                n, hi - lo, 2, indptr[:hi - lo + 1],
                flat[lo * per:hi * per], weight[lo * per:hi * per],
                v[lo:hi].view(np.float64), y.view(np.float64),
            )
        want = (a_t @ v.view(np.float64).reshape(-1, 2)).view(complex).ravel()
        assert np.array_equal(y, want)


    def test_sliced_absolute_indptr_adds_in_place(self, rng):
        """Entries split into two column bands, stored band after band
        with absolute row pointers: per-band ``csc_matvecs`` and
        per-row-range ``csr_matvecs`` over sliced pointers add onto the
        output in place and rebuild the one-band products bit for bit."""
        flat, weight, indptr, (m, n, per) = self._matrix(rng)
        a = sparse.csr_matrix((weight, flat, indptr), shape=(m, n))
        in_band = [flat < n // 2, flat >= n // 2]
        counts = [mask.reshape(m, per).sum(axis=1) for mask in in_band]
        order = np.concatenate([np.flatnonzero(mask) for mask in in_band])
        bflat, bweight = flat[order], weight[order]
        ptrs = np.zeros((2, m + 1), dtype=np.int32)
        ptrs[0, 1:] = np.cumsum(counts[0])
        ptrs[1] = ptrs[0, -1] + np.concatenate(([0], np.cumsum(counts[1])))
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        want_t = start.copy()
        _sparsetools.csc_matvecs(
            n, m, 2, indptr, flat, weight, v.view(np.float64),
            want_t.view(np.float64),
        )
        got_t = start.copy()
        for ptr in ptrs:
            _sparsetools.csc_matvecs(
                n, m, 2, ptr, bflat, bweight, v.view(np.float64),
                got_t.view(np.float64),
            )
        assert np.array_equal(got_t, want_t)

        want = (a @ x.view(np.float64).reshape(-1, 2)).view(complex).ravel()
        got = np.zeros(m, dtype=complex)
        for lo, hi in ((0, 23), (23, m)):
            for ptr in ptrs:
                _sparsetools.csr_matvecs(
                    hi - lo, n, 2, ptr[lo:hi + 1], bflat, bweight,
                    x.view(np.float64), got[lo:hi].view(np.float64),
                )
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# plan cache behaviour and per-call stats
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_miss_then_hit_events(self, small_setup, rng):
        coords, values = random_samples(rng, 200, small_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(small_setup)
        com.grid(coords, values)
        assert (com.stats.cache_misses, com.stats.cache_hits) == (1, 0)
        # the table-driven select checks W columns per axis per sample
        assert com.stats.boundary_checks == 200 * small_setup.width * 2
        assert com.stats.plan_compile_seconds > 0
        assert com.stats.table_bytes > 0
        com.grid(coords, values)
        assert (com.stats.cache_misses, com.stats.cache_hits) == (0, 1)
        assert com.stats.boundary_checks == 0
        assert com.stats.lut_lookups == 0
        assert com.stats.plan_compile_seconds == 0.0
        # no divergence on the gather: every lane slot does useful work
        assert com.stats.simd_lane_slots == com.stats.simd_active_lanes

    def test_peak_bytes_tracks_tracemalloc(self, rng, monkeypatch):
        """A compile call's reported high water must match the
        allocator's measured peak: never under by more than the
        interpreter noise floor, never over by 2x.  The compile
        allocates the whole plan inside the trace, so the resident plan
        and the select transients both count — on one band and on a
        banded csr plan (its scratch and row pointers)."""
        cases = [  # (grid shape, W, dtype, samples, usable CPUs)
            ((64, 64), 6, np.complex128, 24576, 1),
            ((64, 64), 6, np.complex128, 24576, 2),
            ((64, 64), 6, np.complex64, 24576, 2),
            ((32, 32, 32), 4, np.complex128, 12288, 1),
            ((32, 32, 32), 4, np.complex128, 12288, 2),
        ]
        for shape, width, dtype, m, cpus in cases:
            monkeypatch.setattr(compiledmod, "usable_cpus", lambda: cpus)
            setup = GriddingSetup(
                shape, KernelLUT(beatty_kernel(width, 2.0), 64), dtype=dtype
            )
            coords, values = random_samples(rng, m, shape)
            values = values.astype(dtype)
            grid = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
            for call in ("grid", "interp"):
                com = make_gridder("slice_and_dice_compiled", setup)
                tracemalloc.start()
                tracemalloc.reset_peak()
                if call == "grid":
                    com.grid(coords, values)
                else:
                    com.interp(grid, coords)
                _, traced_peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                peak = com.stats.peak_bytes
                assert com.stats.cache_misses == 1
                assert com._binding.product.n_bands == cpus
                assert peak > 8_000_000
                assert 0.5 * peak <= traced_peak <= peak + 1_000_000, (
                    shape, dtype, call, traced_peak, peak
                )

    def test_plan_nnz_counts_passing_checks(self, tiny_setup, rng):
        # interior samples pass exactly W^d checks per sample
        m, w = 50, tiny_setup.width
        coords = rng.uniform(w, 16 - w, size=(m, 2))
        com = CompiledSliceAndDiceGridder(tiny_setup)
        com.grid(coords, np.ones(m, dtype=complex))
        assert com.stats.plan_nnz == m * w**2
        assert com.stats.interpolations == m * w**2

    def test_grid_and_interp_share_one_plan(self, small_setup, rng):
        coords, values = random_samples(rng, 200, small_setup.grid_shape)
        grid = gridding_problem("square")[3][0]  # small_setup's grid
        com = CompiledSliceAndDiceGridder(small_setup)
        com.grid(coords, values)          # compiles
        com.interp(grid, coords)          # must reuse, not recompile
        assert (com.stats.cache_hits, com.stats.cache_misses) == (1, 0)

    def test_zero_samples(self, tiny_setup):
        com = CompiledSliceAndDiceGridder(tiny_setup)
        empty = np.zeros((0, 2))
        out = com.grid_batch(empty, np.zeros((2, 0), dtype=complex))
        assert out.shape == (2,) + tiny_setup.grid_shape and not out.any()
        gstack = np.zeros((2,) + tiny_setup.grid_shape, dtype=complex)
        assert com.interp_batch(gstack, empty).shape == (2, 0)
        assert com.address_trace(empty).size == 0


# ----------------------------------------------------------------------
# satellite: minimal-dtype tile tables + table_bytes
# ----------------------------------------------------------------------
class TestTableMemory:
    def test_tiles_use_minimal_dtype(self, small_setup, rng):
        coords, _ = random_samples(rng, 100, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        _, _, _, tiles = ser._fetch_tables(small_setup.check_coords(coords))[0]
        # 32/8 = 4 tiles per axis -> uint8 suffices
        assert all(t.dtype == np.uint8 for t in tiles)

    def test_table_bytes_reported_and_shrunk(self, small_setup, rng):
        coords, values = random_samples(rng, 100, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        ser.grid(coords, values)
        reported = ser.stats.table_bytes
        assert reported > 0
        t, m, d = ser.tile_size, 100, 2
        # masks (1 B) + weights (8 B) + tiles (1 B, not the historical
        # 8 B int64) per (T, M) entry per axis
        assert reported == d * t * m * (1 + 8 + 1)
        assert reported < d * t * m * (1 + 8 + 8)  # the shrink
        # hits report the resident bytes too
        ser.grid(coords, values)
        assert ser.stats.table_bytes == reported

    def test_minimal_dtype_does_not_change_output(self):
        # 3D with mixed tile counts exercises the int64 promotion in
        # depth arithmetic (NEP 50: small uint * int would overflow)
        assert_cells(["naive"], DTYPES, geometries=["3d"], checks=["serial"])


# ----------------------------------------------------------------------
# satellite: per-call cache events on interleaved grid/interp traffic
# ----------------------------------------------------------------------
class TestInterleavedStats:
    @pytest.mark.parametrize("cls", [SliceAndDiceGridder, CompiledSliceAndDiceGridder])
    def test_interp_after_grid_on_other_trajectory(self, small_setup, rng, cls):
        """Stats must reflect the call that produced them, never a
        previous call's build on a different trajectory."""
        a, values = random_samples(rng, 120, small_setup.grid_shape)
        b, _ = random_samples(rng, 80, small_setup.grid_shape)
        grid = gridding_problem("square")[3][0]  # small_setup's grid
        g = cls(small_setup)
        g.grid(a, values)                      # miss: binds A
        assert g.stats.cache_misses == 1
        g.interp(grid, b)                      # different trajectory: miss
        assert (g.stats.cache_misses, g.stats.cache_hits) == (1, 0)
        assert g.stats.samples_processed == 80
        g.interp(grid, a)                      # one binding: A rebinds
        assert (g.stats.cache_misses, g.stats.cache_hits) == (1, 0)
        g.grid(a, values)                      # A again: hit, build=0
        assert (g.stats.cache_misses, g.stats.cache_hits) == (0, 1)
        assert g.stats.table_build_seconds == 0.0


# ----------------------------------------------------------------------
# registry / plan integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_registered_name(self, tiny_setup):
        g = make_gridder("slice_and_dice_compiled", tiny_setup)
        assert g.name == "slice_and_dice_compiled"

    def test_nufft_plan_roundtrip_matches_serial(self, rng):
        from repro.nufft import NufftPlan
        from repro.trajectories import radial_trajectory

        coords = radial_trajectory(16, 32)
        ser = NufftPlan((16, 16), coords, gridder="slice_and_dice")
        com = NufftPlan((16, 16), coords, gridder="slice_and_dice_compiled")
        img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        assert np.array_equal(com.forward(img), ser.forward(img))
        ksp = rng.standard_normal(coords.shape[0]) + 1j * rng.standard_normal(
            coords.shape[0]
        )
        assert np.array_equal(com.adjoint(ksp), ser.adjoint(ksp))
        # iteration 2+: zero select work
        com.adjoint(ksp)
        assert com.gridder.stats.boundary_checks == 0
