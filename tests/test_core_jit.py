"""The compiled engine's numba lane: identity, degradation, registry.

The raw loop bodies in :mod:`repro.core.jit` are plain Python wrapped
by ``njit`` only at first use, so the numerics contract — serial and
sharded kernels bit-identical to the csr lane at complex128,
NRMSD <= 1e-6 at complex64 — is testable here without
numba installed: ``backend="numba"`` engines run them through
:func:`~tests.conftest.interpret_jit_kernels`.  The CI ``jit`` job
re-runs this file with numba present, where the engine tests run the
compiled dispatchers.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core
import repro.core.jit as jitmod
from repro.core.jit import (
    JIT_DISABLE_ENV,
    _entries,
    gather_plan_entries,
    gather_plan_samples,
    jit_available,
    scatter_plan_entries,
    scatter_plan_rows,
)
from repro.gridding import (
    GriddingSetup,
    available_gridders,
    default_gridder,
    make_gridder,
)
from repro.kernels import KernelLUT, beatty_kernel
from repro.robustness import inject_faults
from repro.robustness.faults import InjectedFault
from tests.conftest import interpret_jit_kernels

NUMBA_LANES = ("numba-serial", "numba-parallel")


def _setup(dtype=np.complex128, shape=(32, 32)):
    return GriddingSetup(shape, KernelLUT(beatty_kernel(6, 2.0), 64), dtype=dtype)


def _problem(setup, m=500, k=3, seed=11):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, (m, setup.ndim)) * np.asarray(setup.grid_shape)
    stack = (
        rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    ).astype(setup.dtype)
    grids = (
        rng.standard_normal((k,) + setup.grid_shape)
        + 1j * rng.standard_normal((k,) + setup.grid_shape)
    ).astype(setup.dtype)
    return coords, stack, grids


def numba_engine(setup, monkeypatch, **options):
    """A ``backend="numba"`` engine on the compiled kernels when numba
    is importable, else on the raw Python loop bodies."""
    if not jit_available():
        interpret_jit_kernels(monkeypatch)
    return make_gridder("slice_and_dice_compiled", setup, backend="numba", **options)


def nrmsd(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


# ----------------------------------------------------------------------
# raw-lane numerics vs the csr lane
# ----------------------------------------------------------------------
class TestRawLaneIdentity:
    """The four loop bodies vs the compiled engine's csr lane."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        setup = _setup()
        g = make_gridder("slice_and_dice_compiled", setup)
        coords, stack, grids = _problem(setup)
        ref_grids = g.grid_batch(coords, stack)
        ref_samples = g.interp_batch(grids, coords)
        # a numba plan: one sample-major band, whatever the CPU count
        numba = numba_engine(setup, monkeypatch)
        plan, _ = numba._fetch_plan(setup.check_coords(coords))
        assert plan.n_bands == 1
        return g, plan, coords, stack, grids, ref_grids, ref_samples

    def _run_scatter(self, g, plan, stack, lane):
        n_flat = plan.n_rows * plan.n_tiles
        dice = np.zeros((stack.shape[0], n_flat), dtype=g.setup.dtype)
        flat, weight = _entries(plan)
        if lane == "serial":
            scatter_plan_entries(stack, flat, weight, dice)
        else:
            order, starts = plan.row_view()
            scatter_plan_rows(stack, flat, weight, order, starts, dice)
        return np.stack([
            g.layout.dice_to_grid(dice[k].reshape(plan.n_rows, plan.n_tiles))
            for k in range(stack.shape[0])
        ])

    def _run_gather(self, g, plan, grids, m, lane):
        dice = np.stack([
            g.layout.grid_to_dice(grids[k]).reshape(-1)
            for k in range(grids.shape[0])
        ])
        out = np.zeros((grids.shape[0], m), dtype=g.setup.dtype)
        kernel = gather_plan_entries if lane == "serial" else gather_plan_samples
        kernel(dice, *_entries(plan), out)
        return out

    @pytest.mark.parametrize("lane", ["serial", "rows"])
    def test_scatter_bit_identical_complex128(self, compiled, lane):
        g, plan, coords, stack, _, ref_grids, _ = compiled
        got = self._run_scatter(g, plan, stack, lane)
        assert got.dtype == ref_grids.dtype
        assert np.array_equal(got, ref_grids)

    @pytest.mark.parametrize("lane", ["serial", "samples"])
    def test_gather_bit_identical_complex128(self, compiled, lane):
        g, plan, coords, _, grids, _, ref_samples = compiled
        got = self._run_gather(g, plan, grids, coords.shape[0], lane)
        assert np.array_equal(got, ref_samples)

    @pytest.mark.parametrize("lane", ["serial", "rows"])
    def test_scatter_complex64_nrmsd(self, lane):
        """At complex64 the loop bodies and the csr lane both add in
        float32; the gate is NRMSD <= 1e-6, the bound of every numba
        complex64 cell (compiled kernels are not pinned to SciPy's
        rounding)."""
        setup = _setup(np.complex64)
        g = make_gridder("slice_and_dice_compiled", setup)
        coords, stack, _ = _problem(setup)
        ref = g.grid_batch(coords, stack)
        plan, _ = g._fetch_plan(setup.check_coords(coords))
        got = self._run_scatter(g, plan, stack, lane)
        assert got.dtype == np.complex64
        assert nrmsd(got, ref) <= 1e-6

    @pytest.mark.parametrize("lane", ["serial", "samples"])
    def test_gather_complex64_nrmsd(self, lane):
        setup = _setup(np.complex64)
        g = make_gridder("slice_and_dice_compiled", setup)
        coords, _, grids = _problem(setup)
        ref = g.interp_batch(grids, coords)
        plan, _ = g._fetch_plan(setup.check_coords(coords))
        got = self._run_gather(g, plan, grids, coords.shape[0], lane)
        assert got.dtype == np.complex64
        assert nrmsd(got, ref) <= 1e-6

    def test_row_view_is_stable_row_major(self, compiled):
        """``row_view()`` groups the sample-major entries by dice row,
        ascending samples inside each row: the serial engine's column
        order, which is what makes the row-sharded scatter race-free
        and bit-identical."""
        g, plan, coords, *_ = compiled
        order, starts = plan.row_view()
        rows = plan.flat // plan.n_tiles
        assert np.array_equal(np.sort(order), np.arange(plan.nnz))
        assert np.all(np.diff(rows[order]) >= 0)
        for r in range(plan.n_rows):
            slab = order[starts[r]:starts[r + 1]]
            assert np.all(rows[slab] == r)
            assert np.all(np.diff(slab) > 0)  # stable: entry order kept
        ser = make_gridder("slice_and_dice", g.setup)
        assert np.array_equal(plan.flat[order], ser.address_trace(coords))
        # the view counts in the resident plan bytes
        assert plan.nbytes >= order.nbytes + starts.nbytes + plan.flat.nbytes

    def test_3d_identity(self):
        setup = GriddingSetup(
            (16, 16, 16), KernelLUT(beatty_kernel(4, 2.0), 32)
        )
        g = make_gridder("slice_and_dice_compiled", setup)
        coords, stack, grids = _problem(setup, m=200, k=2)
        ref_grids = g.grid_batch(coords, stack)
        ref_samples = g.interp_batch(grids, coords)
        plan, _ = g._fetch_plan(setup.check_coords(coords))
        for lane in ("serial", "rows"):
            assert np.array_equal(
                self._run_scatter(g, plan, stack, lane), ref_grids
            )
        for lane in ("serial", "samples"):
            assert np.array_equal(
                self._run_gather(g, plan, grids, coords.shape[0], lane),
                ref_samples,
            )


# ----------------------------------------------------------------------
# the lane: registry, equivalence, stats
# ----------------------------------------------------------------------
class TestJitEngine:
    def test_numba_is_a_backend_not_an_engine(self):
        assert "slice_and_dice_jit" not in available_gridders()
        assert not hasattr(repro.core, "JitSliceAndDiceGridder")
        g = make_gridder("slice_and_dice_compiled", _setup(), backend="numba")
        assert g.name == "slice_and_dice_compiled"

    def test_default_gridder_tracks_numba(self, monkeypatch):
        """The default engine is always the compiled one; its default
        backend is numba exactly when numba is available."""
        assert default_gridder() == "slice_and_dice_compiled"
        monkeypatch.setenv(JIT_DISABLE_ENV, "numba")
        assert default_gridder() == "slice_and_dice_compiled"
        for dtype in (np.complex128, np.complex64):
            assert make_gridder(default_gridder(), _setup(dtype)).backend == "csr"
        monkeypatch.delenv(JIT_DISABLE_ENV)
        monkeypatch.setattr(jitmod, "_numba", object())
        assert default_gridder() == "slice_and_dice_compiled"
        g = make_gridder(default_gridder(), _setup())
        assert g.backend == "numba" and g.degradations == ()

    def test_bad_lane_rejected(self):
        """``lane=`` and ``parallel_threshold=`` left with the jit
        engine; unknown backends are rejected."""
        for option in ({"lane": "numba-serial"}, {"parallel_threshold": 0}):
            with pytest.raises(TypeError):
                make_gridder("slice_and_dice_compiled", _setup(), **option)
        for backend in ("cuda", "bincount"):
            with pytest.raises(ValueError, match=r"\('csr', 'numba'\)"):
                make_gridder("slice_and_dice_compiled", _setup(), backend=backend)

    def test_matches_compiled_engine(self, monkeypatch):
        setup = _setup()
        jit = numba_engine(setup, monkeypatch)
        ref = make_gridder("slice_and_dice_compiled", setup, backend="csr")
        coords, stack, grids = _problem(setup)
        np.testing.assert_allclose(
            jit.grid_batch(coords, stack), ref.grid_batch(coords, stack),
            rtol=1e-12, atol=0,
        )
        assert jit.stats.exec_lane in NUMBA_LANES
        assert jit.stats.kernel == "kb"
        np.testing.assert_allclose(
            jit.interp_batch(grids, coords), ref.interp_batch(grids, coords),
            rtol=1e-12, atol=0,
        )
        assert jit.stats.exec_lane in NUMBA_LANES
        assert jit.degradations == ()

    def test_single_rhs_grid_and_interp(self, monkeypatch):
        setup = _setup()
        jit = numba_engine(setup, monkeypatch)
        ref = make_gridder("slice_and_dice_compiled", setup, backend="csr")
        coords, stack, grids = _problem(setup, k=1)
        np.testing.assert_allclose(
            jit.grid(coords, stack[0]), ref.grid(coords, stack[0]),
            rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            jit.interp(grids[0], coords), ref.interp(grids[0], coords),
            rtol=1e-12, atol=0,
        )

    def test_empty_trajectory(self, monkeypatch):
        setup = _setup()
        jit = numba_engine(setup, monkeypatch)
        out = jit.grid(np.zeros((0, 2)), np.zeros(0, dtype=np.complex128))
        assert out.shape == setup.grid_shape
        assert not out.any()

    @pytest.mark.parametrize("chunk", [None, 64])
    def test_parallel_kernels_above_the_threshold(self, monkeypatch, chunk):
        """One-shot plans of at least ``PARALLEL_MIN_NNZ`` entries run
        the sharded kernels, bit-identical to the csr lane; chunk plans
        are used once and always run the serial ones."""
        monkeypatch.setattr(jitmod, "PARALLEL_MIN_NNZ", 0)
        setup = _setup()
        jit = numba_engine(setup, monkeypatch, chunk_samples=chunk)
        ref = make_gridder("slice_and_dice_compiled", setup, backend="csr")
        coords, stack, grids = _problem(setup)
        lane = "numba-parallel" if chunk is None else "numba-serial"
        assert np.array_equal(jit.grid_batch(coords, stack), ref.grid_batch(coords, stack))
        assert jit.stats.exec_lane == lane
        assert np.array_equal(
            jit.interp_batch(grids, coords), ref.interp_batch(grids, coords)
        )
        assert jit.stats.exec_lane == lane

    @pytest.mark.parametrize("dtype,layout", [
        (np.complex128, "csr"), (np.complex64, "csr"),
    ])
    def test_plan_has_the_numpy_lane_layout(self, monkeypatch, dtype, layout):
        """A numba plan has the csr layout at both dtypes — int32
        addresses, and a chunk scratch of exactly the chunk's entries,
        no seed slots — which is what lets a demotion re-run the same
        plan."""
        setup = _setup(dtype)
        coords, stack, _ = _problem(setup)
        for chunk in (None, 128):
            jit = numba_engine(setup, monkeypatch, chunk_samples=chunk)
            ref = make_gridder(
                "slice_and_dice_compiled", setup, backend=layout,
                chunk_samples=chunk,
            )
            jit.grid_batch(coords, stack)
            ref.grid_batch(coords, stack)
            if chunk is None:
                plan = jit._binding.product
                ref_plan = ref._binding.product
                assert plan.flat.dtype == ref_plan.flat.dtype
                assert plan.flat.dtype == np.int32
            else:
                assert jit._chunk_flat.dtype == ref._chunk_flat.dtype == np.int32
                assert jit._chunk_flat.size == ref._chunk_flat.size
                assert jit._chunk_flat.size == 128 * setup.width ** setup.ndim
            assert jit.stats.peak_bytes == ref.stats.peak_bytes


# ----------------------------------------------------------------------
# degradation: construction-time, env-gated, and injected
# ----------------------------------------------------------------------
class TestDegradation:
    def test_construction_records_event_without_numba(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_numba", None)
        g = make_gridder("slice_and_dice_compiled", _setup(), backend="numba")
        assert g.backend == "csr"
        assert len(g.degradations) == 1
        ev = g.degradations[0]
        assert ev.component == "jit"
        assert (ev.from_stage, ev.to_stage) == ("numba", "numpy")
        assert "not importable" in ev.reason

    def test_env_disable_records_event(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_numba", object())
        monkeypatch.setenv(JIT_DISABLE_ENV, "other, numba")
        assert not jit_available()
        g = make_gridder(
            "slice_and_dice_compiled", _setup(np.complex64), backend="numba"
        )
        assert g.backend == "csr"
        assert JIT_DISABLE_ENV in g.degradations[0].reason

    def test_explicit_numpy_lane_is_not_a_degradation(self, monkeypatch):
        """A NumPy backend — named, or the default without numba — is
        not a demotion."""
        monkeypatch.setattr(jitmod, "_numba", None)
        for backend in ("csr", None):
            g = make_gridder("slice_and_dice_compiled", _setup(), backend=backend)
            assert g.degradations == ()
            coords, stack, _ = _problem(_setup())
            g.grid_batch(coords, stack)
            assert g.stats.exec_lane == "numpy"
            assert g.stats.degradations == ()

    def test_degradation_event_lands_in_stats_once(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_numba", None)
        setup = _setup()
        g = make_gridder("slice_and_dice_compiled", setup, backend="numba")
        coords, stack, _ = _problem(setup)
        g.grid_batch(coords, stack)
        assert g.stats.exec_lane == "numpy"
        assert len(g.stats.degradations) == 1
        g.grid_batch(coords, stack)  # second call: already demoted, no new event
        assert g.stats.degradations == ()

    def test_injected_scatter_fault_demotes_stickily(self, monkeypatch):
        """Chaos leg: the scatter fault fires at the injection site
        before any entry is written, the call transparently re-runs the
        same plan on the csr lane — bit-identical to that lane, at both
        dtypes — and the numba lane never comes back."""
        for dtype in (np.complex128, np.complex64):
            setup = _setup(dtype)
            g = numba_engine(setup, monkeypatch)
            ref = make_gridder("slice_and_dice_compiled", setup, backend="csr")
            coords, stack, grids = _problem(setup)
            g.interp_batch(grids, coords)  # compiles the plan on the numba lane
            with inject_faults(jit_errors=1) as inj:
                out = g.grid_batch(coords, stack)
                assert inj.jit_errors == 0
            assert g.stats.cache_hits == 1  # the same plan, re-run on NumPy
            assert np.array_equal(out, ref.grid_batch(coords, stack))
            assert g.stats.exec_lane == "numpy"
            assert g.backend == "csr"
            assert len(g.degradations) == 1
            assert g.degradations[0].from_stage in NUMBA_LANES
            assert "InjectedFault" in g.degradations[0].reason
            # sticky: later calls run numpy without touching the jit path
            assert np.array_equal(
                g.interp_batch(grids, coords), ref.interp_batch(grids, coords)
            )
            assert g.stats.exec_lane == "numpy"
            assert len(g.degradations) == 1

    def test_injected_gather_fault_demotes(self, monkeypatch):
        setup = _setup()
        g = numba_engine(setup, monkeypatch)
        ref = make_gridder("slice_and_dice_compiled", setup, backend="csr")
        coords, _, grids = _problem(setup)
        with inject_faults(jit_errors=1):
            out = g.interp_batch(grids, coords)
        assert np.array_equal(out, ref.interp_batch(grids, coords))
        assert g.stats.exec_lane == "numpy"
        assert g.degradations[0].component == "jit"

    def test_broken_numba_compile_demotes(self, monkeypatch):
        """A numba whose njit explodes at compile time demotes the same
        way an execution failure would (the fake object has no .njit,
        so _compiled() raises AttributeError)."""
        monkeypatch.setattr(jitmod, "_numba", object())
        monkeypatch.setattr(jitmod, "_COMPILED", None)  # not yet compiled
        monkeypatch.delenv(JIT_DISABLE_ENV, raising=False)
        setup = _setup()
        g = make_gridder("slice_and_dice_compiled", setup, backend="numba")
        ref = make_gridder("slice_and_dice_compiled", setup, backend="csr")
        coords, stack, _ = _problem(setup)
        assert np.array_equal(
            g.grid_batch(coords, stack), ref.grid_batch(coords, stack)
        )
        assert g.backend == "csr"
        assert "AttributeError" in g.degradations[0].reason

    def test_fault_site_raises_when_unhandled(self):
        """The injection sites themselves follow the faults contract."""
        with inject_faults(jit_errors=1):
            with pytest.raises(InjectedFault):
                jitmod.fault_point("jit:scatter")


# ----------------------------------------------------------------------
# availability probes
# ----------------------------------------------------------------------
class TestAvailability:
    def test_env_tokens(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_numba", object())
        monkeypatch.delenv(JIT_DISABLE_ENV, raising=False)
        assert jit_available()
        monkeypatch.setenv(JIT_DISABLE_ENV, "numba")
        assert not jit_available()
        monkeypatch.setenv(JIT_DISABLE_ENV, "fftw , numba")
        assert not jit_available()
        monkeypatch.setenv(JIT_DISABLE_ENV, "fftw")
        assert jit_available()

    def test_unavailable_without_numba(self, monkeypatch):
        monkeypatch.setattr(jitmod, "_numba", None)
        assert not jit_available()
        assert jitmod.numba_version() is None
