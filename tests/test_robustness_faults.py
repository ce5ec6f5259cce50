"""Chaos suite: the fault-tolerant execution layer under injected faults.

Every test drives a *production* entry point (gridding, NuFFT, CG)
through :func:`repro.robustness.inject_faults` and asserts the two
tentpole contracts:

1. every injected fault either surfaces as a typed
   :class:`repro.errors.ReproError` subclass (``policy="raise"``) or
   completes through a *recorded* degradation whose result is
   bit-identical to the unfaulted serial/numpy reference, and
2. no fault path leaks pooled buffers (``GridBufferPool.outstanding``
   returns to 0) or returns NaN in an image/grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    BackendFailure,
    CoordinateError,
    DataQualityError,
    DeadlineExceeded,
    DegradationEvent,
    EngineFailure,
    JobCancelled,
    ReproError,
    SolverBreakdown,
)
from repro.gridding import GriddingSetup, make_gridder
from repro.gridding.buffers import GridBufferPool
from repro.kernels import KernelLUT, beatty_kernel
from repro.mri import SenseOperator, birdcage_maps, sense_reconstruction
from repro.nufft import (
    FallbackFftBackend,
    NufftPlan,
    ToeplitzNormalOperator,
    fft_backend_available,
)
from repro.recon import cg_reconstruction
from repro.robustness import (
    DataQualityReport,
    apply_quality_policy,
    inject_faults,
)
from repro.robustness.faults import InjectedFault, InjectedWorkerCrash
from repro.trajectories import radial_trajectory

#: every quality-gated engine
ENGINES = [
    ("naive", {}),
    ("output_parallel", {}),
    ("binning", {}),
    ("sparse_matrix", {}),
    ("slice_and_dice", {}),
    ("slice_and_dice_compiled", {}),
]


def build_setup(shape=(16, 16), policy="raise"):
    return GriddingSetup(
        tuple(shape), KernelLUT(beatty_kernel(4, 2.0), 32), quality_policy=policy
    )


def dirty_samples(rng, m=60, shape=(16, 16)):
    """(coords, values, bad_mask) with NaN/Inf at known sample slots."""
    coords = rng.uniform(0, min(shape), size=(m, len(shape)))
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    bad = np.zeros(m, dtype=bool)
    coords[3, 0] = np.nan
    coords[17, 1] = np.inf
    values[5] = np.nan + 0j
    values[11] = 1.0 + np.inf * 1j
    bad[[3, 5, 11, 17]] = True
    return coords, values, bad


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# exception taxonomy
# ---------------------------------------------------------------------------
class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(CoordinateError, ReproError)
        assert issubclass(CoordinateError, ValueError)
        assert issubclass(DataQualityError, ReproError)
        assert issubclass(DataQualityError, ValueError)
        for exc in (EngineFailure, BackendFailure, SolverBreakdown):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, RuntimeError)

    def test_injected_faults_are_not_repro_errors(self):
        # they simulate third-party failures the stack must translate
        assert issubclass(InjectedWorkerCrash, InjectedFault)
        assert not issubclass(InjectedFault, ReproError)

    def test_degradation_event_str(self):
        e = DegradationEvent("fft", "scipy", "numpy", "injected")
        assert str(e) == "fft: scipy -> numpy (injected)"


# ---------------------------------------------------------------------------
# input-quality gate: check_coords and policies across every engine
# ---------------------------------------------------------------------------
class TestQualityGate:
    def test_check_coords_raises_typed_error(self):
        setup = build_setup(policy="raise")
        coords = np.array([[1.0, 2.0], [np.nan, 3.0]])
        with pytest.raises(CoordinateError, match="non-finite"):
            setup.check_coords(coords)

    def test_check_coords_zero_policy_pins_to_origin(self):
        setup = build_setup(policy="zero")
        coords = np.array([[1.0, 2.0], [np.nan, np.inf]])
        wrapped = setup.check_coords(coords)
        assert np.array_equal(wrapped[1], [0.0, 0.0])
        assert np.isfinite(wrapped).all()

    @pytest.mark.parametrize("name,opts", ENGINES)
    def test_raise_policy_is_typed(self, rng, name, opts):
        gridder = make_gridder(name, build_setup(policy="raise"), **opts)
        coords, values, _ = dirty_samples(rng)
        with pytest.raises((CoordinateError, DataQualityError)):
            gridder.grid(coords, values)
        finite_coords = coords.copy()
        finite_coords[~np.isfinite(coords).any(axis=1)] = 1.0
        finite_coords[3] = finite_coords[17] = 1.0
        with pytest.raises(DataQualityError):
            gridder.grid(finite_coords, values)

    @pytest.mark.parametrize("name,opts", ENGINES)
    def test_drop_policy_bit_identical_to_filtered(self, rng, name, opts):
        coords, values, bad = dirty_samples(rng)
        gridder = make_gridder(name, build_setup(policy="drop"), **opts)
        out = gridder.grid(coords, values)
        report = gridder.stats.quality
        assert report is not None and report.dropped == int(bad.sum())
        clean = make_gridder(name, build_setup(policy="raise"), **opts)
        ref = clean.grid(coords[~bad], values[~bad])
        assert np.array_equal(out, ref)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("name,opts", ENGINES)
    def test_zero_policy_matches_filtered(self, rng, name, opts):
        coords, values, bad = dirty_samples(rng)
        gridder = make_gridder(name, build_setup(policy="zero"), **opts)
        out = gridder.grid(coords, values)
        assert gridder.stats.quality.zeroed == int(bad.sum())
        # zeroed samples sit at the origin with value 0 and contribute
        # nothing; the extra zero sample can still reorder the engine's
        # accumulation, so compare at summation-roundoff tolerance
        clean = make_gridder(name, build_setup(policy="raise"), **opts)
        ref = clean.grid(coords[~bad], values[~bad])
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("name,opts", ENGINES)
    @pytest.mark.parametrize("policy", ["drop", "zero"])
    def test_interp_zeroes_bad_slots(self, rng, name, opts, policy):
        coords, _, _ = dirty_samples(rng)
        # interp has no sample values, so only coordinate defects matter
        bad = ~np.isfinite(coords).all(axis=1)
        grid = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        gridder = make_gridder(name, build_setup(policy=policy), **opts)
        vals = gridder.interp(grid, coords)
        assert vals.shape == (coords.shape[0],)
        assert np.all(vals[bad] == 0)
        clean = make_gridder(name, build_setup(policy="raise"), **opts)
        ref = clean.interp(grid, coords[~bad])
        assert np.array_equal(vals[~bad], ref)

    def test_grid_batch_reports_quality(self, rng):
        coords, values, bad = dirty_samples(rng)
        with np.errstate(invalid="ignore"):
            stack = np.stack([values, 2 * values])
        gridder = make_gridder("slice_and_dice", build_setup(policy="drop"))
        out = gridder.grid_batch(coords, stack)
        assert out.shape == (2, 16, 16)
        assert np.isfinite(out).all()
        assert gridder.stats.quality.dropped == int(bad.sum())
        assert "quality" in gridder.stats.as_dict()


# ---------------------------------------------------------------------------
# validators never mutate clean inputs (hypothesis property)
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestCleanPassthrough:
    @given(
        data=st.data(),
        m=st.integers(min_value=0, max_value=40),
        policy=st.sampled_from(["raise", "drop", "zero"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gate_is_identity_on_clean_input(self, data, m, policy):
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 16, size=(m, 2))
        values = (rng.standard_normal(m) + 1j * rng.standard_normal(m))[None, :]
        c_bytes, v_bytes = coords.tobytes(), values.tobytes()
        c2, v2, bad, report = apply_quality_policy(coords, values, policy, (16, 16))
        assert c2 is coords and v2 is values and bad is None
        assert report.clean
        # bit-identity: the gate did not touch the buffers
        assert coords.tobytes() == c_bytes and values.tobytes() == v_bytes

    @given(policy=st.sampled_from(["raise", "drop", "zero"]))
    @settings(max_examples=3, deadline=None)
    def test_policies_agree_on_clean_input(self, policy):
        rng = np.random.default_rng(7)
        coords = rng.uniform(0, 16, size=(50, 2))
        values = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        ref = make_gridder("slice_and_dice", build_setup(policy="raise")).grid(
            coords, values
        )
        out = make_gridder("slice_and_dice", build_setup(policy=policy)).grid(
            coords, values
        )
        assert np.array_equal(out, ref)


# ---------------------------------------------------------------------------
# the gate's in-range fast path is indistinguishable from the full scan
# ---------------------------------------------------------------------------
def _full_scan_gate(coords, values_stack, policy, grid_shape):
    """The gate as it was before its in-range fast path: every call
    counts wrapped and non-finite samples row by row.  The oracle for
    :func:`apply_quality_policy`."""
    report = DataQualityReport(policy=policy, n_samples=int(coords.shape[0]))
    if coords.size:
        shape = np.asarray(grid_shape, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            out_of_range = (coords < 0.0) | (coords >= shape)
        finite_rows = np.isfinite(coords).all(axis=1)
        report.wrapped = int(np.count_nonzero(out_of_range.any(axis=1) & finite_rows))
    coords_finite = np.isfinite(coords).all(axis=1)
    n_bad_coords = int(coords.shape[0] - np.count_nonzero(coords_finite))
    report.nonfinite_coords = n_bad_coords
    if values_stack is not None:
        values_finite = np.isfinite(values_stack.real).all(axis=0) & np.isfinite(
            values_stack.imag
        ).all(axis=0)
        report.nonfinite_values = int(np.count_nonzero(~values_finite))
    else:
        values_finite = None
    if n_bad_coords == 0 and report.nonfinite_values == 0:
        return coords, values_stack, None, report
    if policy == "raise":
        if n_bad_coords:
            idx = np.flatnonzero(~coords_finite)
            raise CoordinateError(
                f"{n_bad_coords} sample(s) have non-finite coordinates "
                f"(first at index {int(idx[0])}); pass policy='drop' or "
                "'zero' to degrade instead"
            )
        idx = np.flatnonzero(~values_finite)
        raise DataQualityError(
            f"{report.nonfinite_values} sample(s) have non-finite values "
            f"(first at index {int(idx[0])}); pass policy='drop' or "
            "'zero' to degrade instead"
        )
    bad = ~coords_finite
    if values_finite is not None:
        bad = bad | ~values_finite
    if policy == "drop":
        keep = ~bad
        report.dropped = int(np.count_nonzero(bad))
        coords = coords[keep]
        if values_stack is not None:
            values_stack = values_stack[:, keep]
        return coords, values_stack, bad, report
    report.zeroed = int(np.count_nonzero(bad))
    coords = coords.copy()
    coords[~coords_finite] = 0.0
    if values_stack is not None:
        values_stack = values_stack.copy()
        values_stack[:, bad] = 0.0
    return coords, values_stack, bad, report


def _gate_outcome(gate, coords, values, policy, grid_shape):
    """Everything a caller can observe of one gate pass, comparably:
    the exception, or returned-object identity, exact bytes (NaN and
    -0.0 included), the bad mask and the report."""
    try:
        c, v, bad, report = gate(coords, values, policy, grid_shape)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))

    def exact(a):
        return None if a is None else (a.shape, a.dtype.str, a.tobytes())

    return (
        "returned", c is coords, v is values,
        exact(c), exact(v), exact(bad), report.as_dict(),
    )


def _assert_gate_matches_full_scan(coords, values, grid_shape):
    for policy in ("raise", "drop", "zero"):
        for vals in (values, None):
            got = _gate_outcome(apply_quality_policy, coords, vals, policy, grid_shape)
            want = _gate_outcome(_full_scan_gate, coords, vals, policy, grid_shape)
            assert got == want, (policy, vals is None)


def _gate_case(rows, grid_shape, bad_values=()):
    coords = np.array(rows, dtype=np.float64).reshape(-1, len(grid_shape))
    values = np.arange(1, coords.shape[0] + 1, dtype=np.complex128)
    for i, v in bad_values:
        values[i] = v
    return coords, values[None, :], grid_shape


_G_ULP = np.nextafter(16.0, 0.0)
FAST_PATH_CASES = {
    "in_range": _gate_case([[1.0, 2.0], [15.5, 0.0]], (16, 16)),
    "nan": _gate_case([[1.0, 2.0], [np.nan, 3.0]], (16, 16)),
    "pos_inf": _gate_case([[1.0, np.inf], [2.0, 3.0]], (16, 16)),
    "neg_inf": _gate_case([[-np.inf, 2.0], [2.0, 3.0]], (16, 16)),
    "neg_zero": _gate_case([[-0.0, 2.0], [3.0, -0.0]], (16, 16)),
    "exactly_g": _gate_case([[16.0, 2.0], [3.0, 4.0]], (16, 16)),
    "g_minus_ulp": _gate_case([[_G_ULP, _G_ULP], [0.0, 4.0]], (16, 16)),
    "negative": _gate_case([[-1e-300, 2.0], [3.0, 4.0]], (16, 16)),
    "above_g": _gate_case([[33.0, -1.0], [3.0, 4.0]], (16, 16)),
    "nan_and_wrapped": _gate_case([[np.nan, 40.0], [17.0, 4.0]], (16, 16)),
    "rect_valid_above_min_g": _gate_case([[7.0, 30.0], [0.0, 31.5]], (8, 32)),
    "rect_wrong_axis": _gate_case([[30.0, 7.0], [0.0, 1.0]], (8, 32)),
    "rect_exactly_max_g": _gate_case([[7.0, 32.0]], (8, 32)),
    "1d_in_range": _gate_case([[0.0], [3.5], [-0.0]], (8,)),
    "1d_out_of_range": _gate_case([[8.0], [3.5], [np.inf]], (8,)),
    "3d_in_range": _gate_case([[1.0, 2.0, 3.0], [7.0, 0.0, 15.0]], (8, 8, 16)),
    "3d_rect_wrapped": _gate_case([[1.0, 9.0, 3.0], [7.0, 0.0, 15.0]], (8, 8, 16)),
    "3d_nan": _gate_case([[1.0, 2.0, np.nan], [7.0, 0.0, 15.0]], (8, 8, 16)),
    "empty": _gate_case([], (16, 16)),
    "empty_3d": _gate_case([], (8, 8, 16)),
    "bad_values_clean_coords": _gate_case(
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], (16, 16),
        bad_values=[(0, np.nan), (2, complex(1.0, np.inf))],
    ),
    "bad_values_wrapped_coords": _gate_case(
        [[1.0, 2.0], [16.0, 4.0], [5.0, 6.0]], (16, 16), bad_values=[(1, np.inf)],
    ),
    "bad_values_and_coords": _gate_case(
        [[np.nan, 2.0], [3.0, 4.0], [5.0, 6.0]], (16, 16),
        bad_values=[(2, -np.inf)],
    ),
}


class TestQualityGateFastPath:
    """``apply_quality_policy`` skips the per-sample coordinate scan when
    two reductions prove the trajectory finite and in range.  Callers
    must not be able to tell: same report, same returned objects, same
    bad mask, same exception, under every policy."""

    @pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
    def test_matches_full_scan(self, case):
        _assert_gate_matches_full_scan(*FAST_PATH_CASES[case])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan_property(self, data):
        grid_shape = tuple(
            data.draw(st.lists(st.sampled_from([4, 8, 16]), min_size=1, max_size=3))
        )
        m = data.draw(st.integers(min_value=0, max_value=12))
        d = len(grid_shape)
        # each entry is drawn from the edges of its own axis' [0, G)
        kinds = data.draw(st.lists(st.integers(0, 11), min_size=m * d, max_size=m * d))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        coords = np.empty((m, d))
        for flat, kind in enumerate(kinds):
            g = float(grid_shape[flat % d])
            coords.flat[flat] = [
                rng.uniform(0.0, g), rng.uniform(0.0, g), rng.uniform(0.0, g),
                0.0, -0.0, g, np.nextafter(g, 0.0), np.nextafter(0.0, -1.0),
                rng.uniform(-2 * g, 3 * g), np.nan, np.inf, -np.inf,
            ][kind]
        values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for i in data.draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=2)):
            if m:
                values[i] = data.draw(st.sampled_from(
                    [np.nan, complex(0.0, np.inf), complex(-np.inf, 1.0)]
                ))
        _assert_gate_matches_full_scan(coords, values[None, :], grid_shape)


# ---------------------------------------------------------------------------
# corrupted-stream injection
# ---------------------------------------------------------------------------
class TestCorruptedStream:
    def test_raise_policy_surfaces_typed_error(self, rng):
        gridder = make_gridder("slice_and_dice", build_setup(policy="raise"))
        coords = rng.uniform(0, 16, size=(40, 2))
        values = rng.standard_normal(40) + 0j
        with inject_faults(seed=5, corrupt_coords=2):
            with pytest.raises(CoordinateError):
                gridder.grid(coords, values)

    def test_engines_agree_under_identical_corruption(self, rng):
        coords = rng.uniform(0, 16, size=(80, 2))
        values = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        results = []
        for name, opts in ENGINES:
            gridder = make_gridder(name, build_setup(policy="zero"), **opts)
            with inject_faults(seed=5, corrupt_coords=3, corrupt_values=2) as inj:
                out = gridder.grid(coords, values)
                assert inj.log  # corruption actually fired
            assert np.isfinite(out).all()
            assert gridder.stats.quality is not None
            assert not gridder.stats.quality.clean
            results.append(out)
        # every engine saw the same seeded corruption; engines differ
        # only in accumulation order, so agree to summation roundoff
        for out in results[1:]:
            np.testing.assert_allclose(out, results[0], rtol=1e-12, atol=1e-12)

    def test_originals_never_mutated(self, rng):
        coords = rng.uniform(0, 16, size=(30, 2))
        values = rng.standard_normal(30) + 0j
        c_bytes, v_bytes = coords.tobytes(), values.tobytes()
        gridder = make_gridder("naive", build_setup(policy="zero"))
        with inject_faults(seed=0, corrupt_coords=4, corrupt_values=4):
            gridder.grid(coords, values)
        assert coords.tobytes() == c_bytes and values.tobytes() == v_bytes


# ---------------------------------------------------------------------------
# FFT fallback chain
# ---------------------------------------------------------------------------
class TestFftFallback:
    @pytest.mark.skipif(
        not fft_backend_available("scipy"),
        reason="needs a scipy FFT backend to demote away from",
    )
    def test_runtime_failure_degrades_bit_identical(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords, fft_backend="scipy")
        ref_plan = NufftPlan((16, 16), coords, fft_backend="numpy")
        values = np.exp(1j * np.linspace(0, 2, coords.shape[0]))
        ref = ref_plan.adjoint(values)
        with inject_faults(seed=0, fft_errors={"scipy": 1}) as inj:
            out = plan.adjoint(values)
        assert ("fft:scipy", "raise") in inj.log
        assert plan.timings.fft_fallbacks  # demotion recorded
        assert plan.timings.fft_backend != "scipy"  # sticky demotion
        # the retried transform ran on a reference backend: same bits
        # as a numpy-only plan when the chain landed on numpy
        if plan.timings.fft_backend == "numpy":
            assert np.array_equal(out, ref)
        assert np.isfinite(out).all()

    def test_exhausted_chain_raises_backend_failure_and_pool_balanced(self):
        coords = radial_trajectory(16, 32)
        chain = FallbackFftBackend("numpy")
        assert chain.chain == ("numpy",)  # the floor demotes nowhere
        plan = NufftPlan((16, 16), coords, fft_backend=chain)
        values = np.ones(coords.shape[0], dtype=complex)
        with inject_faults(seed=0, fft_errors={"numpy": 1}):
            with pytest.raises(BackendFailure):
                plan.adjoint(values)
        # the pooled grid buffer was released on the failure path
        assert plan.buffer_pool.outstanding == 0
        # and the plan still works once the fault budget is exhausted
        ref = NufftPlan((16, 16), coords, fft_backend="numpy").adjoint(values)
        assert np.array_equal(plan.adjoint(values), ref)

    @pytest.mark.parametrize("start,chain", [
        ("pyfftw", ("pyfftw", "scipy", "numpy")),
        ("scipy", ("scipy", "numpy")),
        ("numpy", ("numpy",)),
    ], ids=["pyfftw", "scipy", "numpy"])
    def test_one_demotion_order(self, monkeypatch, start, chain):
        """The runtime fallback steps down one order, strictly
        downward, whatever else is importable."""
        from repro.nufft import fft_backend as fb

        class StandInFftw(fb.NumpyFftBackend):
            name = "pyfftw"

        # pyfftw "importable": its probe passes, numpy.fft stands in
        monkeypatch.setattr(fb, "_probe_pyfftw", lambda: True)
        monkeypatch.setitem(fb._REGISTRY, "pyfftw", (StandInFftw, fb._probe_pyfftw))
        monkeypatch.delenv("REPRO_FFT_DISABLE", raising=False)
        if not fft_backend_available("scipy"):
            pytest.skip("needs a scipy FFT backend")
        assert fft_backend_available("pyfftw")
        fallback = FallbackFftBackend(start)
        assert fallback.chain == chain
        # every rung above the floor fails once: the transform walks
        # the whole chain and lands on numpy
        with inject_faults(seed=0, fft_errors={n: 1 for n in chain[:-1]}):
            fallback.fftn(np.ones((4, 4), dtype=complex))
        walked = (start,) + tuple(e.to_stage for e in fallback.events)
        assert walked == chain
        assert fallback.name == "numpy"

    def test_nested_fallback_rejected(self):
        inner = FallbackFftBackend("numpy")
        with pytest.raises(ValueError, match="nest|wrap"):
            FallbackFftBackend(inner)


# ---------------------------------------------------------------------------
# pooled-buffer leak regression
# ---------------------------------------------------------------------------
class TestPoolBalance:
    @pytest.mark.parametrize("name", ["slice_and_dice", "slice_and_dice_compiled"])
    def test_engine_exception_releases_dice(self, rng, name, monkeypatch):
        gridder = make_gridder(name, build_setup((16, 16)))
        gridder.buffer_pool = GridBufferPool()
        coords = rng.uniform(0, 16, size=(40, 2))
        values = rng.standard_normal(40) + 0j

        def boom(*args, **kwargs):
            raise RuntimeError("mid-call failure")

        # DiceLayout is a frozen dataclass: patch the class, not the
        # instance
        monkeypatch.setattr(type(gridder.layout), "dice_to_grid", boom)
        with pytest.raises(RuntimeError, match="mid-call"):
            gridder.grid(coords, values)
        assert gridder.buffer_pool.outstanding == 0

    def test_plan_quality_raise_keeps_pool_balanced(self, rng):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords, quality_policy="raise")
        bad = np.ones(coords.shape[0], dtype=complex)
        bad[4] = np.nan
        with pytest.raises(DataQualityError):
            plan.adjoint(bad)
        assert plan.buffer_pool.outstanding == 0
        # recovery: a clean call still works on the same plan
        assert np.isfinite(plan.adjoint(np.ones_like(bad))).all()


# ---------------------------------------------------------------------------
# NuFFT plan quality policies
# ---------------------------------------------------------------------------
class TestPlanQuality:
    def test_adjoint_policies(self):
        coords = radial_trajectory(16, 32)
        values = np.exp(1j * np.linspace(0, 3, coords.shape[0]))
        bad = values.copy()
        bad[7] = np.inf + 0j
        keep = np.ones(coords.shape[0], dtype=bool)
        keep[7] = False
        with pytest.raises(DataQualityError):
            NufftPlan((16, 16), coords, quality_policy="raise").adjoint(bad)
        zero_plan = NufftPlan((16, 16), coords, quality_policy="zero")
        out = zero_plan.adjoint(bad)
        assert np.isfinite(out).all()
        assert zero_plan.timings.quality is not None
        assert zero_plan.timings.quality.zeroed == 1
        # zeroing the bad sample == removing it from the sum
        masked = values.copy()
        masked[7] = 0
        ref = NufftPlan((16, 16), coords).adjoint(masked)
        assert np.array_equal(out, ref)

    def test_forward_gates_nan_image(self):
        coords = radial_trajectory(16, 32)
        image = np.ones((16, 16), dtype=complex)
        image[3, 4] = np.nan
        with pytest.raises(DataQualityError):
            NufftPlan((16, 16), coords, quality_policy="raise").forward(image)
        plan = NufftPlan((16, 16), coords, quality_policy="zero")
        out = plan.forward(image)
        assert np.isfinite(out).all()
        assert plan.timings.quality.zeroed >= 1
        fixed = image.copy()
        fixed[3, 4] = 0
        ref = NufftPlan((16, 16), coords).forward(fixed)
        assert np.array_equal(out, ref)


# ---------------------------------------------------------------------------
# Toeplitz normal-operator supervision
# ---------------------------------------------------------------------------
class TestToeplitzSupervision:
    def test_nan_weights_typed_error(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords)
        w = np.ones(coords.shape[0])
        w[0] = np.nan
        with pytest.raises(DataQualityError):
            ToeplitzNormalOperator(plan, weights=w)

    def test_health_check_passes_on_real_kernel(self):
        coords = radial_trajectory(16, 32)
        op = ToeplitzNormalOperator(NufftPlan((16, 16), coords))
        assert op.health_check()

    def test_health_check_fails_on_corrupt_kernel(self):
        coords = radial_trajectory(16, 32)
        op = ToeplitzNormalOperator(NufftPlan((16, 16), coords))
        op._kernel_fft = op._kernel_fft.copy()
        op._kernel_fft.flat[0] = np.nan
        assert not op.health_check()

    @pytest.mark.parametrize("error", [JobCancelled, DeadlineExceeded])
    def test_cancel_during_build_is_not_degraded(self, error):
        # a cancelled or expired token observed by the PSF build must
        # stop the job, not become a normal: toeplitz -> gridding event
        from repro.recon.cg import _supervised_toeplitz

        def build():
            raise error("token observed during the PSF build")

        with pytest.raises(error):
            _supervised_toeplitz(build)

    def test_psf_fault_falls_back_to_gridding_cg(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords)
        kspace = plan.forward(
            np.outer(np.hanning(16), np.hanning(16)).astype(complex)
        )
        ref = cg_reconstruction(plan, kspace, n_iterations=5, normal="gridding")
        with inject_faults(seed=0, toeplitz_psf_errors=1) as inj:
            res = cg_reconstruction(plan, kspace, n_iterations=5, normal="toeplitz")
        assert ("toeplitz:psf", "raise") in inj.log
        assert any(
            e.component == "normal" and e.to_stage == "gridding"
            for e in res.degradations
        )
        # the degraded solve is literally the gridding-normal solve
        assert np.array_equal(res.image, ref.image)
        assert res.residual_norms == ref.residual_norms
        # CG-SENSE shares the supervised build and the loop
        op = SenseOperator(plan, birdcage_maps(4, 16))
        coil_kspace = op.forward(np.outer(np.hanning(16), np.hanning(16)))
        ref = sense_reconstruction(op, coil_kspace, n_iterations=5)
        with inject_faults(seed=0, toeplitz_psf_errors=1) as inj:
            res = sense_reconstruction(
                op, coil_kspace, n_iterations=5, normal="toeplitz"
            )
        assert ("toeplitz:psf", "raise") in inj.log
        assert [e.to_stage for e in res.degradations] == ["gridding"]
        assert np.array_equal(res.image, ref.image)
        assert res.residual_norms == ref.residual_norms


# ---------------------------------------------------------------------------
# CG health guards
# ---------------------------------------------------------------------------
class TestCgGuards:
    def _problem(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords)
        image = np.outer(np.hanning(16), np.hanning(16)).astype(complex)
        return plan, plan.forward(image)

    def _solvers(self):
        """Each CG front end on a fresh plan: ``(name, plan, solve)``.

        A single solve and CG-SENSE both run the one CG loop on a batch
        of one, so both reach the plan through ``adjoint_batch``: call 1
        builds the RHS, call 2 is the first Gram application.
        """
        plan, kspace = self._problem()
        yield "cg", plan, lambda: cg_reconstruction(plan, kspace, n_iterations=8)
        plan, _ = self._problem()
        op = SenseOperator(plan, birdcage_maps(4, 16))
        coil_kspace = op.forward(np.outer(np.hanning(16), np.hanning(16)))
        yield "sense", plan, lambda: sense_reconstruction(
            op, coil_kspace, n_iterations=8
        )

    def test_transient_nan_gram_restarts_once(self, monkeypatch):
        # poison the image coming out of the adjoint — below the plan's
        # own sample-quality gate, exactly like a transient numerical
        # fault inside the operator.  Call 1 builds the RHS; call 2 is
        # the first Gram application inside the iteration loop.
        for name, plan, solve in self._solvers():
            real_adjoint = plan.adjoint_batch
            calls = {"n": 0}

            def flaky_adjoint(x):
                calls["n"] += 1
                if calls["n"] == 2:
                    return np.full(
                        (len(x),) + plan.image_shape, np.nan, dtype=complex
                    )
                return real_adjoint(x)

            monkeypatch.setattr(plan, "adjoint_batch", flaky_adjoint)
            res = solve()
            assert res.restarts == 1, name
            assert any(e.to_stage == "restart" for e in res.degradations), name
            assert np.isfinite(res.image).all(), name

    def test_persistent_nan_gram_is_solver_breakdown(self, monkeypatch):
        for name, plan, solve in self._solvers():
            real_adjoint = plan.adjoint_batch
            calls = {"n": 0}

            def broken_adjoint(x):
                calls["n"] += 1
                if calls["n"] >= 2:  # RHS is fine; every Gram apply is NaN
                    return np.full(
                        (len(x),) + plan.image_shape, np.nan, dtype=complex
                    )
                return real_adjoint(x)

            monkeypatch.setattr(plan, "adjoint_batch", broken_adjoint)
            with pytest.raises(SolverBreakdown):
                solve()
            assert calls["n"] >= 3, name  # RHS, Gram, restart

    def test_nan_rhs_is_solver_breakdown(self):
        plan, kspace = self._problem()
        bad = kspace.copy()
        bad[0] = np.nan
        # default plan policy raises at the gate before CG even starts
        with pytest.raises((SolverBreakdown, DataQualityError)):
            cg_reconstruction(plan, bad, n_iterations=4)

    def test_healthy_solve_has_no_health_flags(self):
        plan, kspace = self._problem()
        res = cg_reconstruction(plan, kspace, n_iterations=8)
        assert res.restarts == 0
        assert res.breakdown is None
        assert res.degradations == ()
        assert np.isfinite(res.image).all()

    def test_batched_restart(self, monkeypatch):
        plan, kspace = self._problem()
        stack = np.stack([kspace, 0.5 * kspace])
        real = plan.adjoint_batch
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 2:  # first Gram apply of the loop
                return np.full((2,) + plan.image_shape, np.nan, dtype=complex)
            return real(x)

        monkeypatch.setattr(plan, "adjoint_batch", flaky)
        res = cg_reconstruction(plan, stack, n_iterations=8)
        assert res.restarts == 1
        assert np.isfinite(res.image).all()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------
class TestReports:
    def test_quality_report_accumulate(self):
        a = DataQualityReport(policy="drop", n_samples=5, dropped=1)
        b = DataQualityReport(policy="drop", n_samples=3, dropped=2, wrapped=1)
        a.accumulate(b)
        assert a.n_samples == 8 and a.dropped == 3 and a.wrapped == 1
        assert not a.clean

    def test_timings_surface_quality_and_fallbacks(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords)
        plan.adjoint(np.ones(coords.shape[0], dtype=complex))
        t = plan.timings
        assert t.quality is not None and t.quality.clean
        assert t.fft_fallbacks == ()
