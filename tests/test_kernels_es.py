"""Exponential-of-semicircle window: properties, accuracy, adjointness.

The ES window phi(u) = exp(beta * (sqrt(1 - (2u/W)^2) - 1)) (Barnett
et al., the FINUFFT kernel) is cheaper to evaluate than Kaiser-Bessel
(one exp, no Bessel function) and matches its accuracy from W = 5 up.
This suite pins three claims the docs make:

- window-function contract (normalization, support, Fourier transform
  via the cached Gauss-Legendre quadrature);
- NuFFT accuracy vs the exact NuDFT across widths, 2D and 3D, both
  directions, including ES at W-1 staying within NRMSD <= 1e-3 of the
  KB baseline image;
- gridding with an ES LUT stays an exact adjoint pair (hypothesis).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jit import jit_available
from repro.kernels import (
    ExponentialSemicircleKernel,
    KaiserBesselKernel,
    KernelLUT,
    es_beta,
    make_kernel,
)
from repro.gridding import GriddingSetup, make_gridder
from repro.nudft import nudft_adjoint, nudft_forward
from repro.nufft import NufftPlan, ToeplitzNormalOperator
from repro.trajectories import random_trajectory
from tests.conftest import interpret_jit_kernels


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ----------------------------------------------------------------------
# window-function contract
# ----------------------------------------------------------------------
class TestESWindow:
    @pytest.fixture
    def kernel(self):
        return ExponentialSemicircleKernel(width=6, beta=es_beta(6))

    def test_short_name_and_alias(self, kernel):
        assert kernel.short_name == "es"
        for name in ("es", "exp_semicircle"):
            k = make_kernel(name, 6)
            assert isinstance(k, ExponentialSemicircleKernel)
            assert k.beta == pytest.approx(es_beta(6))

    def test_explicit_beta_wins(self):
        assert make_kernel("es", 6, beta=9.5).beta == 9.5

    def test_sigma_shapes_beta(self):
        """Lower oversampling needs a narrower mainlobe (smaller beta)."""
        assert es_beta(6, sigma=1.25) < es_beta(6, sigma=2.0)
        k = make_kernel("es", 6, sigma=1.25)
        assert k.beta == pytest.approx(es_beta(6, 1.25))

    def test_peak_normalized(self, kernel):
        assert kernel.is_normalized()
        assert kernel(0.0) == pytest.approx(1.0)

    def test_even_symmetry(self, kernel):
        u = np.linspace(0.01, kernel.half_width * 0.99, 25)
        np.testing.assert_allclose(kernel(u), kernel(-u), rtol=1e-12)

    def test_compact_support(self, kernel):
        assert kernel(kernel.half_width + 1e-9) == 0.0
        assert kernel(-kernel.half_width - 2.0) == 0.0
        # and, unlike KB, the edge value is exp(-beta), not 0
        assert kernel(kernel.half_width * (1 - 1e-12)) == pytest.approx(
            np.exp(-kernel.beta), rel=1e-4
        )

    def test_monotone_from_center(self, kernel):
        vals = np.asarray(kernel(np.linspace(0.0, kernel.half_width, 50)))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_fourier_matches_numeric_integral(self, kernel):
        """The Gauss-Legendre fourier() vs brute-force quadrature."""
        u = np.linspace(-kernel.half_width, kernel.half_width, 40001)
        du = u[1] - u[0]
        phi = np.asarray(kernel(u))
        for f in (0.0, 0.05, 0.13, 0.31):
            numeric = np.sum(phi * np.cos(2 * np.pi * f * u)) * du
            assert kernel.fourier(f) == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_fourier_vectorized(self, kernel):
        f = np.linspace(0.0, 0.4, 9)
        np.testing.assert_allclose(
            kernel.fourier(f), [kernel.fourier(x) for x in f], rtol=1e-12
        )

    def test_beta_width_table(self):
        """The sigma=2 defaults follow the Barnett calibration: roughly
        2.2 - 2.4 per unit width, wider windows slightly tighter."""
        for w in (2, 3, 4, 5, 6, 8):
            assert 2.0 * w <= es_beta(w) <= 2.5 * w
        assert es_beta(4) / 4 > es_beta(6) / 6 - 0.2


# ----------------------------------------------------------------------
# NuFFT accuracy vs the exact NuDFT
# ----------------------------------------------------------------------
#: measured adjoint NRMSD at table_oversampling default (floor ~7e-4),
#: asserted with ~2.5x headroom
_ES_ADJ_BOUND = {3: 3e-2, 4: 7e-3, 5: 1.8e-3, 6: 1.8e-3, 7: 1.8e-3}


class TestESAccuracy:
    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(7)
        coords = random_trajectory(400, 2, rng=8)
        vals = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        img = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        return coords, vals, img

    @pytest.mark.parametrize("width", [3, 4, 5, 6, 7])
    def test_adjoint_accuracy_per_width(self, problem, width):
        coords, vals, _ = problem
        ref = nudft_adjoint(vals, coords, (24, 24))
        err = rel_err(
            NufftPlan((24, 24), coords, width=width, kernel="es").adjoint(vals),
            ref,
        )
        assert err < _ES_ADJ_BOUND[width]

    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_es_tracks_kb_at_same_width(self, problem, width):
        """ES stays within a small factor of KB at every width (equal
        from W = 5 up; slightly behind at the narrow end)."""
        coords, vals, _ = problem
        ref = nudft_adjoint(vals, coords, (24, 24))
        e_kb = rel_err(
            NufftPlan((24, 24), coords, width=width, kernel="kb").adjoint(vals),
            ref,
        )
        e_es = rel_err(
            NufftPlan((24, 24), coords, width=width, kernel="es").adjoint(vals),
            ref,
        )
        assert e_es < 5 * e_kb
        if width >= 5:
            assert e_es < 1.5 * e_kb

    def test_reduced_width_within_clinical_nrmsd(self, problem):
        """The headline claim: ES at W-1 reconstructs within NRMSD
        1e-3 of the KB default-width baseline image."""
        coords, vals, _ = problem
        base = NufftPlan((24, 24), coords, width=6, kernel="kb").adjoint(vals)
        slim = NufftPlan((24, 24), coords, width=5, kernel="es").adjoint(vals)
        assert rel_err(slim, base) < 1e-3

    def test_forward_accuracy(self, problem):
        coords, _, img = problem
        ref = nudft_forward(img, coords)
        err = rel_err(
            NufftPlan((24, 24), coords, kernel="es").forward(img), ref
        )
        assert err < 1.8e-3

    def test_3d_adjoint_accuracy(self):
        rng = np.random.default_rng(3)
        coords = random_trajectory(200, 3, rng=9)
        vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        ref = nudft_adjoint(vals, coords, (12, 12, 12))
        err = rel_err(
            NufftPlan((12, 12, 12), coords, kernel="es").adjoint(vals), ref
        )
        assert err < 2.5e-3

    def test_toeplitz_with_es(self, problem):
        """The PSF pass reuses the plan's kernel, so Toeplitz A^H A
        tracks the direct composition for ES exactly as for KB."""
        coords, _, img = problem
        plan = NufftPlan((24, 24), coords, kernel="es")
        op = ToeplitzNormalOperator(plan)
        direct = plan.adjoint(plan.forward(img))
        assert rel_err(op(img), direct) < 2.5e-3

    def test_timings_report_kernel(self, problem):
        coords, vals, _ = problem
        plan = NufftPlan((24, 24), coords, kernel="es")
        plan.adjoint(vals)
        assert plan.timings.kernel == "es"
        assert plan.timings.exec_lane in (
            "numpy", "numba-serial", "numba-parallel"
        )
        plan_kb = NufftPlan((24, 24), coords)
        plan_kb.adjoint(vals)
        assert plan_kb.timings.kernel == "kb"

    def test_kernel_object_accepted(self, problem):
        """A pre-built kernel instance bypasses the string registry."""
        coords, vals, _ = problem
        k = ExponentialSemicircleKernel(width=5, beta=es_beta(5))
        a = NufftPlan((24, 24), coords, width=5, kernel=k).adjoint(vals)
        b = NufftPlan((24, 24), coords, width=5, kernel="es").adjoint(vals)
        np.testing.assert_allclose(a, b, rtol=1e-12)


# ----------------------------------------------------------------------
# gridding with an ES LUT is still an exact adjoint pair
# ----------------------------------------------------------------------
_ES_SETUPS = {
    2: GriddingSetup((16, 16), KernelLUT(make_kernel("es", 4), 32)),
    3: GriddingSetup((16, 16, 16), KernelLUT(make_kernel("es", 4), 32)),
}


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(None, id="slice_and_dice_compiled"),
        pytest.param("numba", id="slice_and_dice_compiled-numba"),
    ],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    ndim=st.sampled_from([2, 3]),
)
@settings(max_examples=20, deadline=None)
def test_es_grid_interp_adjoint(backend, seed, m, ndim):
    setup = _ES_SETUPS[ndim]
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, size=(m, ndim)) * np.asarray(setup.grid_shape)
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    grid = rng.standard_normal(setup.grid_shape) + 1j * rng.standard_normal(
        setup.grid_shape
    )
    with pytest.MonkeyPatch.context() as mp:
        if backend == "numba" and not jit_available():
            interpret_jit_kernels(mp)
        g = make_gridder("slice_and_dice_compiled", setup, backend=backend)
        lhs = complex(np.vdot(g.grid(coords, values), grid))
        rhs = complex(np.vdot(values, g.interp(grid, coords)))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)
    assert g.stats.kernel == "es"
    if backend == "numba":
        assert g.stats.exec_lane == "numba-serial"
