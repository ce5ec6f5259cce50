"""Unit tests for the Toeplitz Gram operator (Impatient's strategy)."""

import numpy as np
import pytest

from repro.nufft import NufftPlan, ToeplitzNormalOperator
from repro.trajectories import radial_trajectory, random_trajectory


@pytest.fixture
def plan():
    return NufftPlan((16, 16), random_trajectory(200, 2, rng=0), width=6,
                     table_oversampling=1024)


class TestToeplitzNormalOperator:
    def test_matches_forward_adjoint(self, plan, rng):
        gram = ToeplitzNormalOperator(plan)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        direct = plan.adjoint(plan.forward(x))
        embedded = gram.apply(x)
        assert np.linalg.norm(embedded - direct) / np.linalg.norm(direct) < 5e-3

    def test_weighted_gram(self, plan, rng):
        w = rng.uniform(0.5, 2.0, plan.n_samples)
        gram = ToeplitzNormalOperator(plan, weights=w)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        direct = plan.adjoint(w * plan.forward(x))
        embedded = gram.apply(x)
        assert np.linalg.norm(embedded - direct) / np.linalg.norm(direct) < 5e-3

    def test_linear(self, plan, rng):
        gram = ToeplitzNormalOperator(plan)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        np.testing.assert_allclose(
            gram.apply(a + 3j * b), gram.apply(a) + 3j * gram.apply(b), rtol=1e-10,
            atol=1e-10,
        )

    def test_hermitian(self, plan, rng):
        gram = ToeplitzNormalOperator(plan)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        lhs = np.vdot(y, gram.apply(x))
        rhs = np.vdot(gram.apply(y), x)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_callable_alias(self, plan, rng):
        gram = ToeplitzNormalOperator(plan)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        np.testing.assert_array_equal(gram(x), gram.apply(x))

    def test_shape_validation(self, plan):
        gram = ToeplitzNormalOperator(plan)
        with pytest.raises(ValueError, match="image shape"):
            gram.apply(np.zeros((8, 8), dtype=complex))

    def test_weight_count_validation(self, plan):
        with pytest.raises(ValueError, match="weights"):
            ToeplitzNormalOperator(plan, weights=np.ones(7))

    def test_radial_psf_structure(self):
        """For a radial trajectory the Gram of a delta is the PSF: peak
        at the delta's location."""
        plan = NufftPlan((16, 16), radial_trajectory(32, 32), width=6)
        gram = ToeplitzNormalOperator(plan)
        delta = np.zeros((16, 16), dtype=complex)
        delta[8, 8] = 1.0
        psf = np.abs(gram.apply(delta))
        assert np.unravel_index(np.argmax(psf), psf.shape) == (8, 8)
