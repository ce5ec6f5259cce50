"""Unit tests for metrics and reconstruction."""

import numpy as np
import pytest

from repro.nufft import NufftPlan
from repro.phantoms import shepp_logan_2d, liver_like_phantom
from repro.recon import (
    adjoint_reconstruction,
    cg_reconstruction,
    nrmsd,
    nrmsd_percent,
    psnr,
    rel_l2_error,
)
from repro.trajectories import golden_angle_radial, radial_trajectory


class TestMetrics:
    def test_nrmsd_zero_for_identical(self):
        img = shepp_logan_2d(32)
        assert nrmsd(img, img) == 0.0

    def test_nrmsd_known_value(self):
        ref = np.zeros((4, 4))
        ref[0, 0] = 1.0  # span = 1
        out = ref.copy()
        out[1, 1] = 0.4
        assert nrmsd(out, ref) == pytest.approx(0.1)

    def test_nrmsd_percent(self):
        ref = np.zeros((4, 4))
        ref[0, 0] = 1.0
        out = ref.copy()
        out[1, 1] = 0.4
        assert nrmsd_percent(out, ref) == pytest.approx(10.0)

    def test_nrmsd_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            nrmsd(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_nrmsd_flat_reference(self):
        with pytest.raises(ValueError, match="dynamic range"):
            nrmsd(np.ones((2, 2)), np.ones((2, 2)))

    def test_rel_l2(self):
        a = np.asarray([3.0, 4.0])
        assert rel_l2_error(a * 1.1, a) == pytest.approx(0.1)

    def test_rel_l2_zero_reference(self):
        with pytest.raises(ValueError, match="zero"):
            rel_l2_error(np.ones(3), np.zeros(3))

    def test_psnr_identical_infinite(self):
        img = shepp_logan_2d(16)
        assert psnr(img, img) == float("inf")

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        img = shepp_logan_2d(32)
        small = psnr(img + 0.01 * rng.standard_normal(img.shape), img)
        large = psnr(img + 0.1 * rng.standard_normal(img.shape), img)
        assert small > large

    def test_psnr_magnitude_based(self):
        img = shepp_logan_2d(16) + 0.1
        assert psnr(img * np.exp(1j * 0.3), img) > 100  # phase ignored


@pytest.fixture(scope="module")
def radial_problem():
    n = 48
    phantom = liver_like_phantom(n, rng=0).astype(complex)
    coords = golden_angle_radial(int(n * 1.6), 2 * n)
    plan = NufftPlan((n, n), coords, width=6)
    kspace = plan.forward(phantom)
    return plan, phantom, kspace


class TestAdjointRecon:
    def test_recovers_structure(self, radial_problem):
        plan, phantom, kspace = radial_problem
        rec = adjoint_reconstruction(plan, kspace, density="pipe_menon")
        # normalize scale before comparing
        scale = np.vdot(rec, phantom) / np.vdot(rec, rec)
        assert rel_l2_error(rec * scale, phantom) < 0.35

    def test_ramp_close_to_pipe_menon_for_radial(self, radial_problem):
        plan, phantom, kspace = radial_problem
        a = adjoint_reconstruction(plan, kspace, density="ramp")
        b = adjoint_reconstruction(plan, kspace, density="pipe_menon")
        sa = np.vdot(a, phantom) / np.vdot(a, a)
        sb = np.vdot(b, phantom) / np.vdot(b, b)
        assert abs(
            rel_l2_error(a * sa, phantom) - rel_l2_error(b * sb, phantom)
        ) < 0.12

    def test_density_none_blurs_more(self, radial_problem):
        plan, phantom, kspace = radial_problem
        comp = adjoint_reconstruction(plan, kspace, density="ramp")
        blur = adjoint_reconstruction(plan, kspace, density="none")
        s1 = np.vdot(comp, phantom) / np.vdot(comp, comp)
        s2 = np.vdot(blur, phantom) / np.vdot(blur, blur)
        assert rel_l2_error(comp * s1, phantom) < rel_l2_error(blur * s2, phantom)

    def test_explicit_weights(self, radial_problem):
        plan, _, kspace = radial_problem
        w = np.ones(plan.n_samples)
        rec = adjoint_reconstruction(plan, kspace, density=w)
        ref = adjoint_reconstruction(plan, kspace, density="none")
        np.testing.assert_allclose(rec, ref, rtol=1e-10)

    def test_bad_density_name(self, radial_problem):
        plan, _, kspace = radial_problem
        with pytest.raises(ValueError, match="density"):
            adjoint_reconstruction(plan, kspace, density="voronoi")

    def test_kspace_count_mismatch(self, radial_problem):
        plan, _, _ = radial_problem
        with pytest.raises(ValueError, match="k-space"):
            adjoint_reconstruction(plan, np.zeros(3, dtype=complex))

    def test_weight_count_mismatch(self, radial_problem):
        plan, _, kspace = radial_problem
        with pytest.raises(ValueError, match="weights"):
            adjoint_reconstruction(plan, kspace, density=np.ones(3))


class TestCgRecon:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_dot_real_matches_vdot(self, dtype):
        """CG's BLAS-free per-system ``Re <a_k, b_k>`` is ``np.vdot``'s
        on each row, summed in float64 at both precisions: to a float64
        rounding tolerance (the sum order differs from BLAS), and at
        complex64 to the rounding of its float32 products.  A row of a
        stack reduces exactly as that row alone."""
        from repro.recon.cg import _dot_real

        rng = np.random.default_rng(5)
        a, b = (
            (rng.standard_normal((3, 64, 48)) + 1j * rng.standard_normal((3, 64, 48)))
            .astype(dtype)
            for _ in range(2)
        )
        dots = _dot_real(a, b)
        assert dots.dtype == np.float64 and dots.shape == (3,)
        rel = 1e-12 if dtype == np.complex128 else 1e-6
        for k in range(3):
            want = np.vdot(
                a[k].astype(np.complex128), b[k].astype(np.complex128)
            ).real
            assert dots[k] == pytest.approx(want, rel=rel)
            assert dots[k] == _dot_real(a[k : k + 1], b[k : k + 1])[0]

    def test_beats_adjoint(self, radial_problem):
        plan, phantom, kspace = radial_problem
        adj = adjoint_reconstruction(plan, kspace, density="ramp")
        s = np.vdot(adj, phantom) / np.vdot(adj, adj)
        cg = cg_reconstruction(plan, kspace, n_iterations=15)
        assert rel_l2_error(cg.image, phantom) < rel_l2_error(adj * s, phantom)

    def test_residuals_decrease(self, radial_problem):
        plan, _, kspace = radial_problem
        res = cg_reconstruction(plan, kspace, n_iterations=8)
        r = res.residual_norms
        assert r[-1] < r[0]
        assert res.n_iterations == 8 or res.converged

    def test_toeplitz_matches_direct(self, radial_problem):
        plan, _, kspace = radial_problem
        direct = cg_reconstruction(plan, kspace, n_iterations=6)
        fast = cg_reconstruction(plan, kspace, n_iterations=6, normal="toeplitz")
        assert rel_l2_error(fast.image, direct.image) < 0.02

    def test_regularization_shrinks_solution(self, radial_problem):
        plan, _, kspace = radial_problem
        free = cg_reconstruction(plan, kspace, n_iterations=8)
        reg = cg_reconstruction(plan, kspace, n_iterations=8,
                                regularization=plan.n_samples * 10.0)
        assert np.linalg.norm(reg.image) < np.linalg.norm(free.image)

    def test_weighted_cg_converges_faster(self, radial_problem):
        """Density weights precondition the radial normal equations."""
        plan, phantom, kspace = radial_problem
        from repro.trajectories import ramp_density_compensation

        w = ramp_density_compensation(plan.coords)
        plain = cg_reconstruction(plan, kspace, n_iterations=4)
        weighted = cg_reconstruction(plan, kspace, weights=w, n_iterations=4)
        assert rel_l2_error(weighted.image, phantom) < rel_l2_error(
            plain.image, phantom
        )

    def test_zero_data_returns_zero(self, radial_problem):
        plan, _, _ = radial_problem
        res = cg_reconstruction(plan, np.zeros(plan.n_samples, dtype=complex))
        assert res.converged
        assert np.all(res.image == 0)

    def test_batched_matches_per_rhs(self, radial_problem):
        """Stacked (K, M) right-hand sides iterate in lock step through
        the batched NuFFT path and are bit-identical to K independent
        solves (a single solve is the same loop on a batch of one)."""
        plan, _, kspace = radial_problem
        rng = np.random.default_rng(3)
        stack = np.stack(
            [kspace, 0.5 * kspace,
             kspace + 0.01 * (rng.standard_normal(kspace.shape)
                              + 1j * rng.standard_normal(kspace.shape))]
        )
        batched = cg_reconstruction(plan, stack, n_iterations=6)
        assert batched.image.shape == (3,) + plan.image_shape
        for k in range(3):
            single = cg_reconstruction(plan, stack[k], n_iterations=6)
            assert np.array_equal(batched.image[k], single.image)

    def test_batched_zero_rhs_frozen(self, radial_problem):
        """An all-zero RHS in the stack stays exactly zero while the
        other systems iterate."""
        plan, _, kspace = radial_problem
        stack = np.stack([kspace, np.zeros_like(kspace)])
        res = cg_reconstruction(plan, stack, n_iterations=4)
        assert np.all(res.image[1] == 0)
        assert np.any(res.image[0] != 0)

    def test_validation(self, radial_problem):
        plan, _, kspace = radial_problem
        with pytest.raises(ValueError, match="n_iterations"):
            cg_reconstruction(plan, kspace, n_iterations=0)
        with pytest.raises(ValueError, match="tolerance"):
            cg_reconstruction(plan, kspace, tolerance=0)
        with pytest.raises(ValueError, match="regularization"):
            cg_reconstruction(plan, kspace, regularization=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            cg_reconstruction(plan, kspace, weights=-np.ones(plan.n_samples))
        with pytest.raises(ValueError, match="samples"):
            cg_reconstruction(plan, np.zeros(3, dtype=complex))
