"""Toeplitz normal operator: equivalence, Hermitian-PSD, CG agreement.

Two accuracy regimes are tested deliberately:

- ``psf="nudft"`` builds the kernel from the *exact* discrete sum, so
  the Toeplitz operator IS the NuDFT Gram ``A^H W A`` up to FFT
  roundoff — equivalence is asserted at ``rtol=1e-6`` (it holds to
  ~1e-12) against the explicit NuDFT normal operator, across
  trajectory families and dimensions.
- ``psf="nufft"`` (the production default) matches the explicit NuFFT
  Gram only to the plan's own approximation error (table-limited,
  ~1e-3 relative at default settings); those tests use tolerances tied
  to the plan accuracy.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.mri import SenseOperator, birdcage_maps, sense_reconstruction
from repro.nudft import NudftOperator
from repro.nufft import NufftPlan, ToeplitzNormalOperator
from repro.recon import cg_reconstruction
from repro.trajectories import (
    radial_trajectory,
    random_trajectory,
    spiral_trajectory,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _rand_image(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


TRAJECTORIES = [
    ("radial-2d", radial_trajectory(16, 32), (16, 16)),
    ("spiral-2d", spiral_trajectory(3, 240), (16, 16)),
    ("random-2d", random_trajectory(300, 2, rng=7), (16, 16)),
    ("random-3d", random_trajectory(200, 3, rng=8), (8, 8, 8)),
]

#: odd, rectangular and odd 3-D images: the PSF's 2^d lag blocks must
#: tile the 2N embedding for every parity of N
ODD_SHAPES = [
    ("radial-15x17", radial_trajectory(20, 34), (15, 17)),
    ("random-9x12", random_trajectory(250, 2, rng=12), (9, 12)),
    ("random-7x9x11", random_trajectory(400, 3, rng=13), (7, 9, 11)),
]


class TestExactEquivalence:
    """psf="nudft": the operator equals the explicit NuDFT Gram."""

    @pytest.mark.parametrize(
        "label,coords,shape",
        TRAJECTORIES + ODD_SHAPES,
        ids=[t[0] for t in TRAJECTORIES + ODD_SHAPES],
    )
    def test_matches_explicit_normal(self, label, coords, shape):
        plan = NufftPlan(shape, coords)
        rng = np.random.default_rng(1)
        w = 0.5 + rng.random(coords.shape[0])
        gram = ToeplitzNormalOperator(plan, weights=w, psf="nudft")
        oracle = NudftOperator(coords, shape)
        x = _rand_image(shape, seed=2)
        explicit = oracle.adjoint(w * oracle.forward(x))
        result = gram.apply(x)
        scale = np.max(np.abs(explicit))
        np.testing.assert_allclose(
            result, explicit, rtol=1e-6, atol=1e-9 * scale
        )

    def test_unweighted_defaults_to_ones(self):
        coords = radial_trajectory(12, 24)
        plan = NufftPlan((16, 16), coords)
        gram = ToeplitzNormalOperator(plan, psf="nudft")
        oracle = NudftOperator(coords, (16, 16))
        x = _rand_image((16, 16), seed=3)
        explicit = oracle.adjoint(oracle.forward(x))
        scale = np.max(np.abs(explicit))
        np.testing.assert_allclose(
            gram.apply(x), explicit, rtol=1e-6, atol=1e-9 * scale
        )

    def test_batched_matches_loop(self):
        # every batch row equals the single apply, bit for bit, in each
        # precision lane and rank
        for precision in ("double", "single"):
            for shape, m in (((16, 16), 250), ((8, 8, 8), 200)):
                coords = random_trajectory(m, len(shape), rng=9)
                plan = NufftPlan(shape, coords, precision=precision)
                gram = ToeplitzNormalOperator(plan, psf="nudft")
                stack = np.stack([_rand_image(shape, seed=s) for s in range(4)])
                batched = gram.apply_batch(stack)
                assert batched.shape == stack.shape
                for k in range(4):
                    assert np.array_equal(batched[k], gram.apply(stack[k])), (
                        precision, shape, k,
                    )

    def test_stacked_input_routes_to_batch(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        gram = ToeplitzNormalOperator(plan, psf="nudft")
        stack = np.stack([_rand_image((16, 16), seed=5)] * 2)
        assert gram.apply(stack).shape == stack.shape


class TestNufftPsfConsistency:
    """psf="nufft": agreement with the explicit NuFFT Gram at plan accuracy."""

    @pytest.mark.parametrize(
        "label,coords,shape",
        TRAJECTORIES + ODD_SHAPES,
        ids=[t[0] for t in TRAJECTORIES + ODD_SHAPES],
    )
    def test_close_to_explicit_gram(self, label, coords, shape):
        plan = NufftPlan(shape, coords)
        rng = np.random.default_rng(4)
        w = 0.5 + rng.random(coords.shape[0])
        gram = ToeplitzNormalOperator(plan, weights=w)
        x = _rand_image(shape, seed=6)
        explicit = plan.adjoint(w * plan.forward(x))
        scale = np.max(np.abs(explicit))
        # both sides carry the plan's independent O(1e-3) table-limited
        # approximation error; the bound is a regression guard
        np.testing.assert_allclose(
            gram.apply(x), explicit, atol=5e-3 * scale
        )

    def test_accuracy_improves_with_table_oversampling(self):
        coords = radial_trajectory(16, 32)
        x = _rand_image((16, 16), seed=7)
        errs = []
        for table in (512, 8192):
            plan = NufftPlan((16, 16), coords, table_oversampling=table)
            gram = ToeplitzNormalOperator(plan)
            explicit = plan.adjoint(plan.forward(x))
            errs.append(np.max(np.abs(gram.apply(x) - explicit)))
        assert errs[1] < errs[0]

    def test_rejects_bad_psf_and_shapes(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        with pytest.raises(ValueError, match="psf"):
            ToeplitzNormalOperator(plan, psf="magic")
        with pytest.raises(ValueError, match="weights"):
            ToeplitzNormalOperator(plan, weights=np.ones(3))
        gram = ToeplitzNormalOperator(plan)
        with pytest.raises(ValueError, match="image shape"):
            gram.apply(np.ones((8, 8), dtype=complex))


class TestPsfOnThePlan:
    def test_build_reuses_the_warm_compiled_plan(self, monkeypatch):
        # the PSF blocks are adjoints on the caller's plan: no second
        # plan is constructed, and a warm compiled engine serves every
        # block from its cached scatter plan (no select pass)
        coords = radial_trajectory(24, 48)
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled")
        plan.adjoint(np.ones(coords.shape[0], dtype=complex))
        constructed = []
        init = NufftPlan.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NufftPlan, "__init__", counting_init)
        gram = ToeplitzNormalOperator(plan)
        assert constructed == []
        assert plan.gridder.stats.boundary_checks == 0
        assert gram.health_check()

    def test_a_plan_with_a_bound_operator_is_freed_by_refcount(self):
        # the plan holds its operator and the operator holds no
        # reference back, so dropping a cached plan frees it at once
        # instead of waiting for the cyclic garbage collector
        plan = NufftPlan((16, 16), radial_trajectory(8, 16))
        plan.toeplitz()
        ref = weakref.ref(plan)
        gc.disable()
        try:
            del plan
            assert ref() is None
        finally:
            gc.enable()


class TestHermitianPsd:
    def test_exactly_hermitian_by_construction(self):
        coords = random_trajectory(200, 2, rng=11)
        plan = NufftPlan((16, 16), coords)
        gram = ToeplitzNormalOperator(plan)
        x = _rand_image((16, 16), seed=8)
        y = _rand_image((16, 16), seed=9)
        lhs = np.vdot(y, gram.apply(x))
        rhs = np.vdot(gram.apply(y), x)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_kernel_spectrum_is_real_when_hermitian(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        gram = ToeplitzNormalOperator(plan)
        assert not np.iscomplexobj(gram._kernel_fft)

    if HAVE_HYPOTHESIS:

        @settings(max_examples=20, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=10_000),
            m=st.integers(min_value=5, max_value=40),
        )
        def test_quadratic_form_nonnegative(self, seed, m):
            # with the exact PSF the operator is the NuDFT Gram
            # A^H W A: Hermitian PSD, so x^H T x is real and >= 0
            rng = np.random.default_rng(seed)
            coords = rng.uniform(-0.5, 0.5, size=(m, 2))
            w = rng.random(m)  # nonnegative weights
            plan = NufftPlan((8, 8), coords)
            gram = ToeplitzNormalOperator(plan, weights=w, psf="nudft")
            x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            tx = gram.apply(x)
            quad = np.vdot(x, tx)
            scale = max(np.vdot(x, x).real * m, 1.0)
            assert abs(quad.imag) <= 1e-9 * scale
            assert quad.real >= -1e-9 * scale


class TestCgIntegration:
    def test_normal_kwarg_validation(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        v = np.ones(coords.shape[0], dtype=complex)
        with pytest.raises(ValueError, match="normal"):
            cg_reconstruction(plan, v, normal="magic")

    def test_cg_images_agree_across_normal_operators(self):
        # high-accuracy plan so the two normal operators differ by much
        # less than the reconstruction scale
        coords = radial_trajectory(24, 48)
        plan = NufftPlan((32, 32), coords, table_oversampling=8192)
        truth = _rand_image((32, 32), seed=11)
        kspace = plan.forward(truth)
        w = np.ones(coords.shape[0])
        grid = cg_reconstruction(plan, kspace, w, n_iterations=12, tolerance=1e-12)
        toep = cg_reconstruction(
            plan, kspace, w, n_iterations=12, tolerance=1e-12, normal="toeplitz"
        )
        scale = np.max(np.abs(grid.image))
        assert np.max(np.abs(grid.image - toep.image)) <= 2e-3 * scale

    def test_cg_toeplitz_converges(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords)
        kspace = plan.forward(_rand_image((16, 16), seed=12))
        result = cg_reconstruction(plan, kspace, n_iterations=30, normal="toeplitz")
        assert result.residual_norms[-1] < result.residual_norms[0]

    def test_batched_cg_toeplitz_matches_single(self):
        coords = radial_trajectory(12, 24)
        plan = NufftPlan((16, 16), coords)
        k1 = plan.forward(_rand_image((16, 16), seed=13))
        k2 = plan.forward(_rand_image((16, 16), seed=14))
        stacked = cg_reconstruction(
            plan, np.stack([k1, k2]), n_iterations=6, normal="toeplitz"
        )
        for k, kspace in enumerate((k1, k2)):
            single = cg_reconstruction(
                plan, kspace, n_iterations=6, normal="toeplitz"
            )
            assert np.array_equal(stacked.image[k], single.image)

    def test_repeated_cg_builds_the_psf_once(self, monkeypatch):
        coords = radial_trajectory(12, 24)
        plan = NufftPlan((16, 16), coords)
        kspace = plan.forward(_rand_image((16, 16), seed=15))
        w = np.linspace(0.5, 1.5, coords.shape[0])
        builds = []
        build = ToeplitzNormalOperator._build_kernel

        def counting_build(self, *args):
            builds.append(1)
            return build(self, *args)

        monkeypatch.setattr(ToeplitzNormalOperator, "_build_kernel", counting_build)
        first = cg_reconstruction(plan, kspace, w, n_iterations=5, normal="toeplitz")
        gram = plan.toeplitz_binding.product
        again = cg_reconstruction(plan, kspace, w, n_iterations=5, normal="toeplitz")
        assert builds == [1]
        assert plan.toeplitz_binding.product is gram
        assert np.array_equal(first.image, again.image)

    def test_new_or_edited_weights_rebuild(self):
        coords = radial_trajectory(12, 24)
        plan = NufftPlan((16, 16), coords)
        kspace = plan.forward(_rand_image((16, 16), seed=19))
        w = np.linspace(0.5, 1.5, coords.shape[0])
        cg_reconstruction(plan, kspace, w, n_iterations=3, normal="toeplitz")
        first = plan.toeplitz_binding.product
        cg_reconstruction(plan, kspace, 2 * w, n_iterations=3, normal="toeplitz")
        second = plan.toeplitz_binding.product
        assert second is not first
        # an in-place edit of the weights the operator was built from
        w2 = 2 * w
        cg_reconstruction(plan, kspace, w2, n_iterations=3, normal="toeplitz")
        assert plan.toeplitz_binding.product is second
        w2[7] = 9.0
        edited = cg_reconstruction(plan, kspace, w2, n_iterations=3, normal="toeplitz")
        assert plan.toeplitz_binding.product is not second
        fresh = cg_reconstruction(
            NufftPlan((16, 16), coords), kspace, w2, n_iterations=3, normal="toeplitz"
        )
        assert np.array_equal(edited.image, fresh.image)

    def test_none_and_unit_weights_share_one_operator(self):
        coords = radial_trajectory(12, 24)
        plan = NufftPlan((16, 16), coords)
        kspace = plan.forward(_rand_image((16, 16), seed=20))
        unweighted = cg_reconstruction(plan, kspace, n_iterations=3, normal="toeplitz")
        gram = plan.toeplitz_binding.product
        ones = np.ones(coords.shape[0])
        unit = cg_reconstruction(plan, kspace, ones, n_iterations=3, normal="toeplitz")
        assert plan.toeplitz_binding.product is gram
        assert plan.toeplitz() is gram and plan.toeplitz(ones) is gram
        assert np.array_equal(unweighted.image, unit.image)

    def test_cg_and_cg_sense_share_one_operator(self):
        coords = radial_trajectory(12, 24)
        plan = NufftPlan((16, 16), coords)
        op = SenseOperator(plan, birdcage_maps(2, 16))
        w = np.linspace(0.5, 1.5, coords.shape[0])
        kspace = op.forward(_rand_image((16, 16), seed=21))
        cg_reconstruction(plan, kspace[0], w, n_iterations=3, normal="toeplitz")
        gram = plan.toeplitz_binding.product
        sense_reconstruction(op, kspace, w, n_iterations=3, normal="toeplitz")
        assert plan.toeplitz_binding.product is gram
        # unit weights: SENSE passes None, CG passes ones
        sense_reconstruction(op, kspace, n_iterations=3, normal="toeplitz")
        unit = plan.toeplitz_binding.product
        assert unit is not gram
        cg_reconstruction(plan, kspace[0], n_iterations=3, normal="toeplitz")
        assert plan.toeplitz_binding.product is unit


class TestSenseToeplitz:
    def test_normal_methods_agree(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords, table_oversampling=8192)
        op = SenseOperator(plan, birdcage_maps(4, 16))
        x = _rand_image((16, 16), seed=16)
        w = np.ones(coords.shape[0])
        grid = op.normal(x, weights=w, method="gridding")
        toep = op.normal(x, weights=w, method="toeplitz")
        scale = np.max(np.abs(grid))
        assert np.max(np.abs(grid - toep)) <= 1e-3 * scale

    def test_method_validation(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        op = SenseOperator(plan, birdcage_maps(2, 16))
        with pytest.raises(ValueError, match="method"):
            op.normal(_rand_image((16, 16)), method="magic")

    def test_toeplitz_operator_cached_per_weights(self):
        coords = radial_trajectory(8, 16)
        plan = NufftPlan((16, 16), coords)
        op = SenseOperator(plan, birdcage_maps(2, 16))
        x = _rand_image((16, 16), seed=17)
        w = np.ones(coords.shape[0])
        binding = plan.toeplitz_binding
        op.normal(x, weights=w, method="toeplitz")
        first = binding.product
        op.normal(2 * x, weights=w, method="toeplitz")
        assert binding.product is first
        op.normal(x, weights=2 * w, method="toeplitz")
        assert binding.product is not first
        # an in-place edit of the bound weights is caught too
        second = binding.product
        w2 = 2 * w
        op.normal(x, weights=w2, method="toeplitz")
        assert binding.product is second
        w2[5] = 7.0
        op.normal(x, weights=w2, method="toeplitz")
        assert binding.product is not second

    def test_sense_reconstruction_toeplitz(self):
        coords = radial_trajectory(16, 32)
        plan = NufftPlan((16, 16), coords, table_oversampling=8192)
        maps = birdcage_maps(4, 16)
        op = SenseOperator(plan, maps)
        truth = _rand_image((16, 16), seed=18)
        kspace = op.forward(truth)
        grid = sense_reconstruction(op, kspace, n_iterations=8)
        toep = sense_reconstruction(op, kspace, n_iterations=8, normal="toeplitz")
        scale = np.max(np.abs(grid.image))
        assert np.max(np.abs(grid.image - toep.image)) <= 2e-3 * scale
        with pytest.raises(ValueError, match="normal"):
            sense_reconstruction(op, kspace, normal="magic")
