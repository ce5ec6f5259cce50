"""SENSE: multi-coil non-Cartesian encoding and CG reconstruction.

The encoding model is ``y_c = A (S_c * x) + noise`` per coil ``c``,
with ``A`` the (forward) NuFFT over the shared trajectory and ``S_c``
the coil sensitivity.  CG-SENSE solves the regularized normal
equations

    (E^H E + lambda I) x = E^H y,
    E^H E x = sum_c conj(S_c) * A^H W A (S_c * x),

costing one forward+adjoint NuFFT pair *per coil per iteration* — the
"millions of NuFFTs" workload of the paper's §I, multiplied by the
coil count.  Any gridder backend (including the JIGSAW adapter) plugs
in through the shared plan.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverBreakdown
from ..nufft import NufftPlan
from ..recon.cg import (
    CgResult,
    _check_controls,
    _check_weights,
    _solve,
    _supervised_toeplitz,
)

__all__ = ["SenseOperator", "coil_combine_adjoint", "sense_reconstruction"]


class SenseOperator:
    """Multi-coil non-Cartesian encoding operator.

    Parameters
    ----------
    plan:
        Shared single-coil NuFFT plan (trajectory + gridder backend).
        Engine selection flows through here: with
        ``gridder="slice_and_dice_compiled"`` the very first transform
        compiles the trajectory's scatter plan and every subsequent
        coil pass and CG iteration reuses it with zero select work —
        the SENSE workload is exactly the compiled engine's payoff
        case, since all coils and iterations share one trajectory.
    maps:
        ``(C,) + image_shape`` complex coil sensitivities.

    Raises
    ------
    ValueError
        If ``maps`` is not ``(C,) + plan.image_shape``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mri import SenseOperator, birdcage_maps
    >>> from repro.nufft import NufftPlan
    >>> from repro.trajectories import radial_trajectory
    >>> coords = radial_trajectory(16, 32)
    >>> plan = NufftPlan((16, 16), coords, gridder="slice_and_dice_compiled")
    >>> op = SenseOperator(plan, birdcage_maps(4, 16))
    >>> op.forward(np.ones((16, 16), dtype=complex)).shape
    (4, 512)
    >>> _ = op.forward(np.ones((16, 16), dtype=complex))
    >>> plan.gridder.stats.cache_hits, plan.gridder.stats.boundary_checks
    (1, 0)
    """

    def __init__(self, plan: NufftPlan, maps: np.ndarray):
        self._cdtype = plan.cdtype
        maps = np.asarray(maps, dtype=self._cdtype)
        if maps.ndim != plan.ndim + 1 or tuple(maps.shape[1:]) != plan.image_shape:
            raise ValueError(
                f"maps must be (C,) + {plan.image_shape}, got {maps.shape}"
            )
        self.plan = plan
        self.maps = maps

    @property
    def n_coils(self) -> int:
        return self.maps.shape[0]

    @property
    def n_samples(self) -> int:
        return self.plan.n_samples

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Encode: image -> ``(C, M)`` multi-coil k-space.

        All coils share the trajectory, so the coil images are encoded
        through :meth:`NufftPlan.forward_batch` — one batched
        interpolation pass (and one select-table build, cached across
        calls) instead of ``C`` independent NuFFTs.
        """
        image = np.asarray(image, dtype=self._cdtype)
        if tuple(image.shape) != self.plan.image_shape:
            raise ValueError(
                f"image shape {image.shape} != plan {self.plan.image_shape}"
            )
        return self.plan.forward_batch(self.maps * image[None, ...])

    def adjoint(self, kspace: np.ndarray) -> np.ndarray:
        """Exact adjoint: ``(C, M)`` k-space -> coil-combined image.

        Uses the batched adjoint NuFFT (one multi-RHS gridding pass for
        all coils), then combines with conjugate sensitivities.
        """
        kspace = np.asarray(kspace, dtype=self._cdtype)
        if kspace.shape != (self.n_coils, self.n_samples):
            raise ValueError(
                f"kspace must be ({self.n_coils}, {self.n_samples}), got {kspace.shape}"
            )
        coil_images = self.plan.adjoint_batch(kspace)
        return np.sum(np.conj(self.maps) * coil_images, axis=0)

    def normal(
        self,
        image: np.ndarray,
        weights: np.ndarray | None = None,
        method: str = "gridding",
    ) -> np.ndarray:
        """Apply the Gram operator ``E^H W E`` (batched over coils).

        ``method="gridding"`` (default) runs a batched forward+adjoint
        NuFFT pair.  ``method="toeplitz"`` applies the plan's
        :class:`~repro.nufft.ToeplitzNormalOperator` per coil image in
        one batched FFT pair — no per-iteration gridding.  The operator
        is the one bound to the plan and ``weights``
        (:meth:`NufftPlan.toeplitz <repro.nufft.NufftPlan.toeplitz>`),
        shared with :func:`repro.recon.cg_reconstruction` on the same
        plan: its PSF (``2^d`` adjoints on the plan) is rebuilt only
        when ``weights`` change.
        """
        image = np.asarray(image, dtype=self._cdtype)
        if method == "toeplitz":
            gram = self.plan.toeplitz(weights)
            coil_images = gram.apply_batch(self.maps * image[None, ...])
            return np.sum(np.conj(self.maps) * coil_images, axis=0)
        if method != "gridding":
            raise ValueError(
                f"method must be 'gridding' or 'toeplitz', got {method!r}"
            )
        y = self.plan.forward_batch(self.maps * image[None, ...])
        if weights is not None:
            y = y * weights
        coil_images = self.plan.adjoint_batch(y)
        return np.sum(np.conj(self.maps) * coil_images, axis=0)


def coil_combine_adjoint(
    operator: SenseOperator,
    kspace: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Density-compensated adjoint ("gridding") multi-coil recon.

    The direct (non-iterative) reconstruction: per-coil adjoint NuFFT
    of the weighted data, combined with conjugate sensitivities.
    """
    kspace = np.asarray(kspace, dtype=operator._cdtype)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != operator.n_samples:
            raise ValueError(
                f"{weights.shape[0]} weights for {operator.n_samples} samples"
            )
        kspace = kspace * weights[None, :]
    return operator.adjoint(kspace) / operator.n_samples


def sense_reconstruction(
    operator: SenseOperator,
    kspace: np.ndarray,
    weights: np.ndarray | None = None,
    n_iterations: int = 15,
    tolerance: float = 1e-6,
    regularization: float = 0.0,
    normal: str = "gridding",
) -> CgResult:
    """CG-SENSE iterative reconstruction.

    Runs the same CG loop as :func:`repro.recon.cg_reconstruction`, on
    the coil Gram ``E^H W E + lambda I`` as a batch of one, with the
    same health guards and the same supervised Toeplitz fallback.

    Parameters
    ----------
    operator:
        The multi-coil encoding operator.
    kspace:
        ``(C, M)`` acquired data.
    weights:
        Optional ``(M,)`` density-compensation weights used as a
        preconditioner inside the normal operator.
    n_iterations, tolerance, regularization:
        CG controls (Tikhonov ``lambda >= 0``).
    normal:
        ``"gridding"`` (default) or ``"toeplitz"`` — how each CG
        iteration applies ``A^H W A`` per coil (see
        :meth:`SenseOperator.normal`).

    Returns
    -------
    :class:`~repro.recon.CgResult` with the coil-combined image.
    """
    if normal not in ("gridding", "toeplitz"):
        raise ValueError(
            f"normal must be 'gridding' or 'toeplitz', got {normal!r}"
        )
    kspace = np.asarray(kspace, dtype=operator._cdtype)
    if kspace.shape != (operator.n_coils, operator.n_samples):
        raise ValueError(
            f"kspace must be ({operator.n_coils}, {operator.n_samples}), "
            f"got {kspace.shape}"
        )
    _check_controls(n_iterations, tolerance, regularization)
    w = None
    if weights is not None:
        w = _check_weights(weights, operator.n_samples, operator._cdtype)

    events: tuple = ()
    if normal == "toeplitz":
        gram_op, events = _supervised_toeplitz(lambda: operator.plan.toeplitz(w))
        if gram_op is None:
            normal = "gridding"

    data = kspace if w is None else kspace * w[None, :]
    b = operator.adjoint(data)
    if not np.isfinite(b).all():
        raise SolverBreakdown(
            "right-hand side E^H W y is non-finite; cannot start CG "
            "(check kspace/weights, or use a quality_policy on the plan)"
        )

    def gram(v: np.ndarray) -> np.ndarray:
        # the coil Gram acts on one image; _solve iterates a stack of one
        coil_gram = operator.normal(v[0], weights=w, method=normal)
        return coil_gram[None] + regularization * v

    result = _solve(gram, b[None], n_iterations, tolerance, None, events)
    result.image = result.image[0]
    return result
