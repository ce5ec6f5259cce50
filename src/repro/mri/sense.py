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

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataQualityError, DegradationEvent, SolverBreakdown
from ..nufft import NufftPlan, ToeplitzNormalOperator
from ..recon.cg import _dot_real, _plan_cdtype

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
        self._cdtype = _plan_cdtype(plan)
        maps = np.asarray(maps, dtype=self._cdtype)
        if maps.ndim != plan.ndim + 1 or tuple(maps.shape[1:]) != plan.image_shape:
            raise ValueError(
                f"maps must be (C,) + {plan.image_shape}, got {maps.shape}"
            )
        self.plan = plan
        self.maps = maps
        self._toeplitz_cache: tuple[tuple | None, ToeplitzNormalOperator] | None = None

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

    def _toeplitz_gram(self, weights: np.ndarray | None) -> ToeplitzNormalOperator:
        """The Toeplitz embedding of ``A^H W A``, cached per weights."""
        if weights is None:
            key: tuple | None = None
        else:
            arr = np.ascontiguousarray(weights)
            key = (arr.shape, hash(arr.tobytes()))
        if self._toeplitz_cache is None or self._toeplitz_cache[0] != key:
            self._toeplitz_cache = (
                key,
                ToeplitzNormalOperator(self.plan, weights=weights),
            )
        return self._toeplitz_cache[1]

    def normal(
        self,
        image: np.ndarray,
        weights: np.ndarray | None = None,
        method: str = "gridding",
    ) -> np.ndarray:
        """Apply the Gram operator ``E^H W E`` (batched over coils).

        ``method="gridding"`` (default) runs a batched forward+adjoint
        NuFFT pair.  ``method="toeplitz"`` applies the cached
        :class:`~repro.nufft.ToeplitzNormalOperator` per coil image in
        one batched FFT pair — no per-iteration gridding; the single
        up-front PSF build is amortized over all CG iterations (the
        operator is rebuilt only when ``weights`` change).
        """
        image = np.asarray(image, dtype=self._cdtype)
        if method == "toeplitz":
            gram = self._toeplitz_gram(weights)
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


@dataclass
class SenseResult:
    """CG-SENSE solution, convergence history, and solver health record.

    Same health fields as :class:`repro.recon.CgResult`:
    ``degradations`` lists supervised fallbacks (e.g. ``normal:
    toeplitz -> gridding``), ``restarts`` counts non-finite-triggered
    restarts, ``breakdown`` names a detected numerical breakdown
    (``"indefinite_gram"`` / ``"stagnation"``) or is ``None``.
    """

    image: np.ndarray
    residual_norms: list[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    degradations: tuple = ()
    restarts: int = 0
    breakdown: str | None = None


def sense_reconstruction(
    operator: SenseOperator,
    kspace: np.ndarray,
    weights: np.ndarray | None = None,
    n_iterations: int = 15,
    tolerance: float = 1e-6,
    regularization: float = 0.0,
    normal: str = "gridding",
) -> SenseResult:
    """CG-SENSE iterative reconstruction.

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
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if regularization < 0:
        raise ValueError(f"regularization must be >= 0, got {regularization}")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape[0] != operator.n_samples:
            raise ValueError(
                f"{w.shape[0]} weights for {operator.n_samples} samples"
            )
        if not np.isfinite(w).all():
            n_bad = int(w.shape[0] - np.count_nonzero(np.isfinite(w)))
            raise DataQualityError(
                f"{n_bad} density-compensation weight(s) are non-finite; a "
                "NaN weight poisons both the Toeplitz kernel and every Gram "
                "apply"
            )
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if operator._cdtype == np.complex64:
            # keep the weighted data in the working dtype: a float64
            # weight vector would upcast every w * kspace product
            w = w.astype(np.float32)

    # Supervised pre-build: a Toeplitz kernel that cannot be built (or
    # fails its Hermitian-PSD health check) degrades to the gridding
    # normal operator — always available, exact adjoint pair — with the
    # event recorded instead of aborting the reconstruction.
    events: tuple = ()
    if normal == "toeplitz":
        try:
            gram = operator._toeplitz_gram(w)
            if not gram.health_check():
                raise SolverBreakdown(
                    "Toeplitz kernel spectrum failed the Hermitian-PSD "
                    "health check"
                )
        except DataQualityError:
            raise
        except Exception as exc:  # noqa: BLE001 - supervised degradation
            events = (
                DegradationEvent("normal", "toeplitz", "gridding", repr(exc)),
            )
            normal = "gridding"

    data = kspace if w is None else kspace * w[None, :]
    b = operator.adjoint(data)
    if not np.isfinite(b).all():
        raise SolverBreakdown(
            "right-hand side E^H W y is non-finite; cannot start CG "
            "(check kspace/weights, or use a quality_policy on the plan)"
        )
    x = np.zeros(operator.plan.image_shape, dtype=b.dtype)
    r = b.copy()
    p = r.copy()
    rs_old = _dot_real(r, r)
    b_norm = float(np.sqrt(_dot_real(b, b)))
    if b_norm == 0.0:
        return SenseResult(
            image=x, residual_norms=[0.0], converged=True, degradations=events
        )

    def gram_apply(v: np.ndarray) -> np.ndarray:
        return operator.normal(v, weights=w, method=normal) + regularization * v

    result = SenseResult(image=x, residual_norms=[1.0], degradations=events)
    restarted = False
    best_rel = np.inf
    flat_streak = 0

    def restart(reason: str) -> tuple[np.ndarray, np.ndarray, float]:
        """One permitted restart from the last finite iterate ``x``."""
        nonlocal restarted
        if restarted:
            raise SolverBreakdown(
                "CG-SENSE hit a non-finite quantity even after a restart "
                f"({reason}); refusing to iterate toward a NaN image"
            )
        restarted = True
        result.restarts += 1
        result.degradations += (
            DegradationEvent("cg", "iterate", "restart", reason),
        )
        r = b - gram_apply(x)
        rs = _dot_real(r, r)
        if not np.isfinite(rs):
            raise SolverBreakdown(
                f"CG-SENSE restart failed: recomputed residual is non-finite ({reason})"
            )
        return r, r.copy(), rs

    for it in range(1, n_iterations + 1):
        ap = gram_apply(p)
        denom = _dot_real(p, ap)
        if not np.isfinite(denom):
            r, p, rs_old = restart("non-finite Gram application")
            continue
        if denom <= 0:
            result.breakdown = "indefinite_gram"
            break
        alpha = rs_old / denom
        x_new = x + alpha * p
        r_new = r - alpha * ap
        rs_new = _dot_real(r_new, r_new)
        if not np.isfinite(rs_new):
            r, p, rs_old = restart("non-finite residual norm")
            continue
        x, r = x_new, r_new
        rel = np.sqrt(rs_new) / b_norm
        result.residual_norms.append(rel)
        result.n_iterations = it
        if rel < tolerance:
            result.converged = True
            break
        if rel >= best_rel * (1.0 - 1e-12):
            flat_streak += 1
            if flat_streak >= 8:
                result.breakdown = "stagnation"
                break
        else:
            flat_streak = 0
        best_rel = min(best_rel, rel)
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
    result.image = x
    if not np.isfinite(x).all():
        raise SolverBreakdown(
            "CG-SENSE ended on a non-finite image; refusing to return it"
        )
    return result
