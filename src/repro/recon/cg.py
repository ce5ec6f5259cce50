"""Conjugate-gradient iterative reconstruction.

Solves the (optionally density-weighted, Tikhonov-regularized) normal
equations

``(A^H W A + lambda I) x = A^H W y``

with CG, where ``A`` is the forward NuFFT.  This is the §I "iterative
image reconstruction" workload — each iteration costs a
forward + adjoint NuFFT pair, which is exactly why the paper cares
about gridding throughput.  Passing ``normal="toeplitz"`` swaps the
per-iteration NuFFT pair for the FFT-only
:class:`~repro.nufft.ToeplitzNormalOperator` (Impatient's strategy
[10]): gridding is then paid only once, up front.

One loop, :func:`_solve`, runs every CG iteration in the package:
:func:`cg_reconstruction` (a single right-hand side is a batch of one)
and :func:`repro.mri.sense_reconstruction` both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import (
    DataQualityError,
    DegradationEvent,
    JobCancelled,
    SolverBreakdown,
)
from ..nufft import NufftPlan, ToeplitzNormalOperator

__all__ = ["CgResult", "cg_reconstruction"]

#: consecutive iterations with (numerically) zero residual improvement
#: before the solver declares stagnation.  Deliberately conservative:
#: CG residuals oscillate, so only a machine-precision-flat streak of
#: this length is treated as "stuck".
_STAGNATION_WINDOW = 8
_STAGNATION_RTOL = 1e-12


def _dot_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system ``Re <a_k, b_k>`` of two ``(K, ...)`` stacks.

    Each row is reduced by NumPy in float64, not by BLAS.  ``np.vdot``
    on complex64 operands accumulates in float32, which is too coarse
    for CG's alpha/beta ratios near convergence.  On complex128
    operands it calls a multithreaded BLAS (OpenBLAS ``zdotc``) whose
    worker threads keep spinning after it returns, taking the cores
    that the next gridding pass's band tasks and the FFT threads run
    on: inside a 256² CG solve on two cores they doubled each gridding
    mat-vec.
    """
    axes = tuple(range(1, a.ndim))
    return np.sum((np.conj(a) * b).real, axis=axes, dtype=np.float64)


def _check_controls(
    n_iterations: int, tolerance: float, regularization: float
) -> None:
    """Validate the CG iteration count, tolerance and Tikhonov weight."""
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if regularization < 0:
        raise ValueError(f"regularization must be >= 0, got {regularization}")


def _check_weights(
    weights: np.ndarray | None, n_samples: int, cdtype: np.dtype
) -> np.ndarray:
    """Validate density-compensation weights (shape, sign, finiteness).

    ``None`` means unit weights.  The result has ``cdtype``'s real
    precision, so ``w * kspace`` stays in the working dtype.
    """
    real = np.finfo(cdtype).dtype
    if weights is None:
        return np.ones(n_samples, dtype=real)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape[0] != n_samples:
        raise ValueError(f"{w.shape[0]} weights for {n_samples} samples")
    if not np.isfinite(w).all():
        n_bad = int(w.shape[0] - np.count_nonzero(np.isfinite(w)))
        raise DataQualityError(
            f"{n_bad} density-compensation weight(s) are non-finite; a NaN "
            "weight poisons both the Toeplitz kernel and every Gram apply"
        )
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w.astype(real, copy=False)


#: Toeplitz build errors that no fallback can help, so
#: :func:`_supervised_toeplitz`, which absorbs any other failed build,
#: re-raises these: bad weights poison the gridding normal operator
#: identically, and a cancelled (or deadline-expired) job must stop, not
#: degrade.
TOEPLITZ_BUILD_FATAL = (DataQualityError, JobCancelled)


def _supervised_toeplitz(
    build: Callable[[], ToeplitzNormalOperator],
) -> tuple[ToeplitzNormalOperator | None, tuple]:
    """Fetch (building if unbound) a Toeplitz normal operator and
    health-check it.

    Returns ``(operator, ())``.  A build failure or a kernel that fails
    its :meth:`~repro.nufft.ToeplitzNormalOperator.health_check` returns
    ``(None, (event,))`` with a ``normal: toeplitz -> gridding``
    :class:`~repro.errors.DegradationEvent`: the caller falls back to
    the gridding normal operator (forward+adjoint NuFFT pair — always
    available, exact adjoint pair by construction) instead of aborting
    the reconstruction.  :data:`TOEPLITZ_BUILD_FATAL` errors are *not*
    absorbed: a :class:`~repro.errors.DataQualityError`, or a
    :class:`~repro.errors.JobCancelled` (``DeadlineExceeded`` included)
    from the plan's cancel token, checked before each PSF block.
    """
    try:
        gram_op = build()
        if not gram_op.health_check():
            raise SolverBreakdown(
                "Toeplitz kernel spectrum failed the Hermitian-PSD health check"
            )
    except TOEPLITZ_BUILD_FATAL:
        raise
    except Exception as exc:  # noqa: BLE001 - supervised degradation
        return None, (DegradationEvent("normal", "toeplitz", "gridding", repr(exc)),)
    return gram_op, ()


def _make_gram(plan, w, regularization, normal):
    """Build the batched normal operator ``A^H W A + lambda I``.

    The returned ``gram`` maps a ``(K,) + image_shape`` stack to one.
    ``normal="toeplitz"`` fetches the operator bound to the plan
    (:meth:`~repro.nufft.NufftPlan.toeplitz`, built once per weights)
    through :func:`_supervised_toeplitz`, and degrades to the gridding
    operator when that fails.
    """
    events: tuple = ()
    if normal == "toeplitz":
        gram_op, events = _supervised_toeplitz(lambda: plan.toeplitz(w))
        if gram_op is not None:

            def gram(x: np.ndarray) -> np.ndarray:
                # one batched FFT pair for all K systems
                return gram_op.apply_batch(x) + regularization * x

            return gram, events

    def gram(x: np.ndarray) -> np.ndarray:
        return plan.adjoint_batch(w * plan.forward_batch(x)) + regularization * x

    return gram, events


@dataclass
class CgResult:
    """CG solution plus convergence history and solver health record.

    ``degradations`` lists supervised fallbacks taken while solving
    (e.g. ``normal: toeplitz -> gridding`` when the Toeplitz build
    failed, or ``cg: iterate -> restart`` after a non-finite residual);
    ``restarts`` counts the latter.  ``breakdown`` names a detected
    numerical breakdown (``"indefinite_gram"`` or ``"stagnation"``)
    that ended the iteration early with the last finite iterate —
    ``None`` for a healthy solve.
    """

    image: np.ndarray
    residual_norms: list[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    degradations: tuple = ()
    restarts: int = 0
    breakdown: str | None = None


def _solve(
    gram: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    n_iterations: int,
    tolerance: float,
    cancel,
    events: tuple,
) -> CgResult:
    """CG on the ``K`` systems ``gram(x)[k] = b[k]``, ``b`` a ``(K, ...)`` stack.

    Each system keeps its own ``alpha``/``beta`` (``K`` independent CG
    recursions run in lock step, not a block-Krylov method), and one
    ``gram`` call applies the normal operator to all ``K`` iterates.  A
    system whose residual drops below ``tolerance`` is frozen (its step
    sizes are forced to zero) while the rest iterate.  The residual
    history records the worst relative residual across systems.

    ``cancel`` (a :class:`~repro.robustness.CancelToken` or ``None``)
    is checked at the top of every iteration.  A non-finite Gram
    application or residual norm triggers one restart from the last
    finite iterates; a second one raises
    :class:`~repro.errors.SolverBreakdown`.
    """
    k_rhs = b.shape[0]
    shape = (k_rhs,) + (1,) * (b.ndim - 1)
    #: real dtype of the per-system alpha/beta steps — np.where
    #: yields float64 arrays, which would silently upcast complex64
    #: iterates to complex128 under NEP 50 promotion
    step_dtype = np.finfo(b.dtype).dtype
    x = np.zeros(b.shape, dtype=b.dtype)
    r = b.copy()
    p = r.copy()
    rs_old = _dot_real(r, r)
    b_norm = np.sqrt(_dot_real(b, b))
    active = b_norm > 0.0
    if not np.any(active):
        return CgResult(
            image=x,
            residual_norms=[0.0],
            n_iterations=0,
            converged=True,
            degradations=events,
        )
    safe_norm = np.where(active, b_norm, 1.0)

    result = CgResult(image=x, residual_norms=[1.0], degradations=events)
    restarted = False
    best_rel = np.inf
    flat_streak = 0

    def restart(reason: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One permitted restart from the last finite iterates ``x``."""
        nonlocal restarted
        if restarted:
            raise SolverBreakdown(
                "CG hit a non-finite quantity even after a restart "
                f"({reason}); refusing to iterate toward a NaN image"
            )
        restarted = True
        result.restarts += 1
        result.degradations += (
            DegradationEvent("cg", "iterate", "restart", reason),
        )
        r = b - gram(x)
        rs = _dot_real(r, r)
        if not np.all(np.isfinite(rs)):
            raise SolverBreakdown(
                f"CG restart failed: recomputed residual is non-finite ({reason})"
            )
        return r, r.copy(), rs

    for it in range(1, n_iterations + 1):
        if cancel is not None:
            cancel.check()
        ap = gram(p)
        denom = _dot_real(p, ap)
        if not np.all(np.isfinite(denom)):
            r, p, rs_old = restart("non-finite Gram application")
            continue
        # Gram is PSD by construction; a nonpositive curvature means p
        # is (numerically) in the null space or the operator lost
        # health — that system keeps its last finite iterate
        step_ok = active & (denom > 0)
        if np.any(active & (denom <= 0)):
            result.breakdown = "indefinite_gram"
        if not np.any(step_ok):
            break
        alpha = np.where(
            step_ok, rs_old / np.where(denom > 0, denom, 1.0), 0.0
        ).astype(step_dtype, copy=False)
        x_new = x + alpha.reshape(shape) * p
        r_new = r - alpha.reshape(shape) * ap
        rs_new = _dot_real(r_new, r_new)
        if not np.all(np.isfinite(rs_new)):
            r, p, rs_old = restart("non-finite residual norm")
            continue
        x, r = x_new, r_new
        rel = np.sqrt(rs_new) / safe_norm
        worst = float(np.max(np.where(active, rel, 0.0)))
        result.residual_norms.append(worst)
        result.n_iterations = it
        active = active & (rel >= tolerance) & (denom > 0)
        if not np.any(active):
            result.converged = True
            break
        if worst >= best_rel * (1.0 - _STAGNATION_RTOL):
            flat_streak += 1
            if flat_streak >= _STAGNATION_WINDOW:
                result.breakdown = "stagnation"
                break
        else:
            flat_streak = 0
        best_rel = min(best_rel, worst)
        beta = np.where(
            rs_old > 0, rs_new / np.where(rs_old > 0, rs_old, 1.0), 0.0
        ).astype(step_dtype, copy=False)
        p = r + beta.reshape(shape) * p
        rs_old = rs_new
    result.image = x
    if not np.isfinite(x).all():
        raise SolverBreakdown(
            "CG ended on a non-finite image; refusing to return it"
        )
    return result


def cg_reconstruction(
    plan: NufftPlan,
    kspace: np.ndarray,
    weights: np.ndarray | None = None,
    n_iterations: int = 20,
    tolerance: float = 1e-6,
    regularization: float = 0.0,
    normal: str = "gridding",
    cancel: "object | None" = None,
) -> CgResult:
    """Iteratively reconstruct ``kspace`` samples into an image.

    Parameters
    ----------
    plan:
        NuFFT plan (trajectory + gridder backend).  Engine selection
        flows through here: a plan built with
        ``gridder="slice_and_dice_compiled"`` compiles the
        trajectory's scatter plan during the first Gram application and
        reuses it for the rest of the loop: iteration 2 onward performs
        zero select work (no boundary checks, no LUT reads — just one
        sparse mat-vec per pass), which is where the
        CG workload's speedup comes from.  Bit-identical gridding means
        bit-identical CG iterates, so the reconstruction matches the
        serial engine exactly.
    kspace:
        ``(M,)`` complex samples.
    weights:
        Optional ``(M,)`` real sample weights ``W`` (density
        compensation as a preconditioner; improves conditioning).
    n_iterations:
        Maximum CG iterations.
    tolerance:
        Relative residual stopping criterion.
    regularization:
        Tikhonov ``lambda`` (>= 0).
    normal:
        How to apply the normal operator ``A^H W A`` each iteration:
        ``"gridding"`` (default) runs a forward+adjoint NuFFT pair;
        ``"toeplitz"`` applies the plan's
        :class:`~repro.nufft.ToeplitzNormalOperator` with two ``2N``
        FFTs per iteration — Impatient's strategy [10], the fast path
        for iteration counts beyond a handful.  The operator is bound
        to the plan and the weights (:meth:`NufftPlan.toeplitz
        <repro.nufft.NufftPlan.toeplitz>`): its PSF (``2^d`` adjoints
        on ``plan``) is built on the first call and reused by every
        later call with equal weights.
    cancel:
        Optional :class:`~repro.robustness.CancelToken`, checked at the
        top of every iteration: an expired deadline raises
        :class:`~repro.errors.DeadlineExceeded`, an explicit cancel
        :class:`~repro.errors.JobCancelled` — always at an iteration
        boundary, so no half-updated iterate escapes.

    Returns
    -------
    :class:`CgResult` with the image and residual history.

    Notes
    -----
    ``kspace`` may also be a stacked ``(K, M)`` array of independent
    right-hand sides sharing the trajectory (e.g. per-coil data or
    dynamic frames).  The ``K`` systems are then iterated together
    with per-system step sizes, and every iteration applies the Gram
    operator through the *batched* NuFFT path — one gridder select
    pass (with cached tables) for all ``K`` systems.  The result image
    has shape ``(K,) + image_shape`` and the residual history records
    the worst (max) relative residual across systems.  An ``(M,)``
    input is the batch of one: the same loop, which
    :func:`repro.mri.sense_reconstruction` also runs, so each row of a
    batched solve is bit-identical to solving that row alone.
    """
    if normal not in ("gridding", "toeplitz"):
        raise ValueError(
            f"normal must be 'gridding' or 'toeplitz', got {normal!r}"
        )
    kspace = np.asarray(kspace, dtype=plan.cdtype)
    single = kspace.ndim != 2
    stack = kspace.reshape(1, -1) if single else kspace
    if stack.shape[1] != plan.n_samples:
        raise ValueError(
            f"{stack.shape[1]} samples for {plan.n_samples} trajectory points"
        )
    _check_controls(n_iterations, tolerance, regularization)
    w = _check_weights(weights, plan.n_samples, plan.cdtype)
    gram, events = _make_gram(plan, w, regularization, normal)

    b = plan.adjoint_batch(w * stack)
    if not np.isfinite(b).all():
        raise SolverBreakdown(
            "right-hand side A^H W y is non-finite; cannot start CG "
            "(check kspace/weights, or use a quality_policy on the plan)"
        )
    result = _solve(gram, b, n_iterations, tolerance, cancel, events)
    if single:
        result.image = result.image[0]
    return result
