"""Direct (adjoint / gridding) reconstruction with density compensation.

The classic non-iterative recipe: weight each k-space sample by the
inverse local sampling density, then apply the adjoint NuFFT.  This is
the "direct NuFFT reconstruction" of the paper's Fig. 9 quality
comparison.
"""

from __future__ import annotations

import numpy as np

from ..nufft import NufftPlan
from ..trajectories import (
    cell_counting_density_compensation,
    pipe_menon_density_compensation,
    ramp_density_compensation,
)

__all__ = ["adjoint_reconstruction"]


def adjoint_reconstruction(
    plan: NufftPlan,
    kspace: np.ndarray,
    density: str | np.ndarray = "pipe_menon",
) -> np.ndarray:
    """Reconstruct an image by density-compensated adjoint NuFFT.

    Parameters
    ----------
    plan:
        The NuFFT plan (holds trajectory and gridder).
    kspace:
        ``(M,)`` complex k-space samples.
    density:
        ``"ramp"`` (radial), ``"cells"`` (histogram),
        ``"pipe_menon"`` (iterative, trajectory-agnostic — default),
        ``"none"``, or an explicit ``(M,)`` weight array.

    Returns
    -------
    Complex image of ``plan.image_shape`` (normalized so a unit-DC
    acquisition keeps unit scale: weights are mean-one and the output
    is divided by ``M``).
    """
    kspace = np.asarray(kspace, dtype=plan.cdtype).ravel()
    if kspace.shape[0] != plan.n_samples:
        raise ValueError(
            f"{kspace.shape[0]} k-space samples for {plan.n_samples} trajectory points"
        )
    if isinstance(density, str):
        if density == "none":
            weights = np.ones(plan.n_samples)
        elif density == "ramp":
            weights = ramp_density_compensation(plan.coords)
        elif density == "cells":
            weights = cell_counting_density_compensation(
                plan.coords, plan.image_shape
            )
        elif density == "pipe_menon":
            weights = pipe_menon_density_compensation(
                plan.coords,
                interp_forward=lambda g: plan.gridder.interp(g, plan.grid_coords),
                interp_adjoint=lambda v: plan.gridder.grid(plan.grid_coords, v),
            )
        else:
            raise ValueError(
                f"unknown density scheme {density!r}; choose from "
                "'ramp', 'cells', 'pipe_menon', 'none' or pass an array"
            )
    else:
        weights = np.asarray(density, dtype=np.float64).ravel()
        if weights.shape[0] != plan.n_samples:
            raise ValueError(
                f"{weights.shape[0]} weights for {plan.n_samples} samples"
            )
    return plan.adjoint(kspace * weights) / plan.n_samples
