"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import jit as jitmod
from repro.gridding import GriddingSetup
from repro.kernels import KernelLUT, beatty_kernel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_setup() -> GriddingSetup:
    """A 32x32 grid with the paper's W=6 Kaiser-Bessel kernel."""
    return GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))


@pytest.fixture
def tiny_setup() -> GriddingSetup:
    """A 16x16 grid with a narrow W=4 kernel (fast tests)."""
    return GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))


def interpret_jit_kernels(monkeypatch) -> None:
    """Run the compiled engine's ``backend="numba"`` lane on the raw
    Python loop bodies: numba reads as importable and the kernel table
    holds the plain functions ``njit`` would compile — the same
    arithmetic as the numba lane, checked without numba."""
    monkeypatch.setattr(jitmod, "_numba", object())
    monkeypatch.delenv(jitmod.JIT_DISABLE_ENV, raising=False)
    monkeypatch.setattr(jitmod, "_COMPILED", {
        "scatter-serial": jitmod.scatter_plan_entries,
        "scatter-parallel": jitmod.scatter_plan_rows,
        "gather-serial": jitmod.gather_plan_entries,
        "gather-parallel": jitmod.gather_plan_samples,
    })


def random_samples(
    rng: np.random.Generator, m: int, grid_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Random coordinates (grid units) and complex values."""
    coords = rng.uniform(0, 1, size=(m, len(grid_shape))) * np.asarray(grid_shape)
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return coords, values
