"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridding import GriddingSetup
from repro.kernels import KernelLUT, beatty_kernel, make_kernel


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


def random_samples(
    rng: np.random.Generator, m: int, grid_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Random coordinates (grid units) and complex values."""
    coords = rng.uniform(0, 1, size=(m, len(grid_shape))) * np.asarray(grid_shape)
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return coords, values


#: geometry -> (grid shape, W, M) of the gridding problems the engine
#: matrix and the gridding suites share; the window kernel is a separate
#: axis.  ``"rect"`` has ``W = T = 8``, the widest window the dice
#: allows.  ``M`` puts 3.5 to 12.5 window entries on a grid point on
#: average, so most grid words sum three or more addends and an engine
#: that adds them in another order than the serial engine fails
#: ``np.array_equal``.
GEOMETRIES = {
    "1d": ((64,), 6, 100),
    "square": ((32, 32), 6, 300),
    "rect": ((32, 48), 8, 300),
    "w4": ((32, 32), 4, 300),
    "w2": ((16, 16), 2, 300),
    "edge": ((32, 32), 3, 400),
    "3d": ((16, 16, 16), 4, 300),
    "one": ((32, 32), 6, 1),
    "empty": ((32, 32), 6, 0),
}


def gridding_problem(geometry: str, kernel: str = "kb", dtype=np.complex128, k: int = 3):
    """``(setup, coords, values, grids)`` of one geometry: a setup at
    ``dtype`` (``L = 64``), ``M`` coordinates in grid units, a ``(K, M)``
    value stack and a ``(K,) + grid`` stack, seeded by the geometry's
    name.  Samples are uniform, except:

    - ``"square"``: a quarter of them in a hot spot at the centre, which
      stresses duplicate and bin handling;
    - ``"edge"``: the last 9 are samples on the torus edges (``0`` and
      ``G - eps`` per axis), on tile boundaries, and at ``0.5 - 2**-52``,
      where the ``W/2 = 1.5`` shift leaves a fraction within an ulp of
      1, so the forward distance ``2 + frac`` rounds to ``W = 3``: every
      engine must drop that entry;
    - ``"one"``: a single sample; ``"empty"``: none.
    """
    shape, width, m = GEOMETRIES[geometry]
    setup = GriddingSetup(
        shape, KernelLUT(make_kernel(kernel, width), 64), dtype=dtype
    )
    rng = np.random.default_rng(sum(map(ord, geometry)))
    edges = np.zeros((0, len(shape)))
    if geometry == "edge":
        top = [np.nextafter(g, 0) for g in shape]
        edges = np.array([[0.0, 0.0], top, [0.0, top[1]], [top[0], 0.0],
                          [8.0, 8.0], [16.0, 0.0], [0.0, 24.0], [8.0, 15.5],
                          [0.5 - 2**-52, 0.5 - 2**-52]])
    m -= len(edges)
    coords = rng.uniform(0, 1, (m, len(shape))) * np.asarray(shape)
    if geometry == "square":
        coords[: m // 4] = (16 + 1.5 * rng.standard_normal((m // 4, 2))) % 32
    coords = np.vstack([coords, edges])
    values = rng.standard_normal((k, coords.shape[0])) + 1j * rng.standard_normal(
        (k, coords.shape[0])
    )
    grids = rng.standard_normal((k,) + shape) + 1j * rng.standard_normal(
        (k,) + shape
    )
    return setup, coords, values.astype(dtype), grids.astype(dtype)
