"""Property test: gridding and interpolation are exact adjoints.

For every engine, gridding ``G`` (values -> grid) and interpolation
``I`` (grid -> values) apply the same real weight matrix ``w`` and its
transpose, so ``<G v, g> == <v, I g>`` (complex inner products) up to
floating-point roundoff.  Hypothesis drives random trajectories, both
dims, and batched K > 1 across the serial, compiled, and CSR-backed
engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gridding import GriddingSetup, make_gridder
from repro.kernels import KernelLUT, beatty_kernel

SETUPS = {
    2: GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32)),
    3: GriddingSetup((16, 16, 16), KernelLUT(beatty_kernel(4, 2.0), 32)),
}

ENGINES = [
    ("slice_and_dice", {}),
    ("slice_and_dice_compiled", {}),
    ("slice_and_dice_compiled", {"backend": "csr"}),
]


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


@pytest.mark.parametrize(
    "name,kwargs", ENGINES, ids=["serial", "compiled", "csr"]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    ndim=st.sampled_from([2, 3]),
)
@settings(max_examples=25, deadline=None)
def test_grid_interp_adjoint(name, kwargs, seed, m, ndim):
    setup = SETUPS[ndim]
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, size=(m, ndim)) * np.asarray(setup.grid_shape)
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    grid = rng.standard_normal(setup.grid_shape) + 1j * rng.standard_normal(
        setup.grid_shape
    )
    g = make_gridder(name, setup, **kwargs)
    lhs = inner(g.grid(coords, values), grid)
    rhs = inner(values, g.interp(grid, coords))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize(
    "name,kwargs", ENGINES, ids=["serial", "compiled", "csr"]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 30),
    k=st.integers(2, 4),
    ndim=st.sampled_from([2, 3]),
)
@settings(max_examples=15, deadline=None)
def test_batched_grid_interp_adjoint(name, kwargs, seed, m, k, ndim):
    setup = SETUPS[ndim]
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, size=(m, ndim)) * np.asarray(setup.grid_shape)
    vstack = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    gstack = rng.standard_normal((k,) + setup.grid_shape) + 1j * rng.standard_normal(
        (k,) + setup.grid_shape
    )
    g = make_gridder(name, setup, **kwargs)
    grids = g.grid_batch(coords, vstack)
    samples = g.interp_batch(gstack, coords)
    for j in range(k):
        lhs = inner(grids[j], gstack[j])
        rhs = inner(vstack[j], samples[j])
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale
