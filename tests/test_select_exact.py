"""Exactness pins of the coordinate-only path's floating-point rewrites.

The select and the plan's coordinate map are written for speed, each
resting on a floating-point identity instead of the obvious formula:

- ``NufftPlan`` maps omega into ``[0, 1)`` as ``x - floor(x)``, not
  ``np.mod(x, 1.0)``;
- ``SliceAndDiceGridder._axis_position`` wraps ``c + W/2`` by one
  conditional subtraction of ``G`` and floors by an ``intp`` cast, not
  by ``np.mod`` and ``np.floor``;
- ``SliceAndDiceGridder._select_entries`` gathers into reused buffers
  in place, indexes the LUT without ``KernelLUT.index_of``'s clip, and
  adds int32 address terms.

Each identity is pinned against the obvious formula, bit for bit, on
the values where floating point is most fragile: signed zeros,
subnormals, fractions within an ulp of 1, sums that round up to ``G``
or to ``W``, and magnitudes up to ``2**53``.  The ufunc features the
rewrites use (``where=``/``out=``, ``np.take(out=, mode="clip")``,
the truncating ``intp`` cast) are those of the NumPy that runs this
file, so CI's dependency-floor job runs it at NumPy 1.24 too.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SliceAndDiceGridder
from repro.gridding import GriddingSetup
from repro.kernels import KernelLUT, beatty_kernel
from repro.nufft import NufftPlan

TINY = 5e-324  # the smallest subnormal
FRACTION_EDGES = [
    0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308 / 3,
    np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0, -1.0,
    -1e-17, -2.0 ** -54, 0.5, -0.5, 1.0 - 2.0 ** -52, -(1.0 - 2.0 ** -52),
    2.0 ** 52 + 0.5, -(2.0 ** 52 + 0.5), 2.0 ** 53, -(2.0 ** 53),
    2.0 ** 53 - 1, -(2.0 ** 53 - 1), 12345.678, -12345.678,
]


def bits(a: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a float array (so ``+0.0 != -0.0``)."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


# ----------------------------------------------------------------------
# the plan's omega -> [0, 1) map
# ----------------------------------------------------------------------
class TestFloorFraction:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(FRACTION_EDGES),
                st.floats(-(2.0 ** 53), 2.0 ** 53, allow_nan=False),
                st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=True),
            ),
            min_size=1, max_size=40,
        )
    )
    def test_x_minus_floor_is_mod_one(self, xs):
        x = np.asarray(xs, dtype=np.float64)
        assert np.array_equal(bits(x - np.floor(x)), bits(np.mod(x, 1.0)))

    def test_edges_exactly(self):
        x = np.asarray(FRACTION_EDGES)
        frac = x - np.floor(x)
        assert np.array_equal(bits(frac), bits(np.mod(x, 1.0)))
        # a tiny negative omega rounds up to exactly 1.0 both ways
        assert frac[FRACTION_EDGES.index(-1e-17)] == 1.0
        assert bits(frac[FRACTION_EDGES.index(-0.0)]) == bits(np.float64(0.0))

    def test_plan_grid_coords_match_mod_form(self):
        omega = np.array(FRACTION_EDGES).reshape(-1, 1) * np.ones((1, 2))
        omega[:, 1] = omega[::-1, 0]
        plan = NufftPlan((16, 16), omega)
        shape = np.asarray(plan.grid_shape, dtype=np.float64)
        want = np.mod(omega, 1.0) * shape
        np.mod(want, shape, out=want, where=want >= shape)
        assert np.array_equal(bits(plan.grid_coords), bits(want))
        assert plan.grid_coords.min() >= 0.0
        assert (plan.grid_coords < shape).all()


# ----------------------------------------------------------------------
# the select's per-axis position
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def serial_gridder(shape: tuple, width: int, dtype=np.complex128) -> SliceAndDiceGridder:
    setup = GriddingSetup(shape, KernelLUT(beatty_kernel(width, 2.0), 64), dtype=dtype)
    return SliceAndDiceGridder(setup)


def mod_position(c: np.ndarray, g: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``np.mod`` / ``np.floor`` form of ``_axis_position``."""
    shifted = np.mod(c + width / 2.0, float(g))
    i = np.floor(shifted).astype(np.int64)
    return i, shifted - i


def axis_edges(g: int, width: int) -> list[float]:
    """Coordinates in ``[0, G]`` (the range ``check_coords`` leaves)
    where ``c + W/2`` sits on or within a few ulps of an integer: the
    torus edges, the tile boundaries, sums that round up to ``G``, and
    fractions within an ulp of 1 (whose forward distance can round up
    to ``W``)."""
    h = width / 2.0
    vals = [0.0, -0.0, TINY, float(g), np.nextafter(float(g), 0.0)]
    for base in [*range(0, g + 1, 8), *(n - h for n in range(width + 2)),
                 g - h, g - h + 0.5]:
        below = above = float(base)
        for _ in range(4):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            vals += [below, above]
        vals.append(float(base))
        vals.append(float(base) - 2.0 ** -51)
    vals = [v % g if v < 0 else v for v in vals]
    return [v for v in vals if 0.0 <= v <= g]


class TestConditionalSubtractPosition:
    GEOMETRIES = [(8, 2), (8, 8), (16, 3), (64, 6), (512, 5), (512, 6)]

    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
        edges=st.lists(st.integers(0, 10 ** 6), max_size=10),
    )
    def test_matches_mod_form(self, geometry, picks, edges):
        g, width = geometry
        pool = axis_edges(g, width)
        c = np.asarray([p * g for p in picks] + [pool[e % len(pool)] for e in edges])
        c = np.minimum(c, float(g))
        i, frac = serial_gridder((g,), width)._axis_position(c[:, None], 0)
        i_ref, frac_ref = mod_position(c, g, width)
        assert i.dtype == np.intp
        assert np.array_equal(i, i_ref)
        assert np.array_equal(bits(frac), bits(frac_ref))

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_edges_exactly(self, geometry):
        g, width = geometry
        c = np.asarray(axis_edges(g, width))
        i, frac = serial_gridder((g,), width)._axis_position(c[:, None], 0)
        i_ref, frac_ref = mod_position(c, g, width)
        assert np.array_equal(i, i_ref)
        assert np.array_equal(bits(frac), bits(frac_ref))
        assert ((0 <= i) & (i < g)).all() and ((0.0 <= frac) & (frac < 1.0)).all()


# ----------------------------------------------------------------------
# the whole table-driven select against its reference formula
# ----------------------------------------------------------------------
def reference_select(gridder: SliceAndDiceGridder, coords, flat, wgt) -> int:
    """The select as first written: ``np.mod`` wrap, ``np.floor``,
    fancy-index gathers into fresh arrays, ``index_of`` with its clip,
    int64 address terms cast on the final add.  Returns how many
    entries it dropped because ``fwd`` rounded up to ``W``."""
    setup = gridder.setup
    lut = setup.lut
    w, ndim = setup.width, setup.ndim
    m = coords.shape[0]
    dropped = 0
    for axis, (dist, axis_addr) in enumerate(gridder._axis_tables):
        axis_addr = axis_addr.astype(np.int64)
        shifted = np.mod(coords[:, axis] + lut.width / 2.0, float(setup.grid_shape[axis]))
        i = np.floor(shifted).astype(np.int64)
        frac = shifted - i
        fwd = dist[i] + frac[:, None]
        w_axis = lut.table[lut.index_of(fwd)].astype(setup.real_dtype, copy=False)
        outside = fwd >= w
        dropped += int(np.count_nonzero(outside))
        if outside.any():
            w_axis[outside] = 0.0
        if axis == 0:
            addr, weight = axis_addr[i], w_axis
            continue
        shape = (m, addr.shape[1], w)
        last = axis == ndim - 1
        addr = np.add(
            addr[:, :, None], axis_addr[i][:, None, :],
            out=flat.reshape(shape) if last else None,
        ).reshape(m, -1)
        weight = np.einsum(
            "ij,ik->ijk", weight, w_axis,
            out=wgt.reshape(shape) if last else None,
        ).reshape(m, -1)
    if ndim == 1:
        flat[:], wgt[:] = addr.ravel(), weight.ravel()
    return dropped


def edge_coords(shape: tuple, width: int, rng) -> np.ndarray:
    """Every per-axis edge value on every axis, paired with the other
    axes' edges in three rotations, plus uniform samples."""
    pools = [np.asarray(axis_edges(g, width)) for g in shape]
    n = max(len(p) for p in pools)
    cols = [np.concatenate([p, rng.choice(p, n - len(p))]) for p in pools]
    rolled = [np.column_stack([np.roll(c, k * j) for j, c in enumerate(cols)])
              for k in range(3)]
    uniform = rng.uniform(0, 1, (50, len(shape))) * np.asarray(shape)
    return np.vstack(rolled + [uniform])


SELECT_CASES = {
    "1d-w6": ((64,), 6),
    "1d-w3": ((64,), 3),
    "2d-w6": ((32, 32), 6),
    "2d-w5-rect": ((32, 48), 5),
    "3d-w4": ((16, 16, 16), 4),
    "3d-w3": ((16, 16, 24), 3),
}


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["c128", "c64"])
@pytest.mark.parametrize("case", SELECT_CASES)
def test_select_matches_reference(case, dtype):
    shape, width = SELECT_CASES[case]
    gridder = serial_gridder(shape, width, dtype)
    coords = edge_coords(shape, width, np.random.default_rng(len(case)))
    n = coords.shape[0] * width ** len(shape)
    got = np.empty(n, np.int32), np.empty(n, gridder.setup.real_dtype)
    want = np.empty(n, np.int32), np.empty(n, gridder.setup.real_dtype)
    gridder._select_entries(coords, *got)
    dropped = reference_select(gridder, coords, *want)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(bits(got[1]), bits(want[1]))
    # the edge set reaches the rounding edge the select must drop; at
    # W = 4 there is none: s = c + 2 >= 2 leaves frac no finer than
    # 2**-51, and 3 + frac is exact below 4
    assert dropped > 0 or width == 4
