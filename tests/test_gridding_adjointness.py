"""Grid / interp adjointness of the serial and compiled engines.

``<G v, g> == <v, I g>`` up to roundoff: the ``adjoint`` cells of
``tests/test_engine_matrix.py`` on every geometry at both dtypes and
both kernels, single (K = 1) and batched (K = 3).
"""

import pytest

from tests.test_engine_matrix import DTYPES, KERNELS, assert_cells

ENGINES = {"serial": "slice_and_dice", "compiled": "slice_and_dice_compiled"}


@pytest.mark.parametrize("name", ENGINES)
def test_grid_interp_adjoint(name):
    assert_cells([ENGINES[name]], DTYPES, KERNELS, checks=["adjoint"], cells="K=1")


@pytest.mark.parametrize("name", ENGINES)
def test_batched_grid_interp_adjoint(name):
    assert_cells([ENGINES[name]], DTYPES, KERNELS, checks=["adjoint"], cells="K=3")
