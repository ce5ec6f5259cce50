"""Environment stamp kept for the benchmark harness.

The package has no numba execution lane: the compiled engine
(:mod:`repro.core.compiled`) runs every pass as SciPy sparse mat-vecs.
``perfbench/run.py`` still stamps each result set with
``lanes["numba"]`` from :func:`jit_available`, and ``--compare``
refuses two sets whose stamps differ, so this module keeps that one
function, reporting the lane as absent, until the stamp is dropped.
"""

from __future__ import annotations

__all__ = ["jit_available"]


def jit_available() -> bool:
    """Always ``False``: no numba lane exists.

    Examples
    --------
    >>> jit_available()
    False
    """
    return False
