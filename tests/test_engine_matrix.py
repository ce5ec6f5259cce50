"""One correctness matrix: every gridding engine variant against two oracles.

A cell is (engine variant, dtype, kernel, geometry, K, direction, check).
The variants are generated: every name in ``available_gridders()`` plus
its option variants (:data:`OPTION_VARIANTS`).  Each runs on every
geometry of ``tests.conftest.GEOMETRIES`` (one shared problem builder)
with the Kaiser-Bessel and ES windows, at complex128 and complex64, with
K = 1 and K = 3 right-hand sides, in both directions (``grid``, the
adjoint, and ``interp``, the forward).  The two oracles are the serial
``slice_and_dice`` engine, the bit-exact reference, and the exact NuDFT
(``repro.nudft``).  The checks:

- ``serial`` — the relation to the serial engine that :data:`CLAIMS`
  states, on the compiling call (K = 3) and on calls that reuse the
  bound trajectory (K = 1);
- ``twin`` — an option variant's relation to its engine's plain
  variant, with its chunk count, its band count, or for a pipelined
  chunk variant the band pool running its selects;
- ``adjoint`` — ``<grid(v), g> == <v, interp(g)>`` per RHS of the
  batch and for the single call, relative error within :data:`ADJOINT`;
- ``batch`` — each row of a K = 3 batch equals the single call on it
  (the last row on the whole problem, the others on its first
  :data:`STALE_M` samples), and a single call equals a batch of one,
  ``np.array_equal``;
- ``stale`` — a reused instance called on coordinates with one moved
  sample (a new array, then an in-place edit) equals a fresh instance,
  in both directions; an engine that binds its trajectory reports the
  hit and the misses; a pipelined chunk variant called on one chunk of
  those samples, then on all of them, then on that chunk again equals a
  fresh instance.  These cells run on the first :data:`STALE_M`
  samples: they compare two calls of one code path, so a smaller
  problem shows the same faults at a fraction of the cost;
- at the :class:`~repro.nufft.NufftPlan` level (:func:`test_plan_cells`,
  every registered engine on :data:`PLAN_PROBLEMS`, K = 3; an option
  variant's plan is its engine's by its ``twin`` cells): ``nudft``,
  error against the NuDFT within :data:`NUDFT_BOUND`; ``single``,
  single-vs-double NRMSD within :data:`SINGLE_NRMSD`; ``adjoint``, the
  plan's dot test at both precisions.

An engine with no :data:`CLAIMS` row fails
:func:`test_every_engine_has_claims` and each of its gridder cells.

Each failure names its cell by a label, ``"<direction> K=<k> ..."``
(``"K=<k> row <j>"`` for a dot test); :func:`assert_cells` can select
cells by a part of their label, so one test id asserts exactly its
cells.
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np
import pytest

import repro.core.compiled as compiledmod
from repro.gridding import available_gridders, make_gridder
from repro.nudft import nudft_adjoint, nudft_forward
from repro.nufft import NufftPlan
from repro.trajectories import radial_trajectory, random_trajectory, spiral_trajectory
from tests.conftest import GEOMETRIES, gridding_problem

DTYPES = ("complex128", "complex64")
KERNELS = ("kb", "es")
EXACT = "array_equal"
#: cross-engine tolerances: the pairwise equivalence bound at complex128,
#: the compiled engine's float32-lane bound at complex64
CLOSE = {"complex128": ("allclose", 1e-10, 1e-12), "complex64": ("allclose", 1e-5, 1e-5)}
#: relative dot-test error of a grid / interp pair
ADJOINT = {"complex128": 1e-10, "complex64": 1e-5}
#: samples of the ``stale`` and most ``batch`` cells' trajectory, a
#: prefix of the problem's
STALE_M = 64

#: engine -> option variant -> (gridder options, dice-row bands P):
#: ``P`` patches the CPU count (``"T"``: more CPUs than tiles) and the
#: band threshold, so the small problems here are banded on any host;
#: a chunk variant with ``P`` pipelines its select on the band pool
OPTION_VARIANTS = {
    "slice_and_dice": {"blocked": ({"engine": "blocked", "n_blocks": 2}, None)},
    "slice_and_dice_compiled": {
        "P1": ({}, 1),
        "P2": ({}, 2),
        "PT": ({}, "T"),
        # chunk sizes 1, non-dividing, dividing and > M (M = 100 to 400)
        **{f"chunk{c}": ({"chunk_samples": c}, None) for c in (1, 7, 100, 5000)},
        # pipelined: a last chunk of 1 to 4 samples, and the one-chunk reuse
        "chunk33P2": ({"chunk_samples": 33}, 2),
        "chunk5000PT": ({"chunk_samples": 5000}, "T"),
    },
}

_BASELINE = {
    "serial": {d: (CLOSE[d], CLOSE[d]) for d in DTYPES},
    "binds": False,
}
#: engine -> what its cells assert.  ``serial`` and ``twin``: per dtype,
#: the (grid, interp) relation to the serial engine and of an option
#: variant to the engine's plain variant — ``EXACT`` wherever the docs
#: claim bit-identity; ``binds``: the engine binds one trajectory, so
#: the first call on a moved one is a cache miss per piece.
CLAIMS = {
    "naive": _BASELINE,
    "output_parallel": _BASELINE,
    "binning": _BASELINE,
    "sparse_matrix": {**_BASELINE, "binds": True},
    "slice_and_dice": {
        "serial": {d: (EXACT, EXACT) for d in DTYPES},
        # blocks add their partial dice in another order than columns
        "twin": {d: (CLOSE[d], EXACT) for d in DTYPES},
        "binds": True,
    },
    "slice_and_dice_compiled": {
        # the serial adjoint sums each dice word in float64 at complex64
        "serial": {"complex128": (EXACT, EXACT), "complex64": (("nrmsd", 1e-6), EXACT)},
        "twin": {d: (EXACT, EXACT) for d in DTYPES},
        "binds": True,
    },
}

#: plan problem -> (image shape, trajectory in cycles per FOV)
PLAN_PROBLEMS = {
    "random": ((24, 24), random_trajectory(400, 2, rng=8)),
    "radial": ((32, 32), radial_trajectory(16, 32)),
    "spiral": ((32, 32), spiral_trajectory(4, 64)),
    "3d": ((12, 12, 12), random_trajectory(200, 3, rng=9)),
}
#: (kernel, ndim) -> double-lane NRMSD bound against the NuDFT, as
#: ``test_nufft_accuracy.py`` and ``test_kernels_es.py`` assert
NUDFT_BOUND = {("kb", 2): 1e-3, ("es", 2): 1.8e-3, ("kb", 3): 2.5e-3, ("es", 3): 2.5e-3}
SINGLE_NRMSD = 1e-4
PLAN_ADJOINT = {"double": 1e-10, "single": 1e-4}


def variants() -> list[str]:
    """Every registered engine, then its option variants as
    ``engine+suffix``."""
    return [
        name
        for engine in available_gridders()
        for name in [engine, *(f"{engine}+{s}" for s in OPTION_VARIANTS.get(engine, {}))]
    ]


def _split(variant: str):
    """``(engine, options, bands)`` of a variant; ``engine+chunk<N>``
    need not be in :data:`OPTION_VARIANTS`."""
    engine, _, suffix = variant.partition("+")
    if not suffix:
        return engine, {}, None
    if suffix in OPTION_VARIANTS.get(engine, {}):
        return engine, *OPTION_VARIANTS[engine][suffix]
    return engine, {"chunk_samples": int(suffix.removeprefix("chunk"))}, None


def legacy_geometry(name: str) -> dict:
    """The matrix axes of a geometry id of the older suites, whose
    ``"es"`` was the ES window on the ``"w4"`` grid."""
    kernel, geometry = ("es", "w4") if name == "es" else ("kb", name)
    return {"kernels": [kernel], "geometries": [geometry]}


@contextlib.contextmanager
def _banded(bands):
    """Pin the compiled engine's one-shot plans to ``bands`` bands."""
    with pytest.MonkeyPatch.context() as mp:
        if bands is not None:
            mp.setattr(compiledmod, "PARALLEL_MIN_NNZ", 0)
            mp.setattr(compiledmod, "usable_cpus", lambda: 64 if bands == "T" else bands)
        yield


def _select_threads(gridder) -> set:
    """Names of the threads that run ``gridder``'s selects, filled in
    as they run."""
    names, select = set(), gridder._select_entries

    def recorded(*args):
        names.add(threading.current_thread().name)
        select(*args)

    gridder._select_entries = recorded
    return names


def _nrmsd(got, want) -> float:
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / scale) if scale else float(np.linalg.norm(got))


def _mismatch(got, want, claim) -> str | None:
    """Why ``got`` is not in ``claim``'s relation to ``want``, or None."""
    if got.shape != want.shape or got.dtype != want.dtype:
        return f"{got.shape} {got.dtype} != {want.shape} {want.dtype}"
    if claim == EXACT:
        ok = np.array_equal(got, want)
    elif claim[0] == "allclose":
        ok = np.allclose(got, want, rtol=claim[1], atol=claim[2])
    else:
        ok = _nrmsd(got, want) <= claim[1]
    if ok:
        return None
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    return f"not {claim}: max |diff| {diff:.1e}, NRMSD {_nrmsd(got, want):.1e}"


def _dot_error(grid_out, grid_in, values, interp_out) -> float:
    lhs, rhs = np.vdot(grid_in, grid_out), np.vdot(interp_out, values)
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))


@functools.cache
def _plain(engine: str, dtype: str, kernel: str, geometry: str):
    """An engine's (grid, interp) outputs at K = 3 with no options: the
    serial oracle, and the twin of the engine's option variants."""
    setup, coords, values, grids = gridding_problem(geometry, kernel, dtype)
    gridder = make_gridder(engine, setup)
    return gridder.grid_batch(coords, values), gridder.interp_batch(grids, coords)


def _serial_claims(engine: str, dtype: str, option_variant: bool) -> tuple:
    """The (grid, interp) relation of a variant to the serial engine:
    the engine's own, or for an option variant its composition with the
    variant's relation to the engine (one side of which is ``EXACT``)."""
    own = CLAIMS[engine]["serial"][dtype]
    if not option_variant:
        return own
    twin = CLAIMS[engine]["twin"][dtype]
    assert all(EXACT in pair for pair in zip(own, twin)), (engine, dtype)
    return tuple(t if o == EXACT else o for o, t in zip(own, twin))


@functools.cache
def measure(variant: str, dtype: str, kernel: str, geometry: str) -> dict:
    """Every gridder-level check of one variant on one problem: check ->
    list of failed cells as ``(label, why)`` (empty when all hold)."""
    engine, options, bands = _split(variant)
    option_variant = bool(options) or bands is not None
    serial_claims = _serial_claims(engine, dtype, option_variant)
    setup, coords, values, grids = gridding_problem(geometry, kernel, dtype)
    fails = {check: [] for check in ("serial", "twin", "adjoint", "batch", "stale")}

    def expect(check, cell, got, want, claim):
        why = _mismatch(got, want, claim)
        if why:
            fails[check].append((cell, why))

    ref = _plain("slice_and_dice", dtype, kernel, geometry)
    twin = _plain(engine, dtype, kernel, geometry) if option_variant else None
    m, chunk = coords.shape[0], options.get("chunk_samples")
    pieces = -(-m // chunk) if chunk else 1
    with _banded(bands):
        gridder = make_gridder(engine, setup, **options)
        threads = _select_threads(gridder) if chunk and bands is not None else set()
        out = []
        for i, direction in enumerate(("grid", "interp")):
            out.append(gridder.grid_batch(coords, values) if i == 0
                       else gridder.interp_batch(grids, coords))
            cell = f"{direction} K=3"
            expect("serial", cell, out[i], ref[i], serial_claims[i])
            if not option_variant:
                continue
            expect("twin", cell, out[i], twin[i], CLAIMS[engine]["twin"][dtype][i])
            if chunk and gridder.stats.chunks != pieces:
                fails["twin"].append((cell, f"{gridder.stats.chunks} chunks, not {pieces}"))
        if bands is not None and chunk:
            if m > 1 and not any(name.startswith("repro-band") for name in threads):
                fails["twin"].append(("grid K=3", "no select ran on the band pool"))
        elif bands is not None and m:
            want = gridder.tile_size if bands == "T" else bands
            if gridder._binding.product.n_bands != want:
                fails["twin"].append(
                    ("grid K=3", f"{gridder._binding.product.n_bands} bands, not {want}")
                )
        # single calls on the last row (where a row-offset slip shows)
        # reuse the bound trajectory
        last = values.shape[0] - 1
        single = gridder.grid(coords, values[last]), gridder.interp(grids[last], coords)
        if CLAIMS[engine]["binds"] and m and pieces == 1 and gridder.stats.cache_hits != 1:
            fails["stale"].append(("K=1 reuse", "a call on the bound trajectory missed"))
        for i, direction in enumerate(("grid", "interp")):
            expect("batch", f"{direction} K=3 row {last}", out[i][last], single[i], EXACT)
            expect("serial", f"{direction} K=1 row {last}", single[i], ref[i][last],
                   serial_claims[i])
        for k, j, pair in [*((3, j, (out[0][j], out[1][j])) for j in range(last + 1)),
                           (1, last, single)]:
            err = _dot_error(pair[0], grids[j], values[j], pair[1])
            if err > ADJOINT[dtype]:
                fails["adjoint"].append((f"K={k} row {j}", f"dot-test error {err:.1e}"))

        if m:
            # a gridder bound to the first STALE_M samples: every row of
            # a K = 3 batch against the single call on it, a batch of
            # one, then a copy with one sample moved (a new array), then
            # with it moved back in that copy (an in-place edit)
            sub, v, g = coords[:STALE_M], values[0, :STALE_M], grids[0]
            reused = make_gridder(engine, setup, **options)
            bound = reused.grid(sub, v), reused.interp(g, sub)
            rows = reused.grid_batch(sub, values[:, :STALE_M]), reused.interp_batch(grids, sub)
            for j in range(last):
                row = bound if j == 0 else (
                    reused.grid(sub, values[j, :STALE_M]), reused.interp(grids[j], sub)
                )
                for i, direction in enumerate(("grid", "interp")):
                    expect("batch", f"{direction} K=3 row {j} (first {STALE_M})",
                           rows[i][j], row[i], EXACT)
            one = reused.grid_batch(sub, v[None]), reused.interp_batch(g[None], sub)
            for i, direction in enumerate(("grid", "interp")):
                expect("batch", f"{direction} K=1 batch of one", one[i][0], bound[i], EXACT)
            moved, s = sub.copy(), sub.shape[0] // 2
            moved[s] = (moved[s] + 0.5) % np.asarray(setup.grid_shape)
            fresh = make_gridder(engine, setup, **options)
            wants = {
                "new array": (fresh.grid(moved, v), fresh.interp(g, moved)),
                "in place": bound,
            }
            sub_pieces = -(-sub.shape[0] // chunk) if chunk else 1
            for edit, want in wants.items():
                if edit == "in place":
                    moved[s] = sub[s]
                got = reused.grid(moved, v)
                misses = reused.stats.cache_misses
                got = got, reused.interp(g, moved)
                for i, direction in enumerate(("grid", "interp")):
                    expect("stale", f"{direction} K=1 {edit}", got[i], want[i], EXACT)
                if CLAIMS[engine]["binds"] and misses != sub_pieces:
                    fails["stale"].append(
                        (f"grid K=1 {edit}", f"{misses} cache misses, not {sub_pieces}")
                    )
            if np.array_equal(wants["new array"][0], bound[0]):
                fails["stale"].append(
                    ("grid K=1 new array", "the moved sample left the grid unchanged")
                )
            if bands is not None and chunk and sub.shape[0] > chunk:
                # the scratch a pipelined multi-chunk call overwrites:
                # one chunk of A, every chunk of B, then A again
                a, va = sub[:chunk], v[:chunk]
                want = fresh.grid(a, va), fresh.interp(g, a)
                again = make_gridder(engine, setup, **options)
                again.grid(a, va), again.grid(sub, v)
                got = again.grid(a, va), again.interp(g, a)
                for i, direction in enumerate(("grid", "interp")):
                    expect("stale", f"{direction} K=1 A after B", got[i], want[i], EXACT)
    return fails


@functools.cache
def _nudft(problem: str):
    shape, coords = PLAN_PROBLEMS[problem]
    rng = np.random.default_rng(sum(map(ord, problem)))
    m = coords.shape[0]
    values = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    images = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    exact = nudft_adjoint(values[0], coords, shape), nudft_forward(images[0], coords)
    return values, images, exact


@functools.cache
def measure_plan(engine: str, kernel: str, problem: str) -> dict:
    """Every plan-level check of one engine, on K = 3 batches (whose
    rows are the single transforms, ``test_new_features.TestBatchNufft``):
    check -> failed cells."""
    shape, coords = PLAN_PROBLEMS[problem]
    values, images, exact = _nudft(problem)
    fails = {"nudft": [], "single": [], "adjoint": []}
    out = {}
    for precision, cdtype in (("double", np.complex128), ("single", np.complex64)):
        plan = NufftPlan(
            shape, coords, kernel=kernel, gridder=engine,
            precision=precision, fft_backend="numpy",
        )
        v, x = values.astype(cdtype), images.astype(cdtype)
        out[precision] = plan.adjoint_batch(v), plan.forward_batch(x)
        if {a.dtype for a in out[precision]} != {np.dtype(cdtype)}:
            fails["single"].append(f"{precision}: not {np.dtype(cdtype)}")
        for j in range(3):
            err = _dot_error(out[precision][0][j], x[j], v[j], out[precision][1][j])
            if err > PLAN_ADJOINT[precision]:
                fails["adjoint"].append(f"{precision} row {j}: dot-test error {err:.1e}")
    bound = NUDFT_BOUND[kernel, len(shape)]
    for i, direction in enumerate(("adjoint", "forward")):
        err = _nrmsd(out["double"][i][0], exact[i])
        if err > bound:
            fails["nudft"].append(f"{direction}: NRMSD {err:.1e} > {bound}")
        err = _nrmsd(out["single"][i], out["double"][i])
        if err > SINGLE_NRMSD:
            fails["single"].append(f"{direction} K=3: single-vs-double NRMSD {err:.1e}")
    return fails


GRIDDER_CHECKS = ("serial", "twin", "adjoint", "batch", "stale")
PLAN_CHECKS = ("nudft", "single", "adjoint")


def assert_cells(variants, dtypes=DTYPES, kernels=("kb",), geometries=GEOMETRIES,
                 checks=GRIDDER_CHECKS, cells: str = "") -> None:
    """Assert every gridder-level cell of the product of the arguments
    whose label contains ``cells``."""
    failed = [
        f"{v} {d} {k} {g} {check} {label}: {why}"
        for v in variants for d in dtypes for k in kernels for g in geometries
        for check in checks for label, why in measure(v, d, k, g)[check]
        if cells in label
    ]
    assert not failed, "\n".join(failed)


def assert_plan_cells(engines, kernels=("kb",), problems=PLAN_PROBLEMS,
                      checks=PLAN_CHECKS) -> None:
    """Assert every plan-level cell of the product of the arguments."""
    failed = [
        f"{e} {k} {p} {check}: {cell}"
        for e in engines for k in kernels for p in problems
        for check in checks for cell in measure_plan(e, k, p)[check]
    ]
    assert not failed, "\n".join(failed)


def test_every_engine_has_claims():
    assert set(CLAIMS) == set(available_gridders())
    assert set(OPTION_VARIANTS) <= set(CLAIMS)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("variant", variants())
def test_cells(variant, dtype, kernel, geometry):
    """Every check of one (variant, dtype, kernel, geometry): K = 1 and
    K = 3, both directions."""
    assert_cells([variant], [dtype], [kernel], [geometry])


@pytest.mark.parametrize("problem", PLAN_PROBLEMS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("engine", available_gridders())
def test_plan_cells(engine, kernel, problem):
    assert_plan_cells([engine], [kernel], [problem])


def _band_major(plan, bands: int, tile: int) -> tuple:
    """A one-band plan's ``(flat, weight, indptr)`` re-laid out as a
    ``bands``-band plan: entries stably sorted by the band of their
    axis-0 column, each band's ``(M + 1)`` absolute row pointers."""
    band = plan.flat // (plan.n_flat // tile) * bands // tile
    order = np.argsort(band, kind="stable")
    per_sample = band.reshape(plan.m, -1) if plan.m else band.reshape(0, 1)
    counts = np.stack([np.count_nonzero(per_sample == b, axis=1) for b in range(bands)])
    indptr = np.zeros((bands, plan.m + 1), dtype=plan.flat.dtype)
    indptr[:, 1:] = np.cumsum(counts, axis=1)
    indptr += np.concatenate(([0], np.cumsum(counts.sum(axis=1))[:-1]))[:, None].astype(indptr.dtype)
    return plan.flat[order], plan.weight[order], indptr


@pytest.mark.parametrize("bands", [2, "T"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_banded_compile_cells(geometry, dtype, bands):
    """A banded one-shot plan, its ``P`` sample ranges selected in
    parallel on the band pool, holds exactly the ``P = 1`` select's
    entries, re-laid out band-major."""
    setup, coords, _, _ = gridding_problem(geometry, "kb", dtype)
    coords = setup.check_coords(coords)
    with _banded(1):
        one = make_gridder("slice_and_dice_compiled", setup)._compile(coords)
    with _banded(bands):
        gridder = make_gridder("slice_and_dice_compiled", setup)
        threads = _select_threads(gridder)
        plan = gridder._compile(coords)
    tile, m = gridder.tile_size, coords.shape[0]
    p = (tile if bands == "T" else bands) if m else 1
    assert (one.n_bands, plan.n_bands) == (1, p)
    if m > 1:
        assert any(name.startswith("repro-band") for name in threads)
    for name, got, want in zip(("flat", "weight", "indptr"),
                               (plan.flat, plan.weight, plan.indptr),
                               _band_major(one, p, tile)):
        assert got.dtype == want.dtype and np.array_equal(got, want), name
