"""Chunk mode of the compiled engine: memory, registry, service.

The contract (``chunk_samples=`` of
``repro.core.CompiledSliceAndDiceGridder``):

- a chunked pass is **bit-identical** (``np.array_equal``) to the
  one-shot compiled engine at both dtypes for any chunk size — 1,
  non-dividing, dividing, larger than ``M`` — in both directions,
  single and batched, on every geometry, and it is an adjoint pair.
  These are the ``twin`` and ``adjoint`` cells of
  ``tests/test_engine_matrix.py``; each ``TestBitIdentity`` id below
  asserts the cells of its chunk size, geometry, dtype and direction;
- the reported ``peak_bytes`` is a true high-water mark
  (tracemalloc-cross-checked) and shrinks with the chunk size while
  the one-shot engine's does not, and ``max_bytes`` budgets hold.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import CompiledSliceAndDiceGridder
from repro.gridding import GriddingSetup, choose_chunk_samples, make_gridder
from repro.kernels import KernelLUT, beatty_kernel
from tests.conftest import gridding_problem, random_samples
from tests.test_engine_matrix import (
    DTYPES,
    KERNELS,
    OPTION_VARIANTS,
    assert_cells,
    legacy_geometry,
)

COMPILED = "slice_and_dice_compiled"

#: the compiled engine's chunk-mode variants in the matrix
CHUNKED = [f"{COMPILED}+{name}" for name in OPTION_VARIANTS[COMPILED] if name.startswith("chunk")]

#: (chunk, geometry) cases: every chunk size on the square grid,
#: chunk 1 and chunk > M on every other geometry, and an empty call
BIT_CASES = [pytest.param(c, "square", id=str(c)) for c in (1, 7, 100, 1000, 5000)] + [
    pytest.param(c, g, id=f"{g}-{c}") for g in ("rect", "es", "edge") for c in (1, 5000)
] + [pytest.param(64, "empty", id="empty-64")]


def chunk_cells(chunk: int, name: str, cells: str, dtype="complex128", lane=None) -> None:
    """The ``twin`` cells of chunk size ``chunk`` on one geometry whose
    labels start with ``cells`` (chunked == one-shot, ``array_equal``,
    with the chunk count); with ``lane``, also the execution lane the
    chunked pass reports."""
    assert_cells([f"{COMPILED}+chunk{chunk}"], [dtype], checks=["twin"], cells=cells,
                 **legacy_geometry(name))
    if lane is not None:
        setup, coords, values, _ = gridding_problem(legacy_geometry(name)["geometries"][0])
        gridder = make_gridder(COMPILED, setup, chunk_samples=chunk)
        gridder.grid(coords[:chunk], values[0, :chunk])
        assert gridder.stats.exec_lane == lane


# ----------------------------------------------------------------------
# bit-identity chunked vs one-shot (the identity table)
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("chunk,geometry", BIT_CASES)
    @pytest.mark.parametrize("lane", ["numpy"])
    def test_grid_2d(self, chunk, geometry, lane):
        chunk_cells(chunk, geometry, "grid", lane=lane)

    @pytest.mark.parametrize("chunk", (1, 37, 500))
    def test_grid_3d(self, chunk):
        chunk_cells(chunk, "3d", "grid")

    @pytest.mark.parametrize("chunk", (13, 128))
    def test_grid_batch(self, chunk):
        chunk_cells(chunk, "square", "grid K=3")

    @pytest.mark.parametrize("chunk,geometry", BIT_CASES)
    @pytest.mark.parametrize("lane", ["numpy"])
    def test_interp_2d(self, chunk, geometry, lane):
        chunk_cells(chunk, geometry, "interp", lane=lane)

    @pytest.mark.parametrize("chunk", (1, 37, 500))
    def test_interp_3d(self, chunk):
        chunk_cells(chunk, "3d", "interp")

    def test_interp_batch(self):
        chunk_cells(77, "square", "interp K=3")

    @pytest.mark.parametrize("chunk,geometry", BIT_CASES)
    def test_interp_complex64(self, chunk, geometry):
        chunk_cells(chunk, geometry, "interp", "complex64")

    @pytest.mark.parametrize("chunk", (1, 37, 500))
    def test_grid_complex64(self, chunk):
        chunk_cells(chunk, "square", "grid", "complex64")


class TestAdjointness:
    def test_streamed_pair_is_adjoint(self):
        assert_cells(CHUNKED, DTYPES, KERNELS, checks=["adjoint"])


# ----------------------------------------------------------------------
# memory accounting (satellite: true peak_bytes)
# ----------------------------------------------------------------------
class TestMemory:
    def test_stats_fields(self, small_setup, rng):
        coords, values = random_samples(rng, 500, small_setup.grid_shape)
        stm = make_gridder(
            "slice_and_dice_compiled", small_setup, chunk_samples=64
        )
        stm.grid(coords, values)
        st_ = stm.stats
        assert st_.chunks == int(np.ceil(500 / 64))
        assert st_.chunk_bytes > 0
        assert st_.peak_bytes > 0
        assert st_.samples_processed == 500
        # every chunk's select time, read by benches as the compile layer
        assert st_.plan_compile_seconds + st_.table_build_seconds > 0
        assert st_.plan_nnz == 500 * small_setup.width ** 2

    def test_repeated_chunk_skips_select(self, small_setup, rng):
        """A trajectory that fits in one chunk is selected once; the
        calls after it (CG's grid/interp pairs) reuse the entries the
        scratch still holds.  Only the same coordinates hit."""
        coords, values = random_samples(rng, 500, small_setup.grid_shape)
        grid = rng.standard_normal(small_setup.grid_shape) + 0j
        ref = make_gridder("slice_and_dice_compiled", small_setup)
        stm = make_gridder(
            "slice_and_dice_compiled", small_setup, chunk_samples=500
        )
        for call in range(2):
            assert np.array_equal(stm.grid(coords, values), ref.grid(coords, values))
            assert stm.stats.cache_hits == call
            assert np.array_equal(stm.interp(grid, coords), ref.interp(grid, coords))
            assert (stm.stats.cache_hits, stm.stats.boundary_checks) == (1, 0)
        # one moved row is enough to miss
        other = coords.copy()
        other[1] = other[2]
        fresh = make_gridder("slice_and_dice_compiled", small_setup)
        assert np.array_equal(stm.grid(other, values), fresh.grid(other, values))
        assert stm.stats.cache_misses == 1
        # every chunk of a longer pass is selected afresh
        stm.chunk_samples = 100
        stm.grid(coords, values)
        assert (stm.stats.cache_hits, stm.stats.cache_misses) == (0, 5)

    def test_peak_bytes_shrinks_with_chunk(self, small_setup, rng):
        coords, values = random_samples(rng, 2000, small_setup.grid_shape)
        peaks = {}
        for chunk in (50, 2000):
            stm = make_gridder(
                "slice_and_dice_compiled", small_setup, chunk_samples=chunk
            )
            stm.grid(coords, values)
            peaks[chunk] = stm.stats.peak_bytes
        ref = make_gridder("slice_and_dice_compiled", small_setup)
        ref.grid(coords, values)
        assert peaks[50] < peaks[2000]
        assert peaks[50] < ref.stats.peak_bytes

    def test_one_shot_engines_report_peak_bytes(self, small_setup, rng):
        """Satellite: the one-shot engines' peak_bytes now includes the
        dice + plan + transient tables, not just the pooled buffer."""
        coords, values = random_samples(rng, 400, small_setup.grid_shape)
        for name in ("slice_and_dice", "slice_and_dice_compiled"):
            g = make_gridder(name, small_setup)
            g.grid(coords, values)
            n_flat_bytes = (
                int(np.prod(small_setup.grid_shape))
                * small_setup.dtype.itemsize
            )
            # at least the dice must be accounted for
            assert g.stats.peak_bytes >= n_flat_bytes

    def test_peak_bytes_tracks_tracemalloc(self, rng):
        """The reported high water must match the allocator's measured
        peak for the pass: never under by more than the interpreter
        noise floor, never over by 2x.  Each case's working set is many
        times that floor, so an undercount in the model shows."""
        cases = [  # (grid shape, W, dtype, chunk samples)
            ((64, 64), 6, np.complex128, 12288),
            ((64, 64), 6, np.complex64, 16384),
            ((32, 32, 32), 4, np.complex128, 6144),
        ]
        for shape, width, dtype, chunk in cases:
            setup = GriddingSetup(
                shape, KernelLUT(beatty_kernel(width, 2.0), 64), dtype=dtype
            )
            coords, values = random_samples(rng, 3 * chunk, shape)
            values = values.astype(dtype)
            # a fresh engine: the dice and the chunk scratch are
            # allocated inside the trace, with every chunk's select
            # transients
            stm = make_gridder(
                "slice_and_dice_compiled", setup, chunk_samples=chunk
            )
            tracemalloc.start()
            tracemalloc.reset_peak()
            stm.grid(coords, values)
            _, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak = stm.stats.peak_bytes
            assert peak > 8_000_000
            assert 0.5 * peak <= traced_peak <= peak + 1_000_000, (
                shape, dtype, traced_peak, peak
            )

    def test_choose_chunk_samples(self):
        # full fit -> one chunk
        assert choose_chunk_samples(1000, (64, 64), 4, max_bytes=None) == 1000
        # budget binds -> smaller chunk, at least 1
        c = choose_chunk_samples(10**8, (256, 256), 4, max_bytes=2**30)
        assert 1 <= c < 10**8
        # grid alone over budget -> error
        with pytest.raises(ValueError, match="max_bytes"):
            choose_chunk_samples(100, (1024, 1024), 4, max_bytes=1024)

    def test_choose_chunk_budget_respected(self, small_setup, rng):
        coords, values = random_samples(rng, 5000, small_setup.grid_shape)
        budget = 2_000_000
        chunk = choose_chunk_samples(
            5000, small_setup.grid_shape, 6, max_bytes=budget
        )
        grid = rng.standard_normal(small_setup.grid_shape) + 0j
        stm = make_gridder(
            "slice_and_dice_compiled", small_setup, chunk_samples=chunk
        )
        stm.grid(coords, values)
        assert stm.stats.peak_bytes <= budget
        stm.interp(grid, coords)
        assert stm.stats.peak_bytes <= budget


# ----------------------------------------------------------------------
# registry + engine surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registered(self, small_setup):
        """Chunk mode is the compiled engines' option, not an engine of
        its own."""
        from repro.gridding import available_gridders

        assert "slice_and_dice_streaming" not in available_gridders()
        stm = make_gridder(
            "slice_and_dice_compiled", small_setup, chunk_samples=64
        )
        assert isinstance(stm, CompiledSliceAndDiceGridder)
        assert make_gridder("slice_and_dice_compiled", small_setup).chunk_samples is None

    def test_chunk_samples_retargets(self, small_setup, rng):
        """``chunk_samples=`` keeps the engine and puts it in chunk
        mode."""
        g = make_gridder(
            "slice_and_dice_compiled", small_setup, chunk_samples=128
        )
        assert g.name == "slice_and_dice_compiled"
        assert g.chunk_samples == 128
        coords, values = random_samples(rng, 300, small_setup.grid_shape)
        g.grid(coords, values)
        assert g.stats.chunks == 3
        assert g.stats.exec_lane == "numpy"

    def test_serial_engine_rejects_chunk_samples(self, small_setup):
        with pytest.raises(ValueError, match="chunk mode"):
            make_gridder("slice_and_dice", small_setup, chunk_samples=128)

    def test_bad_lane_rejected(self, small_setup):
        """The compiled engine has one lane and no lane or backend
        option, in chunk mode too."""
        with pytest.raises(TypeError, match="lane"):
            make_gridder(
                "slice_and_dice_compiled", small_setup,
                chunk_samples=64, lane="numpy",
            )
        with pytest.raises(TypeError, match="backend"):
            make_gridder(
                "slice_and_dice_compiled", small_setup,
                chunk_samples=64, backend="cuda",
            )
        with pytest.raises(ValueError, match="chunk_samples"):
            make_gridder("slice_and_dice_compiled", small_setup, chunk_samples=0)

    def test_nufft_plan_reports_chunks(self, rng):
        from repro.nufft import NufftPlan

        coords = rng.uniform(-0.5, 0.5, (600, 2))
        values = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        plan = NufftPlan(
            (16, 16), coords,
            gridder="slice_and_dice_compiled",
            gridder_options={"chunk_samples": 100},
        )
        plan.adjoint(values)
        assert plan.timings.chunks == 6
        one_shot = NufftPlan((16, 16), coords, gridder="slice_and_dice_compiled")
        one_shot.adjoint(values)
        assert one_shot.timings.chunks == 0


# ----------------------------------------------------------------------
# service integration (max_bytes budget)
# ----------------------------------------------------------------------
class TestService:
    def test_max_bytes_routes_to_streaming(self, rng):
        from repro.service import ReconService
        from repro.service.jobs import JobSpec

        coords = rng.uniform(-0.5, 0.5, (3000, 2))
        samples = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        payload = {
            "image_shape": [32, 32],
            "coords": coords.tolist(),
            "samples": {
                "real": samples.real.tolist(),
                "imag": samples.imag.tolist(),
            },
            "method": "adjoint",
        }
        budget = 2_000_000
        with ReconService(workers=1) as svc:
            plain = svc.submit(JobSpec.from_payload(payload))
            svc.wait(plain.id, 60)
            assert plain.state == "done", plain.error
            budgeted = svc.submit(
                JobSpec.from_payload(
                    {**payload, "options": {"max_bytes": budget}}
                )
            )
            svc.wait(budgeted.id, 60)
            assert budgeted.state == "done", budgeted.error
            r_plain = plain.result
            r_budget = budgeted.result
            assert r_plain.chunks == 0
            assert r_budget.chunks > 1
            assert r_budget.peak_bytes <= budget
            assert np.array_equal(r_plain.image, r_budget.image)
            # surfaced in the JSON views
            assert r_budget.as_dict()["chunks"] == r_budget.chunks
            stats = svc.stats()
            assert stats["workers"][0]["jobs_chunked"] == 1

    @staticmethod
    def _run(svc, spec):
        job = svc.submit(spec)
        svc.wait(job.id, 60)
        assert job.state == "done", job.error
        return job.result

    @pytest.mark.parametrize(
        "options",
        [{"tile_size": 16}],
        ids=["tile_size"],
    )
    def test_max_bytes_keeps_engine_options(self, rng, options):
        """A budget puts the client's engine, with the client's
        options, in chunk mode: the image is the unbudgeted one."""
        from repro.service import ReconService
        from repro.service.jobs import JobSpec

        coords = rng.uniform(-0.5, 0.5, (3000, 2))
        samples = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)

        def spec(**kw):
            return JobSpec(
                (32, 32), coords, samples, method="adjoint",
                gridder="slice_and_dice_compiled",
                gridder_options=dict(options), **kw,
            )

        with ReconService(workers=1) as svc:
            plain = self._run(svc, spec())
            budgeted = self._run(svc, spec(max_bytes=10**7))
        assert plain.chunks == 0 and budgeted.chunks >= 1
        assert np.array_equal(plain.image, budgeted.image)

    @pytest.mark.parametrize("budget", (3_000_000, 5_000_000, 8_000_000))
    def test_max_bytes_holds_on_padded_grid(self, rng, budget):
        """A 30x30 image builds a 64x64 grid (60 padded to the tile
        size): the chunk is sized for that grid, so the budget holds."""
        from repro.service import ReconService
        from repro.service.jobs import JobSpec

        coords = rng.uniform(-0.5, 0.5, (20_000, 2))
        samples = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        with ReconService(workers=1) as svc:
            result = self._run(svc, JobSpec(
                (30, 30), coords, samples, method="adjoint",
                gridder="slice_and_dice_compiled", max_bytes=budget,
            ))
        assert result.chunks > 1
        assert result.peak_bytes <= budget

    def test_serial_engine_budget_rejected_at_submit(self, rng):
        from repro.service.jobs import JobSpec

        coords = rng.uniform(-0.5, 0.5, (100, 2))
        with pytest.raises(ValueError, match="chunk mode"):
            JobSpec(
                (16, 16), coords, np.ones(100, complex),
                gridder="slice_and_dice", max_bytes=10**7,
            )

    def test_max_bytes_is_plan_shaped(self, rng):
        from repro.service.jobs import JobSpec

        coords = rng.uniform(-0.5, 0.5, (100, 2))
        samples = rng.standard_normal(100) + 0j
        a = JobSpec(
            image_shape=(16, 16), coords=coords, samples=samples,
        )
        b = JobSpec(
            image_shape=(16, 16), coords=coords, samples=samples,
            max_bytes=10**6,
        )
        assert a.plan_key() != b.plan_key()

    def test_unknown_option_still_rejected(self):
        from repro.service.jobs import JobSpec

        with pytest.raises(ValueError, match="unknown option"):
            JobSpec.from_payload(
                {
                    "image_shape": [8, 8],
                    "coords": [[0.0, 0.0]],
                    "samples": [1.0],
                    "options": {"max_bytez": 1},
                }
            )
