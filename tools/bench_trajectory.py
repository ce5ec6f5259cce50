#!/usr/bin/env python
"""Trajectory gridding benchmark with a committed regression baseline.

Times warm (table-/plan-cache hit) and cold gridding for the serial
engine and the compiled engine — its default backend (numba when
importable, else csr: the record's ``exec_lane`` field says which
lane actually ran) and its csr backend — on a fixed
random trajectory, then **appends** one record per engine to
``BENCH_gridding.json`` at the repository root.  The committed file
doubles as the regression baseline: ``--check`` compares each engine's
warm speedup over the serial engine against the last committed record
for the same ``(mode, engine, m, grid, width, dtype, kernel)`` shape
and fails (exit 1) on a more-than-2x regression.

Usage::

    python tools/bench_trajectory.py              # full size, append
    python tools/bench_trajectory.py --smoke      # CI-sized problem
    python tools/bench_trajectory.py --smoke --check   # CI gate
    python tools/bench_trajectory.py --dry-run    # print, don't write

The full problem matches the ablation benchmark
(``benchmarks/test_ablation_compiled_plan.py``): M = 65536 samples on
a 256^2 grid with W = 4.  Smoke mode shrinks to M = 8192 on 128^2 so
the CI job finishes in seconds while still exercising every code path
(plan compile, plan hit, CSR matvec).

``--dtype`` selects the working dtype: ``double`` (complex128),
``single`` (complex64 setup, float32 tables/weights), or ``both``
(default).  Each record carries its lane in a ``dtype`` field; the
warm speedup is always measured against the serial engine *of the
same lane* so the two lanes stay comparable over time.

``--kernel`` selects the interpolation window(s): ``kb``
(Kaiser-Bessel, default), ``es`` (exponential of semicircle), or
``both`` — each record carries its window in a ``kernel`` field.

``--stream`` switches to the bounded-memory streaming benchmark: the
trajectory is *generated to disk* block by block (never resident), then
gridded from the raw files through
:class:`repro.gridding.SampleStream.from_file` by the compiled engine's
chunk mode with a fixed ``--chunk-samples`` chunk.  The record carries ``chunks``,
``peak_bytes`` (the engine's own transient high water) and ``rss_mb``
(``ru_maxrss`` — the whole process).  ``--samples 1e8``
reproduces the paper-scale run; ``--max-rss-mb`` turns the RSS into a
hard gate (exit 1), which is how CI pins the O(chunk + grid) claim.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.gridding import GriddingSetup, make_gridder  # noqa: E402
from repro.kernels import KernelLUT, make_kernel  # noqa: E402
from repro.trajectories import random_trajectory  # noqa: E402

#: engine name -> extra make_gridder kwargs
ENGINES = {
    "slice_and_dice": {},
    "slice_and_dice_compiled": {},
    "slice_and_dice_compiled[csr]": {"backend": "csr"},
}

SIZES = {
    "full": {"m": 65536, "grid": 256, "width": 4},
    "smoke": {"m": 8192, "grid": 128, "width": 4},
}

#: default --stream sample counts (full matches the paper-scale claim)
STREAM_SAMPLES = {"full": 100_000_000, "smoke": 300_000}

#: --check fails when warm speedup drops below baseline / this factor
REGRESSION_FACTOR = 2.0


def _best_of(fn, repeats: int = 5) -> float:
    """Best-of-N wall clock with one untimed warm-up call."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark(
    mode: str,
    dtypes: tuple[str, ...] = ("double",),
    kernels: tuple[str, ...] = ("kb",),
) -> list[dict]:
    """One record per (engine, dtype, kernel) for the given problem size."""
    size = SIZES[mode]
    m, g, w = size["m"], size["grid"], size["width"]
    coords = np.mod(random_trajectory(m, 2, rng=0), 1.0) * g
    rng = np.random.default_rng(7)
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)

    records = []
    for dtype_name in dtypes:
        cdtype = np.complex64 if dtype_name == "single" else np.complex128
        for kern in kernels:
            setup = GriddingSetup(
                (g, g), KernelLUT(make_kernel(kern, w), 64), dtype=cdtype
            )
            vals = values.astype(cdtype)
            serial_warm = None
            for engine, kwargs in ENGINES.items():
                name = engine.split("[", 1)[0]
                gridder = make_gridder(name, setup, **kwargs)
                t0 = time.perf_counter()
                gridder.grid(coords, vals)  # cold: table build / plan compile
                cold = time.perf_counter() - t0
                misses = gridder.stats.cache_misses
                warm = _best_of(lambda: gridder.grid(coords, vals))
                hits = gridder.stats.cache_hits
                if serial_warm is None:  # dict order: serial engine runs first
                    serial_warm = warm
                records.append(
                    {
                        "timestamp": time.strftime(
                            "%Y-%m-%dT%H:%M:%S", time.gmtime()
                        ),
                        "mode": mode,
                        "engine": engine,
                        "m": m,
                        "grid": g,
                        "width": w,
                        "dtype": dtype_name,
                        "kernel": kern,
                        "exec_lane": gridder.stats.exec_lane,
                        "seconds_cold": round(cold, 6),
                        "seconds_warm": round(warm, 6),
                        "plan_hits": int(hits),
                        "plan_misses": int(misses),
                        "warm_speedup_vs_serial": round(serial_warm / warm, 3),
                    }
                )
    return records


def _write_radial_files(
    coords_path: Path, values_path: Path, m: int, g: int, block: int = 1_000_000
) -> None:
    """Generate a 2-D radial-ish trajectory + values straight to disk.

    Blocks are seeded per index so the files are deterministic and no
    more than one block is ever resident — generation itself is
    O(block), matching the O(chunk) promise of the read side.  Files
    already on disk at the right size are reused verbatim (they are
    deterministic), so an interrupted run resumes without paying the
    multi-GB generation again.
    """
    if (
        coords_path.exists()
        and coords_path.stat().st_size == m * 2 * 8
        and values_path.exists()
        and values_path.stat().st_size == m * 16
    ):
        return
    with open(coords_path, "wb") as cf, open(values_path, "wb") as vf:
        for lo in range(0, m, block):
            n = min(block, m - lo)
            rng = np.random.default_rng(lo)
            # radial spokes: radius in [0, g/2), angle uniform, recentered
            radius = rng.uniform(0.0, 0.5, n) * g
            theta = rng.uniform(0.0, 2.0 * np.pi, n)
            coords = np.empty((n, 2), dtype=np.float64)
            coords[:, 0] = np.mod(radius * np.cos(theta), g)
            coords[:, 1] = np.mod(radius * np.sin(theta), g)
            coords.tofile(cf)
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            vals.astype(np.complex128).tofile(vf)


def run_stream_benchmark(
    mode: str, samples: int, chunk_samples: int, workdir: Path
) -> list[dict]:
    """One streamed-adjoint record from raw files."""
    import resource

    from repro.gridding import SampleStream

    size = SIZES[mode]
    g, w = size["grid"], size["width"]
    coords_path = workdir / "stream_coords.f64"
    values_path = workdir / "stream_values.c128"
    print(f"generating {samples} samples to {workdir} ...", flush=True)
    _write_radial_files(coords_path, values_path, samples, g)

    setup = GriddingSetup((g, g), KernelLUT(make_kernel("kb", w), 64))
    gridder = make_gridder(
        "slice_and_dice_compiled", setup, chunk_samples=chunk_samples
    )
    stream = SampleStream.from_file(
        coords_path,
        m=samples,
        ndim=2,
        values_path=values_path,
        chunk_samples=chunk_samples,
    )
    t0 = time.perf_counter()
    gridder.grid_stream(stream)
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "mode": "stream",
            "engine": "slice_and_dice_compiled[chunked]",
            "m": samples,
            "grid": g,
            "width": w,
            "dtype": "double",
            "kernel": "kb",
            "exec_lane": gridder.stats.exec_lane,
            "chunk_samples": chunk_samples,
            "chunks": int(gridder.stats.chunks),
            "peak_bytes": int(gridder.stats.peak_bytes),
            "rss_mb": round(rss_mb, 1),
            "seconds": round(seconds, 6),
            "samples_per_second": round(samples / seconds, 1),
        }
    ]


def load_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8"))


def check_regressions(baseline: list[dict], current: list[dict]) -> list[str]:
    """Failure messages for every engine slower than baseline / 2."""
    failures = []
    def _key(r: dict) -> tuple:
        # pre-axis records were all complex128 Kaiser-Bessel
        return (
            r["mode"], r["engine"], r["m"], r["grid"], r["width"],
            r.get("dtype", "double"), r.get("kernel", "kb"),
        )

    for rec in current:
        if "warm_speedup_vs_serial" not in rec:
            continue  # streaming records gate on RSS, not warm speedup
        prior = [
            b for b in baseline
            if "warm_speedup_vs_serial" in b and _key(b) == _key(rec)
        ]
        if not prior:
            continue  # no committed baseline for this shape yet
        base = prior[-1]["warm_speedup_vs_serial"]
        now = rec["warm_speedup_vs_serial"]
        if now < base / REGRESSION_FACTOR:
            failures.append(
                f"{rec['engine']} ({rec['mode']}): warm speedup {now:.2f}x "
                f"is more than {REGRESSION_FACTOR:.0f}x below the committed "
                f"baseline {base:.2f}x"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized problem (M=8192, 128^2) instead of the full size",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on a >2x warm-speedup regression vs the "
        "committed baseline",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print records without appending to the output file",
    )
    parser.add_argument(
        "--dtype",
        choices=("double", "single", "both"),
        default="both",
        help="working dtype lane(s) to benchmark (default: both)",
    )
    parser.add_argument(
        "--kernel",
        choices=("kb", "es", "both"),
        default="kb",
        help="interpolation window(s) to benchmark (default: kb)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_gridding.json",
        help="records file (default: BENCH_gridding.json at the repo root)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="run the bounded-memory streaming benchmark from raw files "
        "instead of the in-memory engine comparison",
    )
    parser.add_argument(
        "--samples",
        type=float,
        default=None,
        help="streamed sample count (accepts 1e8 notation; default "
        "3e5 smoke / 1e8 full)",
    )
    parser.add_argument(
        "--chunk-samples",
        type=int,
        default=262144,
        help="streamed chunk size (default 262144)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="fail (exit 1) if the streamed run's peak RSS exceeds this",
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="directory for the generated trajectory files "
        "(default: a temporary directory, deleted afterwards)",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    baseline = load_records(args.output)

    if args.stream:
        import shutil
        import tempfile

        samples = int(
            args.samples if args.samples is not None else STREAM_SAMPLES[mode]
        )
        workdir = args.workdir
        cleanup = workdir is None
        if workdir is None:
            workdir = Path(tempfile.mkdtemp(prefix="bench_stream_"))
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            records = run_stream_benchmark(
                mode, samples, args.chunk_samples, workdir
            )
        finally:
            if cleanup:
                shutil.rmtree(workdir, ignore_errors=True)
        header = (
            f"{'engine':<36} {'chunks':>8} {'peak MB':>9} {'RSS MB':>9} "
            f"{'seconds':>9}"
        )
        print(header)
        print("-" * len(header))
        for rec in records:
            print(
                f"{rec['engine']:<36} {rec['chunks']:>8} "
                f"{rec['peak_bytes'] / 2**20:>8.1f} {rec['rss_mb']:>8.1f} "
                f"{rec['seconds']:>8.2f}s"
            )
        status = 0
        if args.max_rss_mb is not None:
            worst = max(rec["rss_mb"] for rec in records)
            if worst > args.max_rss_mb:
                print(
                    f"\nRSS gate FAILED: peak {worst:.1f} MB > "
                    f"--max-rss-mb {args.max_rss_mb:.1f}"
                )
                status = 1
            else:
                print(
                    f"\nRSS gate OK: peak {worst:.1f} MB <= "
                    f"{args.max_rss_mb:.1f} MB"
                )
        if not args.dry_run and status == 0:
            baseline.extend(records)
            args.output.write_text(
                json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
            )
            print(f"appended {len(records)} records to {args.output.name}")
        return status

    dtypes = ("double", "single") if args.dtype == "both" else (args.dtype,)
    kernels = ("kb", "es") if args.kernel == "both" else (args.kernel,)
    records = run_benchmark(mode, dtypes, kernels)

    header = (
        f"{'engine':<28} {'dtype':<7} {'kern':<5} {'cold':>9} {'warm':>9} "
        f"{'vs serial':>10}"
    )
    print(header)
    print("-" * len(header))
    for rec in records:
        print(
            f"{rec['engine']:<28} {rec['dtype']:<7} {rec['kernel']:<5} "
            f"{rec['seconds_cold']:>8.4f}s "
            f"{rec['seconds_warm']:>8.4f}s "
            f"{rec['warm_speedup_vs_serial']:>9.2f}x"
        )

    status = 0
    if args.check:
        failures = check_regressions(baseline, records)
        if failures:
            print("\nperformance regressions detected:")
            for line in failures:
                print(f"  {line}")
            status = 1
        else:
            print("\nno regression vs committed baseline")

    if not args.dry_run and status == 0:
        baseline.extend(records)
        args.output.write_text(
            json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
        )
        print(f"appended {len(records)} records to {args.output.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
