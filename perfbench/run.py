"""perfbench: end-to-end and per-layer benchmark of the NuFFT library and service.

One workload, as the benchmark contract runs it (prints metric lines, then
one JSON result as the last line)::

    python perfbench/run.py --workload serve_warm --seed 3 --seconds 20 --trace 0

Every workload, each in a fresh subprocess, ``--runs`` times, writing one
results file (default ``perfbench/results/<traced|untraced>-seed<S>.json``)::

    python perfbench/run.py --seed 0 [--runs 3] [--trace] [--smoke] [--out PATH]

Compare two results files (refused when their environment stamps differ
in anything but the git SHA)::

    python perfbench/run.py --compare PARENT.json CHANGE.json

See ``perfbench/README.md`` for the workloads, the metrics and how to read
a comparison.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
#: seconds one child run may take before the orchestrator gives up on it
CHILD_TIMEOUT_S = 600


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (import time is part of set-up)

    import repro  # noqa: F401
    import workloads

    t_imports = time.perf_counter() - T_START
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, t_imports
    )
    values = result["layers"] if args.trace else result["metrics"]
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in BENCHMARK["per_layer" if args.trace else "end_to_end"]
    }
    for name, metric in metrics.items():
        print(f"{args.workload:<16} {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    print("detail: " + json.dumps(result))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# every workload, each in its own subprocess
# ----------------------------------------------------------------------
def environment_stamp() -> dict:
    """Host and library facts a comparison must hold fixed."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    from repro.core.jit import jit_available
    from repro.nufft.fft_backend import fft_backend_available

    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lanes": {"numba": jit_available(), "pyfftw": fft_backend_available("pyfftw")},
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(proc.stdout.split("detail: ")[0])
    sys.stderr.write(proc.stderr)
    detail = [line for line in proc.stdout.splitlines() if line.startswith("detail: ")]
    if not detail:
        raise RuntimeError(f"{workload} (seed {seed}) exited {proc.returncode} without a result")
    record = json.loads(detail[-1][len("detail: "):])
    record.update(workload=workload, seed=seed)
    return record


def run_all(args) -> int:
    seconds = args.seconds
    stamp = environment_stamp()
    runs = []
    t0 = time.perf_counter()
    for i in range(args.runs):
        for workload in WORKLOADS:
            # run i of set S gets seed 1000 * S + i: sets never share a run
            runs.append(run_child(workload, 1000 * args.seed + i, seconds, args.trace, args.smoke))
    stamp["workloads"] = {
        w: {key: ",".join(sorted({r["detail"]["stamp"].get(key, "") for r in runs
                                  if r["workload"] == w}))
            for key in ("exec_lane", "fft_backend")}
        for w in WORKLOADS
    }
    stamp["mode"] = "smoke" if args.smoke else "full"
    stamp["seconds"] = seconds
    result = {
        "stamp": stamp,
        "settings": {"seed": args.seed, "runs": args.runs, "trace": bool(args.trace),
                     "wall_s": round(time.perf_counter() - t0, 1)},
        "runs": runs,
    }
    name = f"{'traced' if args.trace else 'untraced'}{'-smoke' if args.smoke else ''}-seed{args.seed}.json"
    out = Path(args.out) if args.out else HERE / "results" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    bad = [f"{r['workload']} seed {r['seed']}" for r in runs if not r["correct"]]
    print(f"wrote {out} ({len(runs)} runs in {result['settings']['wall_s']} s)")
    if bad:
        print("incorrect runs: " + ", ".join(bad))
        return 1
    return 0


# ----------------------------------------------------------------------
# comparing two results files
# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """``improved``, ``regressed``, ``unchanged`` or ``unresolved``.

    Unresolved when the parent's own interquartile distance, as a share
    of its median, exceeds the bound (unless every change run beats every
    parent run).  Regressed when the change's median is worse than the
    parent's by more than the bound.  Improved when the change wins at
    least nine tenths of the run pairs and the medians differ by more
    than the parent's interquartile distance.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = _quartiles(parent)
    _, cm, _ = _quartiles(change)
    scale = abs(pm) or 1.0
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p3 - p1) / scale > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) / scale > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return "improved"
    return "unchanged"


def compare(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    a = {k: v for k, v in parent["stamp"].items() if k != "git_sha"}
    b = {k: v for k, v in change["stamp"].items() if k != "git_sha"}
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        print(f"refusing to compare: environment stamps differ in {', '.join(diff)}")
        return 2
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    verdicts = []
    for workload in WORKLOADS:
        for spec in BENCHMARK["end_to_end"]:
            name = spec["name"]
            pv = [r["metrics"][name] for r in parent["runs"] if r["workload"] == workload]
            cv = [r["metrics"][name] for r in change["runs"] if r["workload"] == workload]
            if not pv or not cv:
                continue
            v = verdict(pv, cv, spec["bound"], spec["better"])
            verdicts.append(v)
            cells = []
            for values in (pv, cv):
                q1, q2, q3 = _quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] (n={len(values)})")
            print(f"{workload:<16} {name:<18} {cells[0]:>34} {cells[1]:>34}  {v}")
    counts = {v: verdicts.count(v) for v in ("improved", "unchanged", "regressed", "unresolved")}
    print(", ".join(f"{v}: {n}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of "
                             "BENCHMARK.json, 1.5 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="split the measured time into an untraced and a traced half "
                             "and report per-layer metrics")
    parser.add_argument("--runs", type=int, default=3, help="runs per workload (all workloads)")
    parser.add_argument("--smoke", action="store_true", help="small sizes, same code paths")
    parser.add_argument("--out", help="results file (all workloads)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(BENCHMARK["run_seconds"])
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
