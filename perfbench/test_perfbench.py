"""Self-test of the benchmark: ``pytest perfbench`` (not part of tier-1).

Runs every workload at smoke size, so it takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_and_untraced(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def test_every_declared_metric_is_emitted(traced_and_untraced):
    workload, untraced, traced = traced_and_untraced
    for proc, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    e2e = json.loads(untraced.stdout.splitlines()[-1])["metrics"]
    assert all(m["value"] > 0 for m in e2e.values()), workload


def test_traced_self_times_add_up_to_the_root(traced_and_untraced):
    workload, _, traced = traced_and_untraced
    layers = {n: m["value"] for n, m in json.loads(traced.stdout.splitlines()[-1])["metrics"].items()}
    covered = sum(layers[name] for name in spans.PARTITION)
    root = covered + layers["trace.unattributed_s"]
    assert abs(layers["trace.unattributed_s"]) <= 0.1 * root, (workload, layers)


def test_injected_fft_delay_lands_in_fft_only(monkeypatch):
    from repro.nufft import fft_backend

    def layers():
        result = workloads.run_workload("lib_cg_gridding", 3, 2.0, True, True, 0.0)
        return result["layers"]

    base = layers()
    delay = 0.02
    for cls in (fft_backend.NumpyFftBackend, fft_backend.ScipyFftBackend):
        for attr in ("fftn", "ifftn"):
            original = getattr(cls, attr)

            def slow(self, *args, _original=original, **kwargs):
                import time

                time.sleep(delay)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, attr, slow)
    slowed = layers()
    injected = delay * slowed["fft.calls"]
    assert slowed["fft.calls"] == base["fft.calls"]
    assert slowed["fft.s"] - base["fft.s"] == pytest.approx(injected, rel=0.25)
    for name in spans.PARTITION + ("trace.unattributed_s",):
        if name != "fft.s":
            assert abs(slowed[name] - base[name]) < 0.1 * injected, name


def test_spot_sum_matches_the_nudft():
    from repro.nudft import nudft_adjoint

    rng = np.random.default_rng(0)
    coords = rng.uniform(-0.5, 0.5, (300, 2))
    values = rng.normal(size=300) + 1j * rng.normal(size=300)
    pixels = rng.integers(0, 16, (5, 2))
    full = nudft_adjoint(values, coords, (16, 16))
    got = workloads.exact_adjoint_at(coords, values, pixels, (16, 16))
    np.testing.assert_allclose(got, full[pixels[:, 0], pixels[:, 1]], rtol=1e-10)


def test_analytic_phantom_samples_match_the_raster_at_low_frequency():
    from repro.nufft import NufftPlan
    from repro.phantoms import shepp_logan_2d

    rng = np.random.default_rng(1)
    coords = rng.uniform(-0.05, 0.05, (200, 2))
    raster = NufftPlan((128, 128), coords).forward(shepp_logan_2d(128))
    analytic = workloads.shepp_logan_kspace(coords, 128)
    assert np.linalg.norm(analytic - raster) <= 0.05 * np.linalg.norm(raster)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert run.verdict(parent, [1.00, 1.01, 1.00, 0.99, 1.01], 0.1, "lower") == "unchanged"
    assert run.verdict(parent, [1.2, 1.21, 1.19, 1.2, 1.22], 0.1, "lower") == "regressed"
    assert run.verdict(parent, [0.8, 0.81, 0.79, 0.8, 0.82], 0.1, "lower") == "improved"
    assert run.verdict(parent, [0.8, 0.81, 0.79, 0.8, 0.82], 0.1, "higher") == "regressed"
    noisy = [0.5, 1.0, 1.5, 1.0, 2.0]
    assert run.verdict(noisy, [1.0, 1.0, 1.0, 1.0, 1.0], 0.1, "lower") == "unresolved"


def test_compare_refuses_different_stamps(tmp_path, capsys):
    stamp = {"git_sha": "a", "nproc": 2, "numpy": "1"}
    record = {"workload": "serve_warm",
              "metrics": {m["name"]: 1.0 for m in BENCHMARK["end_to_end"]}}
    (tmp_path / "p.json").write_text(json.dumps({"stamp": stamp, "runs": [record]}))
    (tmp_path / "c.json").write_text(json.dumps(
        {"stamp": dict(stamp, git_sha="b", nproc=4), "runs": [record]}))
    (tmp_path / "same.json").write_text(json.dumps(
        {"stamp": dict(stamp, git_sha="b"), "runs": [record]}))
    assert run.compare(str(tmp_path / "p.json"), str(tmp_path / "c.json")) == 2
    assert "nproc" in capsys.readouterr().out
    assert run.compare(str(tmp_path / "p.json"), str(tmp_path / "same.json")) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("lib_cg_gridding", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
