"""The four perfbench workloads, their inputs and their correctness gates.

Every input is made here from the workload seed; the program under test
(the library in-process, or the service over HTTP) only ever sees the
generated trajectories, samples and weights.

``serve_warm``
    Closed loop over HTTP, 2 clients, each reconstructing its own 256^2
    golden-angle radial trajectory (CG, 10 iterations, Toeplitz normal
    operator).  Every timed job hits the worker's plan and Toeplitz
    caches.
``serve_cold``
    Closed loop over HTTP, 1 client; every job is a fresh rotation of the
    trajectory, so it misses both caches and pays plan build, scatter-plan
    compile and the PSF build before CG.
``lib_cg_gridding``
    In-process CG (10 iterations, gridding normal operator) on a warm plan
    of the default engine: warm scatter/gather dominates (the paper's
    Fig. 7 regime); the service and the Toeplitz path are skipped.
``stream_adjoint``
    In-process chunked (streamed) adjoint of 2^20 random radial samples,
    a fresh plan per pass: single-use per-chunk select/compile plus seeded
    bincount, memory-bound; FFT is a small share and CG and the service
    are skipped.

A workload runs its set-up several times and reports the median, then
measures for the given number of seconds.  With tracing, the measured
time is split into an untraced half and a traced half; the end-to-end
metrics come from the untraced half, the per-layer metrics from the
traced half, and the difference of their median latencies is the
tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SERVER_PROC = Path(__file__).resolve().parent / "server_proc.py"

WORKLOADS = ("serve_warm", "serve_cold", "lib_cg_gridding", "stream_adjoint")

#: fixed client poll interval: no jitter, so notify time does not depend
#: on a random number the seed does not set
POLL_S = 0.01
#: correctness gates
MAX_IMAGE_NRMSD = 0.05
MAX_REFERENCE_NRMSD = 1e-6
MAX_SPOT_ERROR = 2e-3
#: CG iterations of every reconstruction job and solve
CG_ITERATIONS = 10
#: pixels of the stream's first pass checked against the exact NuDFT
SPOT_PIXELS = 8


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark mode."""

    image: int
    spokes: int
    readout: int
    #: distinct trajectory rotations one run can use (serve_cold cycles
    #: through them; more than a worker's 8 cached plans, so a reuse
    #: still misses)
    windows: int
    stream_samples: int
    chunk_samples: int
    #: set-up repetitions per run (setup_s is their median)
    setups: int


SIZES = {
    "full": Size(
        image=256, spokes=402, readout=512, windows=64,
        stream_samples=1 << 20, chunk_samples=1 << 16, setups=3,
    ),
    "smoke": Size(
        image=64, spokes=100, readout=128, windows=16,
        stream_samples=1 << 16, chunk_samples=1 << 13, setups=2,
    ),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def shepp_logan_kspace(coords: np.ndarray, n: int) -> np.ndarray:
    """Analytic Fourier samples of the modified Shepp-Logan phantom.

    Matches the NuFFT convention ``f(w) = sum_p image[p] exp(-2 pi i w.p)``
    for the ``n x n`` rasterization of :func:`repro.phantoms.shepp_logan_2d`
    (pixel ``p = index - n // 2``), up to the rasterization error: each
    ellipse contributes ``I a b J1(2 pi rho) / rho`` times its shift phase.
    """
    from scipy.special import j1

    from repro.phantoms.shepp_logan import SHEPP_LOGAN_ELLIPSES

    # phantom x runs along columns, y up along rows (row 0 at the top)
    kx = (n / 2) * coords[:, 1]
    ky = -(n / 2) * coords[:, 0]
    out = np.zeros(coords.shape[0], dtype=np.complex128)
    for intensity, a, b, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
        c, s = np.cos(np.deg2rad(phi_deg)), np.sin(np.deg2rad(phi_deg))
        rho = np.hypot(a * (kx * c + ky * s), b * (-kx * s + ky * c))
        safe = np.where(rho > 0, rho, 1.0)
        disk = np.where(rho > 0, j1(2 * np.pi * safe) / safe, np.pi)
        out += intensity * a * b * disk * np.exp(-2j * np.pi * (kx * x0 + ky * y0))
    return out * (n / 2) ** 2 * np.exp(1j * np.pi * (coords[:, 0] + coords[:, 1]))


@dataclass
class RadialProblem:
    """A seeded golden-angle trajectory and its phantom samples.

    The trajectory has ``spokes + windows - 1`` spokes.  Window ``k`` is
    spokes ``k .. k + spokes - 1``: the golden-angle trajectory rotated by
    ``k`` golden angles, with its exact samples taken from the one forward
    transform made here.  ``order`` is the seeded order the windows are
    used in.
    """

    size: Size
    coords: np.ndarray
    samples: np.ndarray
    phantom: np.ndarray
    order: np.ndarray

    @classmethod
    def make(cls, size: Size, rng: np.random.Generator) -> "RadialProblem":
        from repro.gridding import default_gridder
        from repro.nufft import NufftPlan
        from repro.phantoms import shepp_logan_2d
        from repro.trajectories import golden_angle_radial

        theta = rng.uniform(0.0, np.pi)
        rotation = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        coords = golden_angle_radial(size.spokes + size.windows - 1, size.readout)
        coords = coords @ rotation.T
        phantom = shepp_logan_2d(size.image).astype(np.complex128)
        plan = NufftPlan((size.image,) * 2, coords, gridder=default_gridder())
        return cls(size, coords, plan.forward(phantom), phantom,
                   rng.permutation(size.windows))

    def window(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(coords, samples, ramp DCF weights)`` of window ``k``."""
        from repro.trajectories.density import ramp_density_compensation

        rows = slice(k * self.size.readout, (k + self.size.spokes) * self.size.readout)
        coords = np.ascontiguousarray(self.coords[rows])
        return coords, self.samples[rows].copy(), ramp_density_compensation(coords)

    def job_body(self, k: int) -> bytes:
        """The ``POST /jobs`` body of window ``k``, JSON-encoded."""
        from repro.service import encode_array

        coords, samples, weights = self.window(k)
        return json.dumps({
            "image_shape": [self.size.image] * 2,
            "coords": encode_array(coords),
            "samples": encode_array(samples),
            "weights": encode_array(weights),
            "method": "cg",
            "options": {"n_iterations": CG_ITERATIONS, "normal": "toeplitz"},
        }).encode("utf-8")


# ----------------------------------------------------------------------
# measurement records
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One timed request: timestamps (``time.time_ns``) and its result."""

    t0: int
    t1: int = 0  # serve: submit acknowledged
    t2: int = 0  # serve: terminal record in hand
    t3: int = 0  # end: image decoded (serve) / call returned (library)
    polls: int = 0
    record: dict | None = None
    image: np.ndarray | None = None
    error: str | None = None
    traced: bool = False
    samples: int = 0
    scope: tuple | None = None  # (thread, start_ns, end_ns) its spans ran in

    @property
    def latency(self) -> float:
        return (self.t3 - self.t0) / 1e9


@dataclass
class Outcome:
    """Everything a workload run measured, before it becomes metrics."""

    requests: list[Request] = field(default_factory=list)
    #: seconds the timed phases lasted, load-generator preparation removed
    wall: dict[bool, float] = field(default_factory=dict)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    nrmsd: list[float] = field(default_factory=list)
    gate_failures: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    stamp: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_image(out: Outcome, req: Request, reference: np.ndarray, adjoint: bool = False):
    """Finite gate of one request's image, and its NRMSD against the phantom.

    A reconstruction must also come within ``MAX_IMAGE_NRMSD`` of the
    phantom.  An ``adjoint`` image has no absolute scale and is compared
    after the best complex scale fit; its NRMSD is reported but not gated
    (its accuracy gate is the spot check against the exact NuDFT).
    """
    from repro.recon.metrics import nrmsd

    image = req.image
    if not np.isfinite(image).all():
        req.error = "non-finite image"
        return
    if adjoint:
        image = image * (np.vdot(image, reference) / np.vdot(image, image))
    value = nrmsd(image, reference)
    out.nrmsd.append(value)
    if not adjoint and not value <= MAX_IMAGE_NRMSD:
        req.error = f"image NRMSD {value:.4g} > {MAX_IMAGE_NRMSD}"


def _timed_phases(seconds: float, trace: bool):
    """``(traced, seconds)`` of each timed phase of a run."""
    if trace:
        return ((False, seconds / 2), (True, seconds / 2))
    return ((False, seconds),)


# ----------------------------------------------------------------------
# serve_*: the HTTP service in its own process
# ----------------------------------------------------------------------
class Server:
    """``perfbench/server_proc.py`` as a child process."""

    def __init__(self, trace: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER_PROC)] + (["--trace"] if trace else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server process exited before listening")
        self.info = json.loads(line)
        self.url = self.info["url"]

    def trace_on(self) -> None:
        self.proc.stdin.write("trace-on\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError("server process did not enable tracing")

    def stop(self) -> dict:
        """Drain and stop the server; returns its VmHWM and spans."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        self.close()
        if not line:
            raise RuntimeError("server process exited without a report")
        return json.loads(line)

    def close(self) -> None:
        """Stop the child and wait for it, killing it if it hangs."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _submit(url: str, body: bytes) -> str:
    """POST a pre-encoded job body; honours 429 ``Retry-After``."""
    for _ in range(20):
        request = urllib.request.Request(
            url + "/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as resp:
                return json.loads(resp.read())["job"]
        except urllib.error.HTTPError as exc:
            if exc.code != 429:
                raise
            time.sleep(int(exc.headers.get("Retry-After", 1)))
    raise RuntimeError("job refused after retries (queue stayed full)")


def _serve_request(url: str, client, body: bytes) -> Request:
    from repro.service import JobState

    req = Request(t0=time.time_ns())
    job = _submit(url, body)
    req.t1 = time.time_ns()
    while True:
        record = client.status(job)
        req.polls += 1
        if record["state"] in JobState.TERMINAL:
            break
        time.sleep(POLL_S)
    req.t2 = time.time_ns()
    if record["state"] == JobState.DONE:
        req.image = client.result_image(record)
        del record["result"]["image"]
    else:
        req.error = f"job {record['state']}: {record.get('error')}"
    req.t3 = time.time_ns()
    req.record = record
    started, finished = record.get("started"), record.get("finished")
    if started is not None and finished is not None:
        req.scope = (f"recon-{record['worker']}", int(started * 1e9), int(finished * 1e9))
    return req


def _closed_loop(n_clients: int, seconds: float, one_request, traced: bool):
    """Run ``n_clients`` closed-loop clients until ``seconds`` pass.

    ``one_request(client_index)`` returns ``(Request, prep_seconds)``;
    preparation time (body encoding) is removed from the phase's wall
    time.  Returns ``(requests, wall_seconds)``.
    """
    results: list[list[Request]] = [[] for _ in range(n_clients)]
    prep = [0.0] * n_clients
    start = time.monotonic()
    deadline = start + seconds

    def loop(i: int) -> None:
        while time.monotonic() < deadline:
            try:
                req, prep_s = one_request(i)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                req, prep_s = Request(t0=time.time_ns(), error=repr(exc)), 0.0
                req.t3 = time.time_ns()
            req.traced = traced
            prep[i] += prep_s
            results[i].append(req)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - start - sum(prep) / n_clients
    return [r for rs in results for r in rs], wall


def run_serve(name: str, size: Size, seed: int, seconds: float, trace: bool,
              t_imports: float) -> Outcome:
    from repro.nufft import NufftPlan
    from repro.recon import cg_reconstruction
    from repro.recon.metrics import nrmsd
    from repro.service import ReconClient

    warm = name == "serve_warm"
    out = Outcome()
    problem = RadialProblem.make(size, np.random.default_rng(seed))
    # serve_warm: client i owns window order[i]; serve_cold: order[0] warms
    # the server up and the timed jobs take order[1], order[2], ... in turn
    n_clients = 2 if warm else 1
    warmup = [int(k) for k in problem.order[:n_clients]]
    bodies = {k: problem.job_body(k) for k in warmup}
    cold_jobs = itertools.count()

    setups = []
    server = None
    try:
        for i in range(size.setups):
            if server is not None:
                server.stop()
            t = time.perf_counter()
            server = Server(trace)
            client = ReconClient(server.url)
            if client.healthz()["http_status"] != 200:
                raise RuntimeError("server unhealthy after start")
            for k in warmup:
                _serve_request(server.url, client, bodies[k])
            setups.append(time.perf_counter() - t)

        def one_request(i: int):
            t = time.perf_counter()
            if warm:
                k = warmup[i]
                body = bodies[k]
            else:
                k = int(problem.order[1 + next(cold_jobs) % (size.windows - 1)])
                body = problem.job_body(k)
            prep = time.perf_counter() - t
            req = _serve_request(server.url, client, body)
            req.samples = size.spokes * size.readout
            req.record["window"] = k
            return req, prep

        for traced, phase_s in _timed_phases(seconds, trace):
            if traced:
                server.trace_on()
            reqs, out.wall[traced] = _closed_loop(n_clients, phase_s, one_request, traced)
            out.requests += reqs
        fft_backend = server.info["fft_backend"]
        report = server.stop()
        server = None
    finally:
        if server is not None:
            server.close()
    out.setup_s = t_imports + statistics.median(setups)
    out.peak_rss_mb = report["vmhwm_kb"] / 1024.0
    out.spans = report["spans"]

    ok = [r for r in out.requests if r.error is None]
    for req in ok:
        _check_image(out, req, problem.phantom)
    lanes = {r.record["result"]["exec_lane"] for r in ok}
    out.stamp = {"exec_lane": ",".join(sorted(lanes)), "fft_backend": fft_backend}
    # reference: the first timed job's trajectory, solved in-process on
    # the serial Slice-and-Dice engine with the job's own options
    if not ok:
        out.gate_failures.append("no successful job to check against the reference")
        return out
    first = ok[0]
    coords, samples, weights = problem.window(first.record["window"])
    ref = cg_reconstruction(
        NufftPlan((size.image,) * 2, coords, gridder="slice_and_dice"),
        samples, weights=weights, n_iterations=CG_ITERATIONS, normal="toeplitz",
    ).image
    err = nrmsd(first.image, ref)
    out.checks = {"reference_nrmsd": err}
    if not err <= MAX_REFERENCE_NRMSD:
        out.gate_failures.append(f"NRMSD {err:.3g} against the serial reference")
    return out


# ----------------------------------------------------------------------
# lib_cg_gridding / stream_adjoint: the library in this process
# ----------------------------------------------------------------------
def _library_loop(seconds: float, traced: bool, tracer, one_request):
    """Closed loop of in-process requests on this thread.

    ``one_request()`` returns ``(Request, prep_seconds)``; spans the
    request's calls record on this thread belong to it.
    """
    tracer.enabled = traced
    reqs: list[Request] = []
    prep = 0.0
    start = time.monotonic()
    try:
        while time.monotonic() < start + seconds:
            req, prep_s = one_request()
            req.traced = traced
            req.scope = (threading.current_thread().name, req.t0, req.t3)
            prep += prep_s
            reqs.append(req)
    finally:
        tracer.enabled = False
    return reqs, time.monotonic() - start - prep


def run_lib_cg(size: Size, seed: int, seconds: float, trace: bool,
               t_imports: float, tracer) -> Outcome:
    from repro import recon
    from repro.gridding import default_gridder
    from repro.nufft import NufftPlan
    from repro.recon.metrics import nrmsd

    out = Outcome()
    problem = RadialProblem.make(size, np.random.default_rng(seed))
    coords, samples, weights = problem.window(int(problem.order[0]))
    shape = (size.image,) * 2

    def solve(plan):
        # looked up at call time so a traced run calls the wrapper
        return recon.cg_reconstruction(
            plan, samples, weights=weights,
            n_iterations=CG_ITERATIONS, normal="gridding",
        )

    setups = []
    plan = None
    for _ in range(size.setups):
        plan = None
        t = time.perf_counter()
        plan = NufftPlan(shape, coords, gridder=default_gridder())
        solve(plan)
        setups.append(time.perf_counter() - t)

    def one_request():
        req = Request(t0=time.time_ns(), samples=coords.shape[0])
        req.image = solve(plan).image
        req.t3 = time.time_ns()
        return req, 0.0

    for traced, phase_s in _timed_phases(seconds, trace):
        reqs, out.wall[traced] = _library_loop(phase_s, traced, tracer, one_request)
        out.requests += reqs
    out.setup_s = t_imports + statistics.median(setups)
    out.peak_rss_mb = _rss_mb()
    out.stamp = {"exec_lane": plan.timings.exec_lane,
                 "fft_backend": plan.timings.fft_backend}
    for req in out.requests:
        _check_image(out, req, problem.phantom)
    ref = recon.cg_reconstruction(
        NufftPlan(shape, coords, gridder="slice_and_dice"), samples,
        weights=weights, n_iterations=CG_ITERATIONS, normal="gridding",
    ).image
    err = nrmsd(out.requests[0].image, ref)
    out.checks = {"reference_nrmsd": err}
    if not err <= MAX_REFERENCE_NRMSD:
        out.gate_failures.append(f"NRMSD {err:.3g} against the serial reference")
    return out


def exact_adjoint_at(coords: np.ndarray, values: np.ndarray, pixels: np.ndarray,
                     shape: tuple[int, ...]) -> np.ndarray:
    """The exact adjoint NuDFT sum of :mod:`repro.nudft` at a few pixels.

    ``image[p] = sum_j f_j exp(+2 pi i w_j . p)`` with centered positions
    ``p = index - N // 2``, evaluated only at ``pixels`` (``(P, d)``
    indices), in sample blocks so memory stays bounded.
    """
    positions = (pixels - np.asarray(shape) // 2).astype(np.float64)
    acc = np.zeros(len(pixels), dtype=np.complex128)
    for lo in range(0, coords.shape[0], 1 << 16):
        phase = coords[lo:lo + (1 << 16)] @ positions.T
        acc += np.exp(2j * np.pi * phase).T @ values[lo:lo + (1 << 16)]
    return acc


def run_stream(size: Size, seed: int, seconds: float, trace: bool,
               t_imports: float, tracer) -> Outcome:
    from repro.gridding import default_gridder
    from repro.nufft import NufftPlan
    from repro.phantoms import shepp_logan_2d
    from repro.trajectories.density import ramp_density_compensation

    out = Outcome()
    rng = np.random.default_rng(seed)
    m, shape = size.stream_samples, (size.image,) * 2
    # one seeded pool of random radial samples; each pass streams a fresh
    # seeded permutation of it, so every pass chunks different samples
    angle = rng.uniform(0.0, np.pi, m)
    radius = rng.uniform(-0.5, 0.5, m)
    coords = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    values = shepp_logan_kspace(coords, size.image) * ramp_density_compensation(coords)
    phantom = shepp_logan_2d(size.image).astype(np.complex128)
    pixels = rng.integers(0, size.image, (SPOT_PIXELS, 2))
    options = {"chunk_samples": size.chunk_samples}

    def adjoint(c, v):
        return NufftPlan(shape, c, gridder=default_gridder(), gridder_options=options).adjoint(v)

    setups = []
    for _ in range(size.setups):
        t = time.perf_counter()
        adjoint(coords[: size.chunk_samples], values[: size.chunk_samples])
        setups.append(time.perf_counter() - t)

    first: dict = {}

    def one_request():
        t = time.perf_counter()
        perm = rng.permutation(m)
        c, v = coords[perm], values[perm]
        prep = time.perf_counter() - t
        req = Request(t0=time.time_ns(), samples=m)
        plan = NufftPlan(shape, c, gridder=default_gridder(), gridder_options=options)
        req.image = plan.adjoint(v)
        req.t3 = time.time_ns()
        if not first:
            first.update(coords=c, values=v, image=req.image,
                         exec_lane=plan.timings.exec_lane,
                         fft_backend=plan.timings.fft_backend)
        return req, prep

    for traced, phase_s in _timed_phases(seconds, trace):
        reqs, out.wall[traced] = _library_loop(phase_s, traced, tracer, one_request)
        out.requests += reqs
    out.setup_s = t_imports + statistics.median(setups)
    out.peak_rss_mb = _rss_mb()
    out.stamp = {"exec_lane": first["exec_lane"], "fft_backend": first["fft_backend"]}
    for req in out.requests:
        _check_image(out, req, phantom, adjoint=True)
    exact = exact_adjoint_at(first["coords"], first["values"], pixels, shape)
    got = first["image"][pixels[:, 0], pixels[:, 1]]
    err = float(np.max(np.abs(got - exact)) / np.max(np.abs(first["image"])))
    out.checks = {"spot_error": err, "spot_pixels": len(pixels)}
    if not err <= MAX_SPOT_ERROR:
        out.gate_failures.append(f"spot-check error {err:.3g} x max|image|")
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _service_layers(reqs: list[Request]) -> dict[str, float]:
    """Service-layer metrics derived from job records and client timestamps.

    A served request's latency splits at the job's ``started`` and
    ``finished`` timestamps into submit, queue wait, execution, notify
    and decode; the boundaries are clamped to be ordered, so the parts
    add up to the latency exactly.
    """
    recs = [r for r in reqs if r.record is not None and r.record.get("finished")]
    if not recs:
        return {}
    parts = {"service.submit_s": 0.0, "service.queue_wait_s": 0.0,
             "service.notify_s": 0.0, "client.decode_s": 0.0, "service.exec_s": 0.0}
    workers: dict[str, int] = {}
    for r in recs:
        started, finished = r.record["started"] * 1e9, r.record["finished"] * 1e9
        b2 = max(r.t1, started)
        b3 = max(b2, finished)
        b4 = max(b3, r.t2)
        parts["service.submit_s"] += (r.t1 - r.t0) / 1e9
        parts["service.queue_wait_s"] += (b2 - r.t1) / 1e9
        parts["service.notify_s"] += (b4 - b3) / 1e9
        parts["client.decode_s"] += (r.t3 - b4) / 1e9
        parts["service.exec_s"] += (finished - started) / 1e9
        workers[r.record["worker"]] = workers.get(r.record["worker"], 0) + 1
    n = len(recs)
    out = {k: v / n for k, v in parts.items()}
    out["service.polls_per_job"] = sum(r.polls for r in recs) / n
    out["service.worker_skew"] = max(workers.values()) / n
    out["service.plan_hit_rate"] = sum(
        r.record["result"]["plan_cache"] == "hit" for r in recs) / n
    out["service.toeplitz_hit_rate"] = sum(
        r.record["result"]["toeplitz_cache"] == "hit" for r in recs) / n
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(out: Outcome, traced: bool) -> dict[str, float]:
    """Per-request mean of every layer metric the phase can give.

    Untraced, only what job records show (the service layers); traced,
    also the span self times, whose sum with the service parts leaves
    ``trace.unattributed_s`` of the mean latency uncovered.
    """
    phase = [r for r in out.requests if r.traced == traced and r.error is None]
    layers = _service_layers(phase)
    if not traced or not phase:
        return layers
    n = len(phase)
    sums = spans.layer_times(out.spans, [r.scope for r in phase if r.scope])
    for name, value in sums.items():
        if name not in layers and name != "gridding.samples":
            layers[name] = value if name == "gridding.peak_bytes" else value / n
    busy = sums["gridding.grid_s"] + sums["gridding.interp_s"] + sums["gridding.chunk_scatter_s"]
    layers["gridding.msamples_per_s"] = sums["gridding.samples"] / busy / 1e6 if busy else 0.0
    mean_latency = sum(r.latency for r in phase) / n
    layers["trace.unattributed_s"] = mean_latency - sum(
        layers.get(name, 0.0) for name in spans.PARTITION)
    untraced = [r.latency for r in out.requests if not r.traced and r.error is None]
    layers["trace.overhead"] = _median([r.latency for r in phase]) - _median(untraced)
    return layers


def summarize(out: Outcome, trace: bool) -> dict:
    """End-to-end metrics, layer metrics and the correctness verdict."""
    for reason in out.gate_failures:
        print(f"gate failed: {reason}", file=sys.stderr)
    for r in out.requests:
        if r.error is not None:
            print(f"request failed: {r.error}", file=sys.stderr)
    attempted = len(out.requests)
    failed = sum(r.error is not None for r in out.requests) + len(out.gate_failures)
    ok = [r for r in out.requests if not r.traced and r.error is None]
    latencies = [r.latency for r in ok]
    wall = out.wall.get(False, 0.0)
    metrics = {
        "latency_p50_s": _median(latencies),
        "latency_p90_s": float(np.percentile(latencies, 90)) if latencies else 0.0,
        "throughput_jobs_s": len(ok) / wall if wall > 0 else 0.0,
        "samples_per_s": sum(r.samples for r in ok) / wall if wall > 0 else 0.0,
        "setup_s": out.setup_s,
        "peak_rss_mb": out.peak_rss_mb,
        "image_nrmsd": _median(out.nrmsd),
        "success_rate": max(0.0, 1.0 - failed / attempted) if attempted else 0.0,
    }
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
        "layers": layer_metrics(out, trace),
        "detail": {
            "requests": attempted,
            "latency_samples": len(latencies),
            "latencies_s": [round(x, 6) for x in latencies],
            "stamp": out.stamp,
            "checks": out.checks,
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 t_imports: float) -> dict:
    """Run one workload and return :func:`summarize`'s record."""
    size = SIZES["smoke" if smoke else "full"]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer) if trace and not name.startswith("serve") else None
    try:
        if name.startswith("serve"):
            out = run_serve(name, size, seed, seconds, trace, t_imports)
        elif name == "lib_cg_gridding":
            out = run_lib_cg(size, seed, seconds, trace, t_imports, tracer)
        elif name == "stream_adjoint":
            out = run_stream(size, seed, seconds, trace, t_imports, tracer)
        else:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    finally:
        if uninstall is not None:
            uninstall()
    out.spans = out.spans or tracer.spans
    return summarize(out, trace)
