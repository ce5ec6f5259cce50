"""Span recording around the library's public entry points.

:func:`install` wraps a fixed set of public functions and methods so that
each call records a span: its name, wall-clock start and end
(``time.time_ns``, so spans recorded in the server process line up with
the job records' ``started``/``finished`` timestamps), its parent span,
its thread and a few attributes read off the call's result.  Nothing
under ``src/`` is edited: the wrappers are installed from here, and
:func:`install` returns a function that puts the originals back.

The wrappers are inert until :attr:`Tracer.enabled` is set, so one process
can run an untraced phase and then a traced one; the difference between
the two phases' median latencies is the tracing overhead.

:func:`layer_times` turns spans into per-layer self times: a span's
duration minus the part of it that its child spans cover.  Each span is
charged to one layer metric, so the layers of one request add up to the
time its spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# span record layout (a list, mutated in place while the call runs)
ID, NAME, T0, T1, PARENT, THREAD, ATTRS = range(7)


class Tracer:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped to record a span called ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span; it runs after the span's end time is taken.  A call whose
        caller is already a span of the same name records nothing, so a
        wrapper layered on another wrapper of the same layer (the FFT
        fallback chain calling a concrete backend) counts once.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[NAME] == name:
                return fn(*args, **kwargs)
            span = [
                next(self._ids),
                name,
                time.time_ns(),
                0,
                None if parent is None else parent[ID],
                threading.current_thread().name,
                None,
            ]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = time.time_ns()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return wrapper


def _gridding_attrs(adjoint: bool):
    """Attribute reader for ``Gridder`` entry points.

    Reads the pass's ``GriddingStats`` (compile + table seconds, streamed
    chunks, transient high water) and computes ``M * W^d`` entries from
    the call's coordinates and the gridder's window width.  ``adjoint``
    calls are ``grid(coords, values)``, the others ``interp(grid, coords)``.
    """

    def read(args, kwargs, result):
        gridder = args[0]
        if adjoint:
            coords, values = args[1], args[2]
            k_rhs = values.shape[0] if values.ndim == 2 else 1
        else:
            grids, coords = args[1], args[2]
            k_rhs = grids.shape[0] if grids.ndim == gridder.setup.ndim + 1 else 1
        m = len(coords)
        st = gridder.stats
        return {
            "compile_s": st.plan_compile_seconds + st.table_build_seconds,
            "chunks": st.chunks,
            "peak_bytes": st.peak_bytes,
            "samples": k_rhs * m,
            "entries": k_rhs * m * gridder.setup.width ** gridder.setup.ndim,
        }

    return read


def _cg_attrs(args, kwargs, result):
    return {"iterations": result.n_iterations}


def _job_attrs(args, kwargs, result):
    return {"job": args[0].id}


def install(tracer: Tracer):
    """Wrap the library's entry points; returns an ``uninstall`` callable.

    Classes are patched in place, so every module that imported the class
    (``repro.service.worker.NufftPlan`` and the like) sees the wrapper.
    ``cg_reconstruction`` is a function, so each ``repro`` module that
    holds it under that name is patched as well.
    """
    from repro.gridding.base import Gridder
    from repro.nufft import fft_backend
    from repro.nufft.plan import NufftPlan
    from repro.nufft.toeplitz import ToeplitzNormalOperator
    from repro.recon import cg as cg_module
    from repro.service.jobs import Job, JobSpec

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(cls, attr, name, attrs=None):
        patch(cls, attr, tracer.wrap(name, cls.__dict__[attr], attrs))

    method(NufftPlan, "__init__", "plan.build")
    method(NufftPlan, "forward", "plan.forward")
    method(NufftPlan, "forward_batch", "plan.forward")
    method(NufftPlan, "adjoint", "plan.adjoint")
    method(NufftPlan, "adjoint_batch", "plan.adjoint")
    method(Gridder, "grid", "gridding.grid", _gridding_attrs(adjoint=True))
    method(Gridder, "grid_batch", "gridding.grid", _gridding_attrs(adjoint=True))
    method(Gridder, "interp", "gridding.interp", _gridding_attrs(adjoint=False))
    method(Gridder, "interp_batch", "gridding.interp", _gridding_attrs(adjoint=False))
    for cls in (
        fft_backend.FallbackFftBackend,
        fft_backend.NumpyFftBackend,
        fft_backend.ScipyFftBackend,
        fft_backend.PyfftwFftBackend,
    ):
        method(cls, "fftn", "fft")
        method(cls, "ifftn", "fft")
    method(ToeplitzNormalOperator, "__init__", "toeplitz.build")
    method(ToeplitzNormalOperator, "apply", "toeplitz.apply")
    method(ToeplitzNormalOperator, "apply_batch", "toeplitz.apply")
    from_payload = JobSpec.__dict__["from_payload"].__func__
    patch(JobSpec, "from_payload", classmethod(tracer.wrap("service.decode", from_payload)))
    method(Job, "as_dict", "service.encode", _job_attrs)

    original_cg = cg_module.cg_reconstruction
    traced_cg = tracer.wrap("cg", original_cg, _cg_attrs)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, "cg_reconstruction", None
        ) is original_cg:
            undo.append((module, "cg_reconstruction", original_cg))
            module.cg_reconstruction = traced_cg

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


#: per-layer self-time metrics that partition a request's latency
PARTITION = (
    "service.submit_s",
    "service.queue_wait_s",
    "service.notify_s",
    "client.decode_s",
    "plan.build_s",
    "plan.self_s",
    "gridding.compile_s",
    "gridding.grid_s",
    "gridding.interp_s",
    "gridding.chunk_compile_s",
    "gridding.chunk_scatter_s",
    "fft.s",
    "toeplitz.build_s",
    "toeplitz.apply_s",
    "cg.self_s",
)

_SELF_METRIC = {
    "plan.build": "plan.build_s",
    "plan.forward": "plan.self_s",
    "plan.adjoint": "plan.self_s",
    "fft": "fft.s",
    "toeplitz.build": "toeplitz.build_s",
    "toeplitz.apply": "toeplitz.apply_s",
    "cg": "cg.self_s",
}


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> self time in seconds (duration minus child coverage).

    Children always run on their parent's thread inside its interval, so
    subtracting their durations leaves the time the span spent in its
    own code.
    """
    child_ns: dict[int, int] = {}
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] = child_ns.get(span[PARENT], 0) + span[T1] - span[T0]
    return {
        span[ID]: (span[T1] - span[T0] - child_ns.get(span[ID], 0)) / 1e9
        for span in spans
    }


def layer_times(spans: list[list], scopes) -> dict[str, float]:
    """Sum per-layer self times and counters over the spans in ``scopes``.

    ``scopes`` is an iterable of ``(thread_name, start_ns, end_ns)``: a
    span belongs to a scope when it ran on that thread and started
    inside that window.  Gridding self time is split into compile (the
    pass's ``GriddingStats`` compile + table seconds) and the rest; a
    streamed pass (``chunks > 0``) goes to the ``chunk_*`` metrics.
    """
    selfs = self_times(spans)
    by_thread: dict[str, list[list]] = {}
    for span in spans:
        by_thread.setdefault(span[THREAD], []).append(span)
    out = dict.fromkeys(
        PARTITION
        + ("fft.calls", "cg.iterations", "gridding.chunks", "gridding.entries",
           "gridding.samples", "gridding.peak_bytes"),
        0.0,
    )
    for thread, start, end in scopes:
        for span in by_thread.get(thread, ()):
            if not start <= span[T0] <= end:
                continue
            name, own, attrs = span[NAME], selfs[span[ID]], span[ATTRS] or {}
            if name in ("gridding.grid", "gridding.interp"):
                compile_s = min(attrs.get("compile_s", 0.0), own)
                if attrs.get("chunks"):
                    out["gridding.chunk_compile_s"] += compile_s
                    out["gridding.chunk_scatter_s"] += own - compile_s
                    out["gridding.chunks"] += attrs["chunks"]
                else:
                    out["gridding.compile_s"] += compile_s
                    out[name + "_s"] += own - compile_s
                out["gridding.entries"] += attrs.get("entries", 0)
                out["gridding.samples"] += attrs.get("samples", 0)
                out["gridding.peak_bytes"] = max(
                    out["gridding.peak_bytes"], attrs.get("peak_bytes", 0)
                )
            elif name in _SELF_METRIC:
                out[_SELF_METRIC[name]] += own
                if name == "fft":
                    out["fft.calls"] += 1
                elif name == "cg":
                    out["cg.iterations"] += attrs.get("iterations", 0)
    return out
