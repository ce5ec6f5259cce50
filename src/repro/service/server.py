"""stdlib HTTP front end for :class:`~repro.service.ReconService`.

No web framework — ``http.server.ThreadingHTTPServer`` plus JSON, so
the service adds **zero dependencies** to the package.  The handler is
a thin shim: every route decodes, calls the in-process service, and
encodes; all policy (admission, routing, caching, degradation) lives
in :mod:`repro.service.router` where it is unit-tested without
sockets.

Routes
------
``POST /jobs``
    Submit a reconstruction job (JSON body, see
    :meth:`~repro.service.jobs.JobSpec.from_payload`).  Replies
    ``202 Accepted`` with ``{"job": id, "state": "queued"}``;
    ``429 Too Many Requests`` with a ``Retry-After`` header when the
    bounded queue is full (nothing was enqueued); ``400`` on a
    malformed payload or an unknown gridder name; ``503`` while
    draining.
``GET /jobs/<id>``
    Job status (state machine position, worker, cache hits,
    degradations/breakdown/quality) plus the base64-encoded image
    once ``state == "done"``.  ``404`` for unknown ids — including
    ids evicted by the bounded status-retention window.
``POST /jobs/<id>/cancel``
    Cooperative cancellation: a queued job goes terminal
    (``cancelled``) immediately; a running job stops at its next
    between-chunks / between-iterations check.  Idempotent — repeat
    cancels (and cancels of already-terminal jobs) reply ``202`` with
    the current state unchanged.  ``404`` for unknown ids.
``GET /healthz``
    Liveness: ``{"status": "ok", "workers": N}`` — ``200`` as long as
    every worker thread is alive, ``500`` otherwise.
``GET /stats``
    Queue depth, per-worker cache hit rates, per-worker and
    aggregate buffer-pool snapshots, accepted/rejected counters.
``POST /shutdown``
    Graceful drain + stop, only when the server was built with
    ``allow_shutdown=True`` (the CLI flag ``--allow-shutdown``);
    ``403`` otherwise.  Replies ``202`` immediately, then finishes
    every accepted job before the process exits.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ServiceOverloaded
from .jobs import JobSpec
from .router import ReconService

__all__ = ["ReconServer"]

#: request bodies larger than this are refused outright (64 MiB is
#: roomy for a 3-D trajectory + samples but bounds a hostile payload)
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    # the ReconServer instance is attached to the server object
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: dict, headers: dict | None = None):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # pragma: no cover - quiet by default
        if self.server.recon_server.verbose:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.recon_server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz":
            alive = all(w.alive for w in service.workers)
            self._reply(
                200 if alive else 500,
                {
                    "status": "ok" if alive else "degraded",
                    "workers": len(service.workers),
                    "draining": service.closed,
                },
            )
        elif path == "/stats":
            self._reply(200, service.stats())
        elif path.startswith("/jobs/"):
            job = service.get(path[len("/jobs/"):])
            if job is None:
                self._reply(404, {"error": "unknown job id"})
            else:
                self._reply(200, job.as_dict())
        else:
            self._reply(404, {"error": f"no route {path!r}"})

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        recon_server = self.server.recon_server
        service = recon_server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/shutdown":
            if not recon_server.allow_shutdown:
                self._reply(403, {"error": "shutdown over HTTP is disabled"})
                return
            self._reply(202, {"state": "draining"})
            # drain in a helper thread: this handler thread is owned by
            # the HTTP server we are about to stop
            threading.Thread(target=recon_server.close, daemon=True).start()
            return
        if path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/jobs/"):-len("/cancel")]
            try:
                job = service.cancel(job_id)
            except KeyError:
                self._reply(404, {"error": "unknown job id"})
                return
            self._reply(202, {"job": job.id, "state": job.state})
            return
        if path != "/jobs":
            self._reply(404, {"error": f"no route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length > MAX_BODY_BYTES:
                self._reply(413, {"error": "request body too large"})
                return
            payload = json.loads(self.rfile.read(length) or b"{}")
            spec = JobSpec.from_payload(payload)
        except (ValueError, TypeError, KeyError) as exc:
            self._reply(400, {"error": f"bad job payload: {exc}"})
            return
        try:
            job = service.submit(spec)
        except ServiceOverloaded as exc:
            self._reply(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(exc.retry_after)},
            )
            return
        except RuntimeError as exc:
            self._reply(503, {"error": str(exc)})
            return
        self._reply(202, {"job": job.id, "state": job.state})


class ReconServer:
    """HTTP wrapper owning a :class:`ReconService` and its socket.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks a free ephemeral port —
        read it back from :attr:`port` (tests and doctests do this).
    service:
        An existing service to wrap; by default one is built from
        ``workers`` / ``max_pending`` / ``plan_cache_size``.
    allow_shutdown:
        Enable ``POST /shutdown`` (off by default: a library embedder
        usually wants lifecycle control to stay in-process).
    verbose:
        Log each request line to stderr (the CLI turns this on).

    Examples
    --------
    >>> from repro.service import ReconServer
    >>> server = ReconServer(port=0, workers=1)
    >>> server.start()
    >>> isinstance(server.port, int) and server.port > 0
    True
    >>> server.close()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: ReconService | None = None,
        workers: int = 2,
        max_pending: int = 64,
        plan_cache_size: int = 8,
        allow_shutdown: bool = False,
        verbose: bool = False,
    ):
        self.service = service if service is not None else ReconService(
            workers=workers,
            max_pending=max_pending,
            plan_cache_size=plan_cache_size,
        )
        self.allow_shutdown = bool(allow_shutdown)
        self.verbose = bool(verbose)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.recon_server = self
        self._thread: threading.Thread | None = None
        self._closed = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in a daemon thread (returns immediately)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="recon-http",
            daemon=True,
        )
        self._thread.start()

    def close(self, drain: bool = True) -> None:
        """Graceful stop: drain the service, then stop the listener.

        Draining *before* closing the socket keeps ``GET /jobs/<id>``
        answering while in-flight jobs finish; only new ``POST /jobs``
        submissions are refused (503) during the drain.
        """
        if self._closed.is_set():
            return
        self.service.close(drain=drain)
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
        self._closed.set()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until :meth:`close` completed (CLI uses this)."""
        return self._closed.wait(timeout)

    def __enter__(self) -> "ReconServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
