"""Tiny urllib client for the reconstruction service.

Mirrors the server's zero-dependency stance: ``urllib.request`` plus
the same base64 array codec the server speaks.  The client is what the
benchmark's service workloads (``perfbench/``), the end-to-end tests,
and the ``docs/service.md`` doctests drive — one well-tested
path from a NumPy trajectory to a reconstructed NumPy image over HTTP.

Examples
--------
>>> import numpy as np
>>> from repro.service import ReconServer, ReconClient
>>> from repro.trajectories import radial_trajectory
>>> server = ReconServer(port=0, workers=1)
>>> server.start()
>>> client = ReconClient(server.url)
>>> coords = radial_trajectory(8, 16)
>>> image = client.reconstruct((16, 16), coords,
...                            np.ones(coords.shape[0], dtype=complex),
...                            method="adjoint")
>>> image.shape, image.dtype
((16, 16), dtype('complex128'))
>>> client.last_status["state"], client.last_status["result"]["plan_cache"]
('done', 'miss')
>>> server.close()
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

import numpy as np

from ..errors import ServiceOverloaded
from .jobs import JobState, decode_array, encode_array

__all__ = ["ReconClient"]


class ReconClient:
    """HTTP client for one reconstruction-service base URL.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8008"`` (or ``server.url``).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        #: full status dict of the most recent terminal job this client
        #: waited on (timings, cache hits, degradations, ...)
        self.last_status: dict | None = None

    # ------------------------------------------------------------------
    # low-level JSON round trips
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload: dict | None = None):
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, json.loads(resp.read() or b"{}"), resp.headers
        except urllib.error.HTTPError as exc:
            # 4xx/5xx still carry a JSON body we want to surface
            body = exc.read()
            try:
                decoded = json.loads(body or b"{}")
            except json.JSONDecodeError:
                decoded = {"error": body.decode("utf-8", "replace")}
            return exc.code, decoded, exc.headers

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        status, payload, _ = self._request("GET", "/healthz")
        payload["http_status"] = status
        return payload

    def stats(self) -> dict:
        _, payload, _ = self._request("GET", "/stats")
        return payload

    def submit(
        self,
        image_shape,
        coords,
        samples,
        weights=None,
        method: str = "cg",
        wait_for_slot: bool = False,
        max_retries: int = 20,
        **options,
    ) -> str:
        """Submit one job; returns its id.

        ``wait_for_slot=True`` turns 429 backpressure into polite
        waiting: sleep the server's ``Retry-After`` and resubmit, up
        to ``max_retries`` times (the load generator uses this to
        saturate the queue without dropping requests client-side).

        Raises
        ------
        ServiceOverloaded
            On 429 when ``wait_for_slot=False`` (or retries ran out);
            ``retry_after`` carries the server's hint.
        RuntimeError
            On any other non-202 response (bad payload, draining ...).
        """
        payload = {
            "image_shape": list(image_shape),
            "coords": encode_array(np.asarray(coords, dtype=np.float64)),
            "samples": encode_array(np.asarray(samples, dtype=np.complex128)),
            "method": method,
            "options": options,
        }
        if weights is not None:
            payload["weights"] = encode_array(
                np.asarray(weights, dtype=np.float64)
            )
        for _ in range(max(1, max_retries)):
            status, body, headers = self._request("POST", "/jobs", payload)
            if status == 202:
                return body["job"]
            if status == 429:
                retry_after = int(headers.get("Retry-After", body.get("retry_after", 1)))
                if not wait_for_slot:
                    raise ServiceOverloaded(
                        body.get("error", "queue full"), retry_after=retry_after
                    )
                time.sleep(retry_after)
                continue
            raise RuntimeError(f"submit failed ({status}): {body.get('error')}")
        raise ServiceOverloaded("queue stayed full after retries", retry_after=1)

    def status(self, job_id: str) -> dict:
        """Current job record (raises KeyError on an unknown id)."""
        status, body, _ = self._request("GET", f"/jobs/{job_id}")
        if status == 404:
            raise KeyError(job_id)
        return body

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll: float = 0.02,
        max_poll: float = 0.5,
    ) -> dict:
        """Poll until the job is terminal; returns (and stashes) its record.

        Terminal means any of ``done`` / ``failed`` / ``cancelled`` /
        ``deadline_exceeded``.  The poll interval starts at ``poll``
        and doubles up to ``max_poll``, with +-50% jitter on every
        sleep — short jobs still return promptly, long jobs cost O(1)
        requests per ``max_poll``, and a herd of waiting clients never
        phase-locks its polls into synchronized bursts.

        Raises
        ------
        TimeoutError
            If the job is still queued/running after ``timeout`` s.
        """
        deadline = time.monotonic() + timeout
        delay = max(1e-4, float(poll))
        while True:
            record = self.status(job_id)
            if record["state"] in JobState.TERMINAL:
                self.last_status = record
                return record
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            sleep = delay * (0.5 + random.random())  # 0.5x .. 1.5x jitter
            time.sleep(min(sleep, max(0.0, deadline - now)))
            delay = min(delay * 2.0, float(max_poll))

    def cancel(self, job_id: str) -> dict:
        """POST /jobs/<id>/cancel (raises KeyError on an unknown id).

        Returns the acknowledgement record; cancellation is
        cooperative, so poll :meth:`wait` afterwards to observe the
        terminal ``cancelled`` state (or ``done``, if the job beat the
        cancel to the finish line).
        """
        status, body, _ = self._request("POST", f"/jobs/{job_id}/cancel")
        if status == 404:
            raise KeyError(job_id)
        return body

    def result_image(self, record: dict) -> np.ndarray:
        """Decode the image array out of a terminal job record."""
        if record.get("state") != "done":
            raise RuntimeError(
                f"job {record.get('job')} is {record.get('state')}: "
                f"{record.get('error')}"
            )
        return decode_array(record["result"]["image"])

    def reconstruct(
        self,
        image_shape,
        coords,
        samples,
        weights=None,
        method: str = "cg",
        timeout: float = 60.0,
        wait_for_slot: bool = True,
        **options,
    ) -> np.ndarray:
        """Submit + wait + decode in one call; returns the image.

        The full job record (worker, cache hits, degradations,
        breakdown, per-job seconds) is kept in :attr:`last_status`.
        """
        job_id = self.submit(
            image_shape,
            coords,
            samples,
            weights=weights,
            method=method,
            wait_for_slot=wait_for_slot,
            **options,
        )
        record = self.wait(job_id, timeout=timeout)
        return self.result_image(record)

    def shutdown(self) -> dict:
        """POST /shutdown (server must have been started with
        ``allow_shutdown=True``)."""
        status, body, _ = self._request("POST", "/shutdown")
        body["http_status"] = status
        return body
