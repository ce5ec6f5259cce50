"""Reconstruction-as-a-service: async job API + warm-cache worker pool.

The package turns the library's reconstruction pipeline into a
long-running service without adding a single dependency:

- :mod:`repro.service.jobs` — job model: specs, lifecycle state
  machine, trajectory fingerprints, the JSON array codec;
- :mod:`repro.service.worker` — worker threads with an LRU of warm
  plans (each holding its bound select tables or compiled plan and
  Toeplitz operator) and a shared per-worker
  :class:`~repro.gridding.GridBufferPool`;
- :mod:`repro.service.router` — :class:`ReconService`: bounded
  admission (backpressure) + trajectory-affinity routing +
  idempotency-key dedup, cooperative cancellation, and the shared
  checkpoint store;
- :mod:`repro.service.watchdog` — :class:`Watchdog`: deadline sweeps
  and hang/crash detection via worker heartbeats, with worker
  replacement and checkpoint-resume requeues;
- :mod:`repro.service.server` — :class:`ReconServer`: the stdlib
  ``http.server`` JSON front end (``POST /jobs``, ``GET /jobs/<id>``,
  ``POST /jobs/<id>/cancel``, ``/healthz``, ``/stats``,
  ``POST /shutdown``);
- :mod:`repro.service.client` — :class:`ReconClient`: a
  ``urllib``-based helper (submit / wait / cancel / reconstruct,
  honouring 429 ``Retry-After``, polling with capped exponential
  backoff + jitter).

See ``docs/service.md`` for the architecture guide and
``python -m repro.service --help`` for the CLI.
"""

from .client import ReconClient
from .jobs import (
    Job,
    JobSpec,
    JobState,
    decode_array,
    encode_array,
    trajectory_fingerprint,
)
from .router import ReconService
from .server import ReconServer
from .watchdog import Watchdog
from .worker import ReconWorker

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "ReconClient",
    "ReconServer",
    "ReconService",
    "ReconWorker",
    "Watchdog",
    "decode_array",
    "encode_array",
    "trajectory_fingerprint",
]
