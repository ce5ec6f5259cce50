"""HTTP front-end tests: routes, status codes, backpressure headers.

Each test boots a real :class:`repro.service.ReconServer` on an
ephemeral port (``port=0``) and talks to it through
:class:`repro.service.ReconClient` or raw ``urllib`` — the same wire a
curl user sees.  Status-code contract under test::

    202  job accepted (id issued)
    400  malformed payload (nothing enqueued)
    404  unknown route / unknown or evicted job id
    413  oversized body
    429  queue full (Retry-After header; nothing enqueued)
    503  draining (submissions only; status reads keep working)
    403  POST /shutdown without --allow-shutdown
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import NufftPlan
from repro.errors import ServiceOverloaded
from repro.gridding import available_gridders
from repro.service import (
    JobSpec,
    ReconClient,
    ReconServer,
    ReconService,
    encode_array,
)
from repro.trajectories import radial_trajectory


def _problem(n=32, spokes=16, readout=32):
    coords = radial_trajectory(spokes, readout)
    m = coords.shape[0]
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return coords, samples, np.ones(m)


def _post_json(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), exc.headers


@pytest.fixture
def server():
    with ReconServer(port=0, workers=1) as srv:
        yield srv


class TestRoutes:
    def test_healthz_ok(self, server):
        client = ReconClient(server.url)
        health = client.healthz()
        assert health["http_status"] == 200
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert health["draining"] is False

    def test_job_round_trip_matches_direct(self, server):
        coords, samples, weights = _problem()
        plan = NufftPlan((32, 32), coords, gridder="slice_and_dice_compiled")
        ref = plan.adjoint(samples * weights)
        client = ReconClient(server.url)
        image = client.reconstruct((32, 32), coords, samples,
                                   weights=weights, method="adjoint")
        np.testing.assert_array_equal(image, ref)
        record = client.last_status
        assert record["state"] == "done"
        assert record["worker"] == "w0"
        assert record["result"]["seconds"] > 0

    def test_unknown_job_404(self, server):
        client = ReconClient(server.url)
        with pytest.raises(KeyError):
            client.status("deadbeef0000")

    def test_unknown_route_404(self, server):
        status, body, _ = _post_json(server.url + "/frobnicate", {})
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(server.url + "/frobnicate", timeout=10)
        assert exc_info.value.code == 404

    def test_bad_payload_400(self, server):
        status, body, _ = _post_json(server.url + "/jobs", {"nope": 1})
        assert status == 400
        assert "image_shape" in body["error"]
        coords, samples, _ = _problem()
        status, body, _ = _post_json(server.url + "/jobs", {
            "image_shape": [32, 32],
            "coords": encode_array(coords),
            "samples": encode_array(samples),
            "options": {"warp_factor": 9},
        })
        assert status == 400
        assert "warp_factor" in body["error"]

    def test_unknown_gridder_400(self, server):
        coords, samples, _ = _problem()
        status, body, _ = _post_json(server.url + "/jobs", {
            "image_shape": [32, 32],
            "coords": encode_array(coords),
            "samples": encode_array(samples),
            "options": {"gridder": "slice_and_dice_parallel"},
        })
        assert status == 400
        assert "slice_and_dice_parallel" in body["error"]
        for name in available_gridders():
            assert name in body["error"]
        assert ReconClient(server.url).stats()["accepted"] == 0

    def test_removed_jit_engine_400(self, server):
        """``slice_and_dice_jit`` is not an engine: the old name is an
        unknown gridder."""
        coords, samples, _ = _problem()
        status, body, _ = _post_json(server.url + "/jobs", {
            "image_shape": [32, 32],
            "coords": encode_array(coords),
            "samples": encode_array(samples),
            "options": {"gridder": "slice_and_dice_jit"},
        })
        assert status == 400
        assert "slice_and_dice_jit" in body["error"]
        for name in available_gridders():
            assert name in body["error"]
        assert ReconClient(server.url).stats()["accepted"] == 0

    @pytest.mark.parametrize("options,fft_disable", [
        pytest.param({"gridder_options": {"backend": "nope"}}, "", id="backend"),
        # the compiled engine has one lane and no backend option
        pytest.param({"gridder_options": {"backend": "csr"}}, "", id="removed-backend-csr"),
        pytest.param({"gridder_options": {"backend": "numba"}}, "", id="removed-backend-numba"),
        pytest.param({"gridder_options": {"backend": "bincount"}}, "", id="retired-backend"),
        pytest.param({"gridder_options": {"no_such_option": 1}}, "", id="unknown"),
        pytest.param({"gridder_options": {"table_cache_size": 0}}, "", id="removed"),
        # W = 6 > T = 4: the one-point-per-column guarantee breaks
        pytest.param({"gridder_options": {"tile_size": 4}}, "", id="tile_size"),
        pytest.param({"precision": "half"}, "", id="precision"),
        # the grid alone exceeds the budget: no chunk size fits
        pytest.param({"max_bytes": 1024}, "", id="max_bytes"),
        pytest.param({"fft_backend": "no-such-fft"}, "", id="unknown-fft"),
        # a registered FFT backend this host cannot run
        pytest.param({"fft_backend": "scipy"}, "scipy", id="unavailable-fft"),
    ])
    def test_bad_plan_options_400(self, server, monkeypatch, options, fft_disable):
        """Options the plan build would reject fail the submit: nothing
        is accepted."""
        if fft_disable:
            monkeypatch.setenv("REPRO_FFT_DISABLE", fft_disable)
        coords, samples, _ = _problem()
        status, body, _ = _post_json(server.url + "/jobs", {
            "image_shape": [32, 32],
            "coords": encode_array(coords),
            "samples": encode_array(samples),
            "options": {"gridder": "slice_and_dice_compiled", **options},
        })
        assert status == 400, body
        assert ReconClient(server.url).stats()["accepted"] == 0

    def test_curl_style_plain_list_payload(self, server):
        # the lenient codec: a human can post plain JSON lists
        status, body, _ = _post_json(server.url + "/jobs", {
            "image_shape": [16, 16],
            "coords": [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]],
            "samples": {"real": [1.0, 0.5, 0.25], "imag": [0.0, 0.0, 0.0]},
            "method": "adjoint",
        })
        assert status == 202
        client = ReconClient(server.url)
        record = client.wait(body["job"], timeout=30)
        assert record["state"] == "done"

    def test_stats_shape(self, server):
        coords, samples, weights = _problem()
        client = ReconClient(server.url)
        client.reconstruct((32, 32), coords, samples, weights=weights,
                           n_iterations=2)
        stats = client.stats()
        assert stats["accepted"] == 1
        assert stats["jobs"] == {"done": 1}
        assert len(stats["workers"]) == 1
        worker = stats["workers"][0]
        assert worker["plan_misses"] == 1
        assert set(stats["pool"]) == {
            "hits", "misses", "miss_bytes", "resident_bytes", "peak_bytes",
            "outstanding", "hit_rate",
        }

    def test_shutdown_403_by_default(self, server):
        status, body, _ = _post_json(server.url + "/shutdown", {})
        assert status == 403


class TestBackpressure:
    def test_429_with_retry_after_header(self):
        coords, samples, _ = _problem(16, 8, 16)
        service = ReconService(workers=1, max_pending=2, autostart=False)
        with ReconServer(port=0, service=service) as srv:
            payload = {
                "image_shape": [16, 16],
                "coords": encode_array(coords),
                "samples": encode_array(samples),
                "method": "adjoint",
            }
            for _ in range(2):
                status, _, _ = _post_json(srv.url + "/jobs", payload)
                assert status == 202
            status, body, headers = _post_json(srv.url + "/jobs", payload)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after"] == int(headers["Retry-After"])
            service.start()  # let the accepted jobs drain before teardown

    def test_client_raises_service_overloaded(self):
        coords, samples, _ = _problem(16, 8, 16)
        service = ReconService(workers=1, max_pending=1, autostart=False)
        with ReconServer(port=0, service=service) as srv:
            client = ReconClient(srv.url)
            client.submit((16, 16), coords, samples, method="adjoint")
            with pytest.raises(ServiceOverloaded) as exc_info:
                client.submit((16, 16), coords, samples, method="adjoint")
            assert exc_info.value.retry_after >= 1
            service.start()

    def test_wait_for_slot_rides_out_the_429(self):
        coords, samples, _ = _problem(16, 8, 16)
        with ReconServer(port=0, workers=1, max_pending=2) as srv:
            client = ReconClient(srv.url)
            ids = [
                client.submit((16, 16), coords, samples, method="adjoint",
                              wait_for_slot=True, max_retries=50)
                for _ in range(6)
            ]
            records = [client.wait(i, timeout=60) for i in ids]
        assert all(r["state"] == "done" for r in records)
        assert len(set(ids)) == 6


class TestDrain:
    def test_graceful_drain_finishes_accepted_jobs(self):
        coords, samples, _ = _problem(16, 8, 16)
        service = ReconService(workers=1, max_pending=8, autostart=False)
        srv = ReconServer(port=0, service=service)
        srv.start()
        client = ReconClient(srv.url)
        ids = [
            client.submit((16, 16), coords, samples, method="adjoint")
            for _ in range(4)
        ]
        # close() drains: every accepted job must reach a terminal state
        srv.close(drain=True)
        for job_id in ids:
            job = service.get(job_id)
            assert job is not None
            assert job.state == "done"

    def test_shutdown_route_when_enabled(self):
        coords, samples, _ = _problem(16, 8, 16)
        srv = ReconServer(port=0, workers=1, allow_shutdown=True)
        srv.start()
        client = ReconClient(srv.url)
        job_id = client.submit((16, 16), coords, samples, method="adjoint")
        reply = client.shutdown()
        assert reply["http_status"] == 202
        assert srv.wait_closed(timeout=30)
        # drained, not dropped
        assert srv.service.get(job_id).state == "done"
